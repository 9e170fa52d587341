package checkpoint

// Auto returns the strategy-selection strategy: per root, use the undo-log
// journal when the root implements Journaled (cheap, proportional to the
// write set) and fall back to a full deep copy otherwise. This is the
// always-sufficient bottom rung of the Item-76 ladder with the cheapest
// capture the root supports.
func Auto() Strategy { return &autoStrategy{} }

// autoStrategy holds its own deep-copy strategy, so the deep copies it
// commits are reused by its later captures.
type autoStrategy struct {
	deep deepCopy
}

func (*autoStrategy) Name() string { return "auto" }

func (a *autoStrategy) Capture(roots ...any) (Handle, error) {
	combined := &autoHandle{}
	for _, root := range roots {
		var (
			h   Handle
			err error
		)
		if _, ok := root.(Journaled); ok {
			h, err = UndoLog().Capture(root)
		} else {
			h, err = a.deep.Capture(root)
		}
		if err != nil {
			// Detach what was already captured so no journal stays armed.
			combined.Commit()
			return nil, err
		}
		combined.handles = append(combined.handles, h)
	}
	return combined, nil
}

// autoHandle aggregates per-root handles. Rollback restores in reverse
// capture order; Commit detaches every journal-backed handle.
type autoHandle struct {
	handles []Handle
}

func (h *autoHandle) Rollback() error {
	var firstErr error
	for i := len(h.handles) - 1; i >= 0; i-- {
		if err := h.handles[i].Rollback(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (h *autoHandle) Bytes() int {
	total := 0
	for _, sub := range h.handles {
		total += sub.Bytes()
	}
	return total
}

func (h *autoHandle) Commit() {
	for _, sub := range h.handles {
		if c, ok := sub.(Committer); ok {
			c.Commit()
		}
	}
}
