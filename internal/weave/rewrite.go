package weave

import (
	"fmt"
	"go/ast"
	"go/format"
	"go/token"
	"os"
	"sort"
	"strings"
)

// The strategy rewriter applies the Item-76 repair a method's recommended
// rung implies, editing source text at AST-derived positions exactly like
// the prologue weaver:
//
//	reorder     delete the leading bump statements and re-insert them
//	            immediately after the last throw site.
//	tempswap    save the directly written fields into faSaved* locals and
//	            add a restore-on-panic defer.
//	checkpoint  add "defer failatomic.Guard(recv)()" after the prologue.
//
// Every rewrite is idempotent: re-running the rewriter over its own output
// makes no further edits (reorder leaves nothing to move; tempswap and
// checkpoint detect their own markers).

// RewriteResult reports one method's strategy rewrite.
type RewriteResult struct {
	// Method is the instrumentation name.
	Method string
	// Strategy is the rung that was requested.
	Strategy string
	// Path is the file holding the method.
	Path string
	// Applied reports whether an edit was made (false when the rewrite was
	// already present, or the rung needs none).
	Applied bool
}

// RewriteDir applies per-method strategy rewrites to a package directory
// in place. strategies maps instrumentation names to rungs (usually the
// masking plan's assignments fed by MethodFacts.Strategy).
func RewriteDir(dir string, opts Options, strategies map[string]string) ([]RewriteResult, error) {
	opts.fill()
	p, err := loadDir(dir)
	if err != nil {
		return nil, err
	}
	strats := analyzeStrategy(p)

	methods := make([]string, 0, len(strategies))
	for m := range strategies {
		methods = append(methods, m)
	}
	sort.Strings(methods)

	var results []RewriteResult
	editsByPath := make(map[string][]edit)
	guardedPaths := make(map[string]bool) // need the facade import for Guard
	for _, method := range methods {
		rung := strategies[method]
		ms := strats[method]
		if ms == nil {
			return nil, fmt.Errorf("weave: rewrite: method %s not found in %s", method, dir)
		}
		res := RewriteResult{Method: method, Strategy: rung, Path: ms.path}
		switch rung {
		case StrategyNone, "":
			// Nothing to do.
		case StrategyReorder:
			e, applied, err := reorderEdits(p, ms)
			if err != nil {
				return nil, err
			}
			res.Applied = applied
			editsByPath[ms.path] = append(editsByPath[ms.path], e...)
		case StrategyTempSwap:
			e, applied, err := tempSwapEdit(p, ms)
			if err != nil {
				return nil, err
			}
			res.Applied = applied
			editsByPath[ms.path] = append(editsByPath[ms.path], e...)
		case StrategyCheckpoint:
			e, applied := guardEdit(p, ms, opts)
			res.Applied = applied
			if applied {
				editsByPath[ms.path] = append(editsByPath[ms.path], e...)
				guardedPaths[ms.path] = true
			}
		default:
			return nil, fmt.Errorf("weave: rewrite: unknown strategy %q for %s", rung, method)
		}
		results = append(results, res)
	}

	for path, edits := range editsByPath {
		if len(edits) == 0 {
			continue
		}
		src := p.srcs[path]
		if guardedPaths[path] {
			if e, ok := importEdit(p.fset, p.files[path], src, opts); ok {
				edits = append(edits, e)
			}
		}
		out := applyEdits(src, edits)
		formatted, err := format.Source(out)
		if err != nil {
			return nil, fmt.Errorf("weave: rewritten %s does not format: %w", path, err)
		}
		if err := os.WriteFile(path, formatted, 0o644); err != nil {
			return nil, fmt.Errorf("weave: %w", err)
		}
	}
	return results, nil
}

// reorderEdits moves the bump prefix after the last throw site.
func reorderEdits(p *pkg, ms *methodStrategy) ([]edit, bool, error) {
	if ms.strategy == StrategyNone {
		// Already validates before mutating (the rewrite's own output
		// re-analyzes to this) — nothing to move.
		return nil, false, nil
	}
	if ms.strategy != StrategyReorder || ms.bumpCount == 0 || ms.lastRisky < ms.bumpCount {
		return nil, false, fmt.Errorf("weave: rewrite: reorder not applicable to %s (%s)", ms.name, ms.reason)
	}
	src := p.srcs[ms.path]
	stmts := ms.body.List
	var edits []edit
	texts := make([]string, 0, ms.bumpCount)
	for i := 0; i < ms.bumpCount; i++ {
		start := p.fset.Position(stmts[i].Pos()).Offset
		end := p.fset.Position(stmts[i].End()).Offset
		texts = append(texts, string(src[start:end]))
		// Delete the statement's whole line, like stripEdit.
		for start > 0 && (src[start-1] == ' ' || src[start-1] == '\t') {
			start--
		}
		if end < len(src) && src[end] == '\n' {
			end++
		}
		edits = append(edits, edit{Start: start, End: end})
	}
	insert := p.fset.Position(stmts[ms.lastRisky].End()).Offset
	edits = append(edits, edit{
		Start: insert,
		End:   insert,
		Text:  "\n\t" + strings.Join(texts, "\n\t"),
	})
	return edits, true, nil
}

// tempSwapPrefix marks the saved-field locals the tempswap rewrite emits;
// its presence makes the rewrite idempotent.
const tempSwapPrefix = "faSaved"

// tempSwapEdit inserts the save-fields prologue and restore-on-panic defer.
func tempSwapEdit(p *pkg, ms *methodStrategy) ([]edit, bool, error) {
	if hasTempSwapMarker(ms) {
		return nil, false, nil
	}
	if !ms.allDirect || len(ms.fields) == 0 {
		return nil, false, fmt.Errorf("weave: rewrite: tempswap not applicable to %s (%s)", ms.name, ms.reason)
	}
	saved := make([]string, len(ms.fields))
	fields := make([]string, len(ms.fields))
	for i, f := range ms.fields {
		saved[i] = tempSwapPrefix + f
		fields[i] = ms.recv + "." + f
	}
	text := fmt.Sprintf("\n\t%s := %s\n\tdefer func() {\n\t\tif r := recover(); r != nil {\n\t\t\t%s = %s\n\t\t\tpanic(r)\n\t\t}\n\t}()",
		strings.Join(saved, ", "), strings.Join(fields, ", "),
		strings.Join(fields, ", "), strings.Join(saved, ", "))
	offset := afterPrologueOffset(p.fset, ms.decl)
	return []edit{{Start: offset, End: offset, Text: text}}, true, nil
}

// guardEdit inserts the checkpoint/rollback defer.
func guardEdit(p *pkg, ms *methodStrategy, opts Options) ([]edit, bool) {
	if hasGuardDefer(ms.decl) {
		return nil, false
	}
	offset := afterPrologueOffset(p.fset, ms.decl)
	text := fmt.Sprintf("\n\tdefer %s.Guard(%s)()", opts.FacadeName, ms.recv)
	return []edit{{Start: offset, End: offset, Text: text}}, true
}

// afterPrologueOffset is the insertion point for masking defers: after the
// Enter prologue when present (deferred functions run LIFO, so the masking
// defer then executes *first* on panic, rolling back before Enter's graph
// comparison), else right after the opening brace.
func afterPrologueOffset(fset *token.FileSet, fn *ast.FuncDecl) int {
	if hasPrologue(fn) {
		return fset.Position(fn.Body.List[0].End()).Offset
	}
	return fset.Position(fn.Body.Lbrace).Offset + 1
}

// hasTempSwapMarker detects a prior tempswap rewrite by its saved-field
// locals.
func hasTempSwapMarker(ms *methodStrategy) bool {
	for _, stmt := range ms.body.List {
		assign, ok := stmt.(*ast.AssignStmt)
		if !ok || assign.Tok != token.DEFINE || len(assign.Lhs) == 0 {
			continue
		}
		if id, ok := assign.Lhs[0].(*ast.Ident); ok && strings.HasPrefix(id.Name, tempSwapPrefix) {
			return true
		}
	}
	return false
}

// hasGuardDefer detects a prior checkpoint rewrite: a deferred
// facade.Guard(...)() call anywhere in the top-level statement list.
func hasGuardDefer(fn *ast.FuncDecl) bool {
	for _, stmt := range fn.Body.List {
		def, ok := stmt.(*ast.DeferStmt)
		if !ok {
			continue
		}
		inner, ok := def.Call.Fun.(*ast.CallExpr)
		if !ok {
			continue
		}
		switch fun := inner.Fun.(type) {
		case *ast.SelectorExpr:
			if fun.Sel.Name == "Guard" {
				return true
			}
		case *ast.Ident:
			if fun.Name == "Guard" {
				return true
			}
		}
	}
	return false
}
