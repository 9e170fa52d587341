package serve

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"failatomic/internal/sched"
)

// Crontabs: recurring job specs. A crontab is any admissible JobSpec
// plus an "@every DURATION" schedule; the server re-submits the spec on
// that period through the ordinary admission path (tenant quotas and
// QueueDepth apply — a firing the queue refuses is skipped and counted,
// never queued twice). Every firing is stamped with the crontab's id in
// JobSpec.Crontab, which the drift gate folds into the spec identity:
// successive firings of one crontab compare against each other, turning
// the recurring spec into a longitudinal regression series.
//
// The table is persisted as crontab.json (atomic rewrite on every
// mutation) and reloaded at boot, so an installed crontab survives
// kill -9 like everything else in the data directory. Firing times are
// not persisted: after a restart each crontab fires one period after
// boot, which keeps the format free of clock state.

// Crontab is the wire and persisted form of one recurring spec.
type Crontab struct {
	ID string `json:"id"`
	// Tenant is the quota-table name the crontab was installed under;
	// firings are admitted (and quota-accounted) as that tenant.
	Tenant string `json:"tenant,omitempty"`
	// Schedule is the "@every DURATION" period.
	Schedule string `json:"schedule"`
	// Spec is the job submitted on each firing, before the server stamps
	// Spec.Crontab with ID.
	Spec JobSpec `json:"spec"`
}

// CrontabSpec is the POST /v1/crontabs request body.
type CrontabSpec struct {
	Schedule string  `json:"schedule"`
	Spec     JobSpec `json:"spec"`
}

// crontab is the in-memory entry: the durable record plus the next
// firing deadline.
type crontab struct {
	Crontab
	period time.Duration
	next   time.Time
}

func (s *Server) crontabPath() string { return filepath.Join(s.cfg.DataDir, "crontab.json") }

// newCrontabID returns a random 8-hex-digit "c"-prefixed identifier.
func newCrontabID() (string, error) {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("serve: %w", err)
	}
	return "c" + hex.EncodeToString(b[:]), nil
}

// recoverCrontabs loads crontab.json at boot; a missing file is an empty
// table. Each recovered crontab is armed one period past boot.
func (s *Server) recoverCrontabs() error {
	data, err := os.ReadFile(s.crontabPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("serve: crontab: %w", err)
	}
	var list []Crontab
	if err := json.Unmarshal(data, &list); err != nil {
		return fmt.Errorf("serve: crontab %s: %w", s.crontabPath(), err)
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ct := range list {
		period, err := sched.ParseEvery(ct.Schedule)
		if err != nil {
			return fmt.Errorf("serve: crontab %s: %w", ct.ID, err)
		}
		s.crontabs[ct.ID] = &crontab{Crontab: ct, period: period, next: now.Add(period)}
	}
	return nil
}

// persistCrontabsLocked rewrites crontab.json from the in-memory table.
// Called under s.mu.
func (s *Server) persistCrontabsLocked() error {
	list := make([]Crontab, 0, len(s.crontabs))
	for _, ct := range s.crontabs {
		list = append(list, ct.Crontab)
	}
	sort.Slice(list, func(i, k int) bool { return list[i].ID < list[k].ID })
	return writeFileAtomic(s.crontabPath(), list)
}

// crontabCreate validates and installs one recurring spec for tenant.
func (s *Server) crontabCreate(cs CrontabSpec, tenant string) (Crontab, error) {
	if cs.Spec.Crontab != "" {
		return Crontab{}, fmt.Errorf("serve: spec.crontab is server-assigned")
	}
	if err := cs.Spec.Validate(); err != nil {
		return Crontab{}, fmt.Errorf("serve: %w", err)
	}
	period, err := sched.ParseEvery(cs.Schedule)
	if err != nil {
		return Crontab{}, fmt.Errorf("serve: %w", err)
	}
	id, err := newCrontabID()
	if err != nil {
		return Crontab{}, err
	}
	ct := &crontab{
		Crontab: Crontab{ID: id, Tenant: tenant, Schedule: cs.Schedule, Spec: cs.Spec},
		period:  period,
		next:    time.Now().Add(period),
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return Crontab{}, ErrDraining
	}
	s.crontabs[id] = ct
	err = s.persistCrontabsLocked()
	if err != nil {
		delete(s.crontabs, id)
	}
	s.mu.Unlock()
	if err != nil {
		return Crontab{}, err
	}
	s.wakeCron()
	return ct.Crontab, nil
}

// crontabDelete uninstalls a recurring spec; it reports whether the id
// existed. Jobs already fired from it are unaffected.
func (s *Server) crontabDelete(id string) (bool, error) {
	s.mu.Lock()
	ct, ok := s.crontabs[id]
	if !ok {
		s.mu.Unlock()
		return false, nil
	}
	delete(s.crontabs, id)
	err := s.persistCrontabsLocked()
	if err != nil {
		s.crontabs[id] = ct
	}
	s.mu.Unlock()
	if err != nil {
		return false, err
	}
	s.wakeCron()
	return true, nil
}

// crontabList snapshots the installed crontabs, sorted by id.
func (s *Server) crontabList() []Crontab {
	s.mu.Lock()
	list := make([]Crontab, 0, len(s.crontabs))
	for _, ct := range s.crontabs {
		list = append(list, ct.Crontab)
	}
	s.mu.Unlock()
	sort.Slice(list, func(i, k int) bool { return list[i].ID < list[k].ID })
	return list
}

// wakeCron nudges the runner to recompute its nearest deadline.
func (s *Server) wakeCron() {
	select {
	case s.cronWake <- struct{}{}:
	default:
	}
}

// cronRunner is the single firing goroutine: sleep until the nearest
// deadline, fire everything due, repeat; exit on drain.
func (s *Server) cronRunner() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var soonest time.Time
		for _, ct := range s.crontabs {
			if soonest.IsZero() || ct.next.Before(soonest) {
				soonest = ct.next
			}
		}
		s.mu.Unlock()
		wait := time.Hour // idle: re-armed by wakeCron on install
		if !soonest.IsZero() {
			if wait = time.Until(soonest); wait < 0 {
				wait = 0
			}
		}
		timer := time.NewTimer(wait)
		select {
		case <-timer.C:
			s.fireDueCrontabs()
		case <-s.cronWake:
			timer.Stop()
		case <-s.drainCh:
			timer.Stop()
			return
		}
	}
}

// fireDueCrontabs submits every due crontab's spec (stamped with the
// crontab id) through the ordinary admission path and re-arms it one
// period out. A refused firing — full queue, tenant over quota, draining
// — is skipped and counted; the schedule keeps its cadence.
func (s *Server) fireDueCrontabs() {
	now := time.Now()
	s.mu.Lock()
	var due []*crontab
	for _, ct := range s.crontabs {
		if !ct.next.After(now) {
			due = append(due, ct)
			ct.next = now.Add(ct.period)
		}
	}
	s.mu.Unlock()
	for _, ct := range due {
		spec := ct.Spec
		spec.Crontab = ct.ID
		if _, err := s.submit(spec, ct.Tenant); err != nil {
			s.metrics.crontabSkipped.Add(1)
			continue
		}
		s.metrics.crontabFired.Add(1)
	}
}

// HTTP surface.

func (s *Server) handleCrontabCreate(w http.ResponseWriter, r *http.Request) {
	var cs CrontabSpec
	if !decodeSpec(w, r, "crontab", &cs) {
		return
	}
	ct, err := s.crontabCreate(cs, s.tenantOf(r))
	switch {
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
	case err != nil:
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
	default:
		writeJSON(w, http.StatusCreated, ct)
	}
}

func (s *Server) handleCrontabList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.crontabList())
}

func (s *Server) handleCrontabDelete(w http.ResponseWriter, r *http.Request) {
	ok, err := s.crontabDelete(r.PathValue("id"))
	switch {
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
	case !ok:
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such crontab"})
	default:
		writeJSON(w, http.StatusOK, map[string]bool{"deleted": true})
	}
}
