package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"failatomic/internal/serve/store"
)

// The job index: GET /v1/jobs lists every job the server knows, newest
// admission last, filterable by tenant token name, kind, state and
// crontab, paginated by a Seq cursor. The identity slice of the index
// (seq, id, token, kind, priority, crontab) is mirrored to an on-disk
// index.jsonl — appended on admission, rewritten from the recovered jobs
// at boot — so operators and offline tooling can walk a server's
// admission history without parsing every jobs/<id>/spec.json, and a
// half-written tail from a crash is healed by the boot rewrite.

// indexEntry is one line of index.jsonl: the immutable identity of one
// admitted job. Live state intentionally stays out — it would make the
// file a write-per-transition hot spot; state lives in done.json and the
// API.
type indexEntry struct {
	Seq      uint64 `json:"seq"`
	ID       string `json:"id"`
	Token    string `json:"token,omitempty"`
	Kind     string `json:"kind"`
	Priority string `json:"priority"`
	Crontab  string `json:"crontab,omitempty"`
}

func (s *Server) indexPath() string { return filepath.Join(s.cfg.DataDir, "index.jsonl") }

func entryOf(j *job) indexEntry {
	return indexEntry{
		Seq:      j.item.Seq,
		ID:       j.id,
		Token:    j.item.Token,
		Kind:     j.spec.JobKind(),
		Priority: j.item.Priority.String(),
		Crontab:  j.spec.Crontab,
	}
}

// appendIndexLocked appends the job's identity line to index.jsonl.
// Called under s.mu from submit. Best-effort: the index is derived data
// (the boot rewrite reconstructs it from the spec manifests), so an
// append failure must not fail the admission that already persisted its
// spec.
func (s *Server) appendIndexLocked(j *job) {
	f, err := os.OpenFile(s.indexPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	data, err := json.Marshal(entryOf(j))
	if err != nil {
		return
	}
	f.Write(append(data, '\n'))
}

// rewriteIndex rebuilds index.jsonl from the recovered jobs at boot, in
// Seq order — healing torn tails and folding in manifests written by
// older servers that predate the index.
func (s *Server) rewriteIndex() error {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool {
		if jobs[i].item.Seq != jobs[k].item.Seq {
			return jobs[i].item.Seq < jobs[k].item.Seq
		}
		return jobs[i].id < jobs[k].id
	})
	var buf bytes.Buffer
	for _, j := range jobs {
		data, err := json.Marshal(entryOf(j))
		if err != nil {
			return fmt.Errorf("serve: index: %w", err)
		}
		buf.Write(append(data, '\n'))
	}
	if err := store.WriteFileAtomic(s.indexPath(), buf.Bytes()); err != nil {
		return fmt.Errorf("serve: index: %w", err)
	}
	return nil
}

// List pagination bounds.
const (
	defaultListLimit = 50
	maxListLimit     = 500
)

// JobList is the wire form of GET /v1/jobs: one page of matching jobs in
// admission (Seq) order, plus the cursor for the next page ("" on the
// last page).
type JobList struct {
	Jobs       []JobStatus `json:"jobs"`
	NextCursor string      `json:"nextCursor,omitempty"`
}

// ListQuery are the GET /v1/jobs filters. Zero values mean "no filter".
type ListQuery struct {
	// Token filters by tenant name (not the credential).
	Token string
	// Kind filters by job kind (detect, repair, concur).
	Kind string
	// State filters by job state (queued, running, done, ...).
	State string
	// Crontab filters to the firings of one recurring spec.
	Crontab string
	// Limit caps the page size (0 = defaultListLimit, max maxListLimit).
	Limit int
	// Cursor resumes after the page that returned it.
	Cursor string
}

// listJobs evaluates one ListQuery against the in-memory job set.
func (s *Server) listJobs(q ListQuery) (JobList, error) {
	limit := q.Limit
	if limit <= 0 {
		limit = defaultListLimit
	}
	if limit > maxListLimit {
		limit = maxListLimit
	}
	var cursor uint64
	if q.Cursor != "" {
		c, err := strconv.ParseUint(q.Cursor, 10, 64)
		if err != nil {
			return JobList{}, fmt.Errorf("serve: bad cursor %q", q.Cursor)
		}
		cursor = c
	}
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	statuses := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		statuses = append(statuses, j.status())
	}
	sort.Slice(statuses, func(i, k int) bool {
		if statuses[i].Seq != statuses[k].Seq {
			return statuses[i].Seq < statuses[k].Seq
		}
		return statuses[i].ID < statuses[k].ID
	})
	out := JobList{Jobs: []JobStatus{}}
	for _, st := range statuses {
		if q.Cursor != "" && st.Seq <= cursor {
			continue
		}
		if q.Token != "" && st.Token != q.Token {
			continue
		}
		if q.Kind != "" && st.Spec.JobKind() != q.Kind {
			continue
		}
		if q.State != "" && st.State != q.State {
			continue
		}
		if q.Crontab != "" && st.Spec.Crontab != q.Crontab {
			continue
		}
		if len(out.Jobs) == limit {
			// One past the page: there is a next page, anchored at the
			// last returned Seq.
			out.NextCursor = strconv.FormatUint(out.Jobs[limit-1].Seq, 10)
			return out, nil
		}
		out.Jobs = append(out.Jobs, st)
	}
	return out, nil
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	v := r.URL.Query()
	limit := 0
	if lv := v.Get("limit"); lv != "" {
		n, err := strconv.Atoi(lv)
		if err != nil || n <= 0 {
			writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("bad limit %q", lv)})
			return
		}
		limit = n
	}
	list, err := s.listJobs(ListQuery{
		Token:   v.Get("token"),
		Kind:    v.Get("kind"),
		State:   v.Get("state"),
		Crontab: v.Get("crontab"),
		Limit:   limit,
		Cursor:  v.Get("cursor"),
	})
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, list)
}
