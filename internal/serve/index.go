package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
)

// The job index: GET /v1/jobs lists every job the server knows, newest
// admission last, filterable by tenant token name, kind, state and
// crontab, paginated by a Seq cursor. It pages the in-memory job set,
// which boot recovery rebuilds from each job's spec.json and done.json.

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
