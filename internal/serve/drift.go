package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"time"

	"failatomic/internal/detect"
	"failatomic/internal/replog"
)

// The server-side drift gate: when a detect job completes, its fresh
// classification is compared against the last stored done run of the same
// spec. A divergence finalizes the job in StateDrifted (exit-code
// ExitDrift) with its log and report stored like a done job's — the
// regression tripped, but the evidence is retrievable. The gate is the
// service-side twin of fareport -diff-against: instead of a checked-in
// golden, the golden is whatever this server last accepted for the spec.
//
// Only clean StateDone runs advance the index, so a drifted run never
// becomes the new baseline; repair jobs are exempt (their report already
// embeds its own verification).

// doneRun is one drift-gate baseline: the stored log of the most recent
// clean done run of a spec.
type doneRun struct {
	logSHA string
	at     time.Time
}

// driftKey canonicalizes a spec: two jobs drift-compare only when their
// full spec (app, kind, every semantic campaign knob) encodes identically.
// The kind is normalized so "" and "detect" share a baseline. Priority
// and Parallelism are stripped: the first chooses when a job runs, the
// second how fast it runs, and neither what it computes (campaign output
// is byte-identical across worker counts). So a spec fadetect -server
// submits with its -parallel value compares against the same spec sent
// as bare JSON. A "snapshot" key from an older client never reaches the
// key: JobSpec has no such field, so decoding drops it.
// Crontab stays: each recurring spec owns its own baseline series, which
// is what chains successive firings into a longitudinal regression gate.
func driftKey(spec JobSpec) string {
	spec.Kind = spec.JobKind()
	spec.Priority = ""
	spec.Parallelism = 0
	b, _ := json.Marshal(spec)
	return string(b)
}

// noteLastDone advances the spec's baseline, keeping the newest.
func (s *Server) noteLastDone(spec JobSpec, logSHA string, at time.Time) {
	key := driftKey(spec)
	s.mu.Lock()
	if prev, ok := s.lastDone[key]; !ok || !at.Before(prev.at) {
		s.lastDone[key] = doneRun{logSHA: logSHA, at: at}
	}
	s.mu.Unlock()
}

// driftAgainstLast compares the fresh classification with the spec's
// baseline run, returning the divergences (nil when there is no baseline,
// the baseline's log is gone from the store, or nothing drifted).
func (s *Server) driftAgainstLast(spec JobSpec, fresh *detect.Classification) []string {
	s.mu.Lock()
	prev, ok := s.lastDone[driftKey(spec)]
	s.mu.Unlock()
	if !ok {
		return nil
	}
	data, err := s.store.Get(prev.logSHA)
	if err != nil {
		// The baseline was GC'd out from under the index; the next clean
		// run re-establishes it.
		return nil
	}
	prevRes, err := replog.Read(bytes.NewReader(data))
	if err != nil {
		return nil
	}
	return detect.Drift(fresh, detect.Classify(prevRes, detect.Options{}))
}

// classifyLog derives a classification from a stored or uploaded replog,
// or nil if the log is unreadable.
func classifyLog(log []byte) *detect.Classification {
	res, err := replog.Read(bytes.NewReader(log))
	if err != nil {
		return nil
	}
	return detect.Classify(res, detect.Options{})
}

// driftMessage folds the divergence lines into the job's error field.
func driftMessage(lines []string) string {
	return "classification drifted from the last stored run of this spec: " + strings.Join(lines, "; ")
}
