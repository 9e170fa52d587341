// Campaign journal: the crash-safe half of the log pipeline. While a
// campaign runs, every completed run is appended to a journal file the
// moment it finishes — one JSON line per run, in completion order, each
// written with a single write so a kill can tear at most the final line.
// After a crash, ResumeJournal recovers every intact line (dropping a
// torn tail), and the campaign splices the recovered runs instead of
// re-executing them; the final point-ordered log is then rewritten whole
// by Write, so an interrupted-and-resumed campaign produces a log
// byte-identical to an uninterrupted one over a deterministic workload.
package replog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"failatomic/internal/inject"
)

// JournalFormatVersion identifies the journal format (distinct from the
// final log format: journals are completion-ordered and header-light).
const JournalFormatVersion = "failatomic-journal/1"

// journalHeader is the journal's first line. Seed is recorded only by
// schedule-dependent (seeded) campaigns; the zero value is omitted, so
// journals of plain detect campaigns stay byte-identical to the
// pre-seed format and legacy journals decode as seed 0.
type journalHeader struct {
	Format  string `json:"format"`
	Program string `json:"program"`
	Lang    string `json:"lang,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
}

// Journal is an open, append-only campaign journal. Append is safe for
// concurrent use by parallel campaign workers.
type Journal struct {
	mu  sync.Mutex
	f   *os.File
	buf []byte // the line being appended, reused under mu
}

// CreateJournal starts a fresh journal at path, truncating any previous
// one, and writes its header.
func CreateJournal(path, program, lang string) (*Journal, error) {
	return CreateJournalSeeded(path, program, lang, 0)
}

// CreateJournalSeeded is CreateJournal for a schedule-dependent campaign:
// the campaign seed is recorded in the header so a resume under a
// different seed is rejected instead of splicing runs from a different
// schedule plan. Seed 0 (the single-threaded campaigns) keeps the legacy
// header bytes.
func CreateJournalSeeded(path, program, lang string, seed int64) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("replog: journal: %w", err)
	}
	hdr, err := json.Marshal(journalHeader{Format: JournalFormatVersion, Program: program, Lang: lang, Seed: seed})
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("replog: journal header: %w", err)
	}
	if _, err := f.Write(append(hdr, '\n')); err != nil {
		f.Close()
		return nil, fmt.Errorf("replog: journal header: %w", err)
	}
	return &Journal{f: f}, nil
}

// ResumeJournal reopens the journal at path for a crash-safe resume. It
// returns the runs recovered from intact lines, keyed by run key (first
// occurrence wins; legacy lines carry no strategy coordinate and decode
// as the default strategy), truncates a torn tail so subsequent appends
// leave a clean file, and positions the journal for appending. A missing
// file starts a fresh journal with an empty recovery — so "-resume" is
// safe on the first run too. A journal written for a different program is
// rejected.
func ResumeJournal(path, program, lang string) (map[inject.RunKey]inject.Run, *Journal, error) {
	return ResumeJournalSeeded(path, program, lang, 0)
}

// ResumeJournalSeeded is ResumeJournal for a schedule-dependent campaign:
// a journal recorded under a different seed is rejected with a clear
// error, since its runs belong to a different schedule plan and splicing
// them would corrupt the campaign.
func ResumeJournalSeeded(path, program, lang string, seed int64) (map[inject.RunKey]inject.Run, *Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if os.IsNotExist(err) {
		j, cerr := CreateJournalSeeded(path, program, lang, seed)
		return map[inject.RunKey]inject.Run{}, j, cerr
	}
	if err != nil {
		return nil, nil, fmt.Errorf("replog: journal: %w", err)
	}

	r := bufio.NewReader(f)
	hdrLine, err := r.ReadBytes('\n')
	if err != nil {
		// No complete header: treat as an empty journal and start over.
		f.Close()
		j, cerr := CreateJournalSeeded(path, program, lang, seed)
		return map[inject.RunKey]inject.Run{}, j, cerr
	}
	var hdr journalHeader
	if jerr := json.Unmarshal(hdrLine, &hdr); jerr != nil || hdr.Format != JournalFormatVersion {
		f.Close()
		return nil, nil, fmt.Errorf("replog: %s is not a %s journal", path, JournalFormatVersion)
	}
	if hdr.Program != program {
		f.Close()
		return nil, nil, fmt.Errorf("replog: journal %s was written for program %q, not %q", path, hdr.Program, program)
	}
	if hdr.Seed != seed {
		f.Close()
		return nil, nil, fmt.Errorf("replog: journal %s was recorded under seed %d, but this campaign runs seed %d; its runs belong to a different schedule plan — delete the journal or rerun with -seed %d", path, hdr.Seed, seed, hdr.Seed)
	}

	runs := make(map[inject.RunKey]inject.Run)
	offset := int64(len(hdrLine))
	for {
		line, rerr := r.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			f.Close()
			return nil, nil, fmt.Errorf("replog: journal: %w", rerr)
		}
		// A line is intact only if newline-terminated and parseable;
		// anything else is a torn tail from the crash — drop it and let
		// the campaign re-run that experiment.
		var rl runLine
		if rerr == io.EOF || json.Unmarshal(line, &rl) != nil {
			break
		}
		offset += int64(len(line))
		run := runFromLine(rl)
		if _, seen := runs[run.Key()]; !seen {
			runs[run.Key()] = run
		}
	}
	if err := f.Truncate(offset); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("replog: journal truncate: %w", err)
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("replog: journal seek: %w", err)
	}
	return runs, &Journal{f: f}, nil
}

// Append journals one completed run. The line reaches the kernel in a
// single write before Append returns, so a killed process loses at most
// the run in flight (fsync is deferred to Close: journals protect against
// process death, not power loss). The line is encoded under the journal
// mutex into a buffer the journal reuses, so concurrent appenders take
// turns encoding as well as writing.
func (j *Journal) Append(run inject.Run) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("replog: journal run %s: journal is closed", run.Key())
	}
	buf, err := appendRunLine(j.buf[:0], &run)
	if err != nil {
		return fmt.Errorf("replog: journal run %s: %w", run.Key(), err)
	}
	j.buf = append(buf, '\n')
	if _, err := j.f.Write(j.buf); err != nil {
		return fmt.Errorf("replog: journal run %s: %w", run.Key(), err)
	}
	return nil
}

// Close syncs and closes the journal file. The file itself is left on
// disk; the caller removes it once the final log is safely written.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	f := j.f
	j.f = nil
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
