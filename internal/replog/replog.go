// Package replog serializes detection-campaign results as JSON-lines log
// files. The paper's injection wrappers write their atomicity checks to
// log files that are "processed offline to classify each method" (§5.1,
// Step 3); fadetect -log writes this format and fareport replays it
// through the classifier.
package replog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"failatomic/internal/core"
	"failatomic/internal/fault"
	"failatomic/internal/inject"
)

// header is the first log line: campaign-level facts.
type header struct {
	Format      string               `json:"format"`
	Program     string               `json:"program"`
	Lang        string               `json:"lang"`
	Classes     map[string]classInfo `json:"classes"`
	CleanCalls  map[string]int64     `json:"cleanCalls"`
	TotalPoints int                  `json:"totalPoints"`
	Injections  int                  `json:"injections"`
}

type classInfo struct {
	Class string `json:"class"`
	Ctor  bool   `json:"ctor,omitempty"`
}

// runLine is one injector execution as a log line. Readers decode into
// it; writers append the same bytes through appendRunLine, which the
// tests pin against encoding/json on this type. The strategy coordinate
// fields are omitted when empty, so logs and journals of default-sweep
// campaigns are byte-identical to the pre-perturbation format, and legacy
// lines — which never carried them — decode as the default strategy.
type runLine struct {
	InjectionPoint int        `json:"injectionPoint"`
	Strategy       string     `json:"strategy,omitempty"`
	Arg            int        `json:"arg,omitempty"`
	Sched          int        `json:"sched,omitempty"`
	Injected       *excJSON   `json:"injected,omitempty"`
	Escaped        *excJSON   `json:"escaped,omitempty"`
	Marks          []markJSON `json:"marks,omitempty"`
	// Status/Retries/Err record supervisor quarantine outcomes
	// ("hung"/"undetermined"); absent for normal runs.
	Status  string `json:"status,omitempty"`
	Retries int    `json:"retries,omitempty"`
	Err     string `json:"err,omitempty"`
	// Concur is a concurrent schedule's observation record; it is already
	// a pure JSON data type, so it serializes as-is.
	Concur *inject.ConcurOutcome `json:"concur,omitempty"`
}

type excJSON struct {
	Kind     string `json:"kind"`
	Method   string `json:"method"`
	Msg      string `json:"msg,omitempty"`
	Injected bool   `json:"injected,omitempty"`
	Point    int    `json:"point,omitempty"`
	Foreign  bool   `json:"foreign,omitempty"`
	Stack    string `json:"stack,omitempty"`
}

type markJSON struct {
	Method    string   `json:"method"`
	Seq       int      `json:"seq"`
	Atomic    bool     `json:"atomic"`
	Diff      string   `json:"diff,omitempty"`
	Exception *excJSON `json:"exception,omitempty"`
	Masked    bool     `json:"masked,omitempty"`
}

// FormatVersion identifies the log format.
const FormatVersion = "failatomic-log/1"

// maxLogLine is the longest log line Read accepts.
const maxLogLine = 1 << 24

// Write serializes a campaign result as JSON lines, buffered: the header,
// the runs and the sections reach w through one bufio.Writer.
func Write(w io.Writer, res *inject.Result) error {
	classes := make(map[string]classInfo)
	record := func(name string) {
		if _, ok := classes[name]; ok {
			return
		}
		info := res.Program.Registry.Info(name)
		ci := classInfo{Class: res.Program.Registry.ClassOf(name)}
		if info != nil {
			ci.Ctor = info.Ctor
		}
		classes[name] = ci
	}
	for name := range res.CleanCalls {
		record(name)
	}
	for _, run := range res.Runs {
		for _, m := range run.Marks {
			record(m.Method)
		}
	}

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header{
		Format:      FormatVersion,
		Program:     res.Program.Name,
		Lang:        res.Program.Lang,
		Classes:     classes,
		CleanCalls:  res.CleanCalls,
		TotalPoints: res.TotalPoints,
		Injections:  res.Injections,
	}); err != nil {
		return fmt.Errorf("replog: header: %w", err)
	}
	if i, err := writeRunLines(bw, res.Runs); err != nil {
		return fmt.Errorf("replog: run %d: %w", res.Runs[i].InjectionPoint, err)
	}
	// Sections trail the runs. A section line is distinguished by its
	// "section" key, which no run line carries, so pre-section readers
	// that probe before decoding skip nothing by accident.
	for _, sec := range res.Sections {
		if sec.Name == "" {
			return fmt.Errorf("replog: section with empty name")
		}
		if err := enc.Encode(sec); err != nil {
			return fmt.Errorf("replog: section %s: %w", sec.Name, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("replog: %w", err)
	}
	return nil
}

// runFromLine reconstructs one execution from its serialized form.
func runFromLine(line runLine) inject.Run {
	run := inject.Run{
		InjectionPoint: line.InjectionPoint,
		Strategy:       line.Strategy,
		Arg:            line.Arg,
		Sched:          line.Sched,
		Injected:       excFromJSON(line.Injected),
		Escaped:        excFromJSON(line.Escaped),
		Status:         statusFromString(line.Status),
		Retries:        line.Retries,
		Err:            line.Err,
		Concur:         line.Concur,
	}
	for _, m := range line.Marks {
		run.Marks = append(run.Marks, core.Mark{
			Method:    m.Method,
			Seq:       m.Seq,
			Atomic:    m.Atomic,
			Diff:      m.Diff,
			Exception: excFromJSON(m.Exception),
			Masked:    m.Masked,
		})
	}
	return run
}

func statusFromString(s string) inject.RunStatus {
	switch s {
	case inject.RunHung.String():
		return inject.RunHung
	case inject.RunUndetermined.String():
		return inject.RunUndetermined
	default:
		return inject.RunOK
	}
}

// Read reconstructs a campaign result from a JSON-lines log. The returned
// result carries a synthetic Program (no Run function) sufficient for
// classification.
func Read(r io.Reader) (*inject.Result, error) {
	// The scanner's buffer starts at 4 KiB and doubles only as long lines
	// need, up to the line cap.
	scanner := bufio.NewScanner(r)
	scanner.Buffer(nil, maxLogLine)
	if !scanner.Scan() {
		return nil, fmt.Errorf("replog: empty log")
	}
	var hdr header
	if err := json.Unmarshal(scanner.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("replog: header: %w", err)
	}
	if hdr.Format != FormatVersion {
		return nil, fmt.Errorf("replog: unknown format %q", hdr.Format)
	}

	reg := core.NewRegistry()
	for name, ci := range hdr.Classes {
		if ci.Ctor {
			reg.Ctor(ci.Class, name)
			continue
		}
		bare := name
		if i := strings.IndexByte(name, '.'); i >= 0 {
			bare = name[i+1:]
		}
		reg.Method(ci.Class, bare)
	}

	res := &inject.Result{
		Program: &inject.Program{
			Name:     hdr.Program,
			Lang:     hdr.Lang,
			Registry: reg,
		},
		CleanCalls:  hdr.CleanCalls,
		TotalPoints: hdr.TotalPoints,
		Injections:  hdr.Injections,
	}
	for scanner.Scan() {
		if len(scanner.Bytes()) == 0 {
			continue
		}
		// Probe for a section line before decoding a run: sections carry a
		// "section" key no run line has. A line that opens the way every
		// encoded run line does is a run without the probe's decode.
		var probe struct {
			Section *string `json:"section"`
		}
		if !bytes.HasPrefix(scanner.Bytes(), runLinePrefix) &&
			json.Unmarshal(scanner.Bytes(), &probe) == nil && probe.Section != nil {
			var sec inject.Section
			if err := json.Unmarshal(scanner.Bytes(), &sec); err != nil {
				return nil, fmt.Errorf("replog: section line: %w", err)
			}
			res.Sections = append(res.Sections, sec)
			continue
		}
		var line runLine
		if err := json.Unmarshal(scanner.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("replog: run line: %w", err)
		}
		run := runFromLine(line)
		res.Runs = append(res.Runs, run)
		if run.Status != inject.RunOK && run.Key() != (inject.RunKey{}) {
			res.Quarantined = append(res.Quarantined, run.Quarantine())
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("replog: %w", err)
	}
	return res, nil
}

func excFromJSON(e *excJSON) *fault.Exception {
	if e == nil {
		return nil
	}
	return &fault.Exception{
		Kind:     fault.Kind(e.Kind),
		Method:   e.Method,
		Msg:      e.Msg,
		Injected: e.Injected,
		Point:    e.Point,
		Foreign:  e.Foreign,
		Stack:    e.Stack,
	}
}
