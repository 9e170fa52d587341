package replog

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"failatomic/internal/apps"
	"failatomic/internal/concur"
	"failatomic/internal/core"
	"failatomic/internal/fault"
	"failatomic/internal/inject"
)

// runToLine converts one execution to runLine, the type readers decode
// into. json.Marshal of its result is the reference appendRunLine must
// reproduce byte for byte.
func runToLine(run inject.Run) runLine {
	line := runLine{
		InjectionPoint: run.InjectionPoint,
		Strategy:       run.Strategy,
		Arg:            run.Arg,
		Sched:          run.Sched,
		Injected:       excToJSON(run.Injected),
		Escaped:        excToJSON(run.Escaped),
		Retries:        run.Retries,
		Err:            run.Err,
		Concur:         run.Concur,
	}
	if run.Status != inject.RunOK {
		line.Status = run.Status.String()
	}
	if len(run.Marks) > 0 {
		line.Marks = make([]markJSON, 0, len(run.Marks))
	}
	for _, m := range run.Marks {
		line.Marks = append(line.Marks, markJSON{
			Method:    m.Method,
			Seq:       m.Seq,
			Atomic:    m.Atomic,
			Diff:      m.Diff,
			Exception: excToJSON(m.Exception),
			Masked:    m.Masked,
		})
	}
	return line
}

func excToJSON(e *fault.Exception) *excJSON {
	if e == nil {
		return nil
	}
	return &excJSON{
		Kind:     string(e.Kind),
		Method:   e.Method,
		Msg:      e.Msg,
		Injected: e.Injected,
		Point:    e.Point,
		Foreign:  e.Foreign,
		Stack:    e.Stack,
	}
}

// checkLine fails unless appendRunLine encodes run exactly as
// json.Marshal encodes runToLine(run).
func checkLine(t testing.TB, run inject.Run) {
	t.Helper()
	want, err := json.Marshal(runToLine(run))
	if err != nil {
		t.Fatal(err)
	}
	got, err := appendRunLine([]byte("prefix"), &run)
	if err != nil {
		t.Fatalf("run %s: %v", run.Key(), err)
	}
	if !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("run %s encodes differently from encoding/json:\n got %s\nwant %s", run.Key(), got[len("prefix"):], want)
	}
}

// quarantinedRuns runs a Dynarray campaign whose run at one point hangs
// past RunTimeout and whose run at another panics with a foreign value,
// and returns the two quarantined runs: real supervisor Err texts and a
// real normalized crash stack (tabs, newlines, file:line).
func quarantinedRuns(t *testing.T) []inject.Run {
	t.Helper()
	const hang, crash = 3, 5
	app, _ := apps.ByName("Dynarray")
	p := app.Build()
	gate := make(chan struct{})
	t.Cleanup(func() { close(gate) }) // release the abandoned goroutine
	inner := p.Run
	p.Run = func() {
		defer func() {
			r := recover()
			if e, ok := r.(*fault.Exception); ok && e.Injected && e.Point == hang {
				<-gate
			}
			if e, ok := r.(*fault.Exception); ok && e.Injected && e.Point == crash {
				panic("crash <&>\t\u2028\n\xff")
			}
			if r != nil {
				panic(r)
			}
		}()
		inner()
	}
	res, err := inject.Campaign(context.Background(), p, inject.Options{RunTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var out []inject.Run
	for _, run := range res.Runs {
		if run.Status != inject.RunOK {
			out = append(out, run)
		}
	}
	if len(out) != 2 || out[0].Status != inject.RunHung || out[1].Status != inject.RunUndetermined {
		t.Fatalf("want one hung and one undetermined run, got %+v", out)
	}
	return out
}

// TestRunLinesMatchJSON: every run of every bundled app — detection and
// a masked re-campaign of its non-atomic methods — of a concur campaign,
// and of a supervisor-quarantined campaign encodes to the same bytes
// encoding/json produces for runLine.
func TestRunLinesMatchJSON(t *testing.T) {
	lines, masked := 0, 0
	for _, app := range apps.All() {
		res, err := inject.Campaign(context.Background(), app.Build(), inject.Options{})
		if err != nil {
			t.Fatal(err)
		}
		mask := map[string]bool{}
		for _, run := range res.Runs {
			for _, m := range run.Marks {
				if !m.Atomic {
					mask[m.Method] = true
				}
			}
		}
		remasked, err := inject.Campaign(context.Background(), app.Build(), inject.Options{Mask: mask})
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range append(res.Runs, remasked.Runs...) {
			checkLine(t, run)
			for _, m := range run.Marks {
				if m.Masked {
					masked++
				}
			}
		}
		lines += len(res.Runs) + len(remasked.Runs)
	}
	if masked == 0 {
		t.Fatal("no masked marks: the re-campaigns exercised no masking")
	}
	target, ok := concur.ByName("LinkedList")
	if !ok {
		t.Fatal("LinkedList concurrent target missing")
	}
	cres, err := concur.Campaign(context.Background(), &target, concur.Options{Workers: 4, Schedules: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range cres.Inject.Runs {
		if run.Concur == nil {
			t.Fatalf("concur run %s carries no outcome", run.Key())
		}
		checkLine(t, run)
	}
	for _, run := range quarantinedRuns(t) {
		checkLine(t, run)
	}
	for _, run := range chunkRuns() {
		checkLine(t, run)
	}
	t.Logf("%d app run lines (%d masked marks) byte-identical", lines, masked)
}

// FuzzRunLineEncoding: arbitrary strings and ints in every field encode
// exactly as encoding/json does.
func FuzzRunLineEncoding(f *testing.F) {
	f.Add("", "alloc", "Set.Insert", "", "", "size 3 != 2", "", 2, 0, 0, 1, 0, 0, true, false)
	f.Add("burst", "IOException", "A.<init>", "msg \"q\" \\ <&>", "f()\n\tx.go:3", "[0].next: \u2028 \u2029 \xff\xfe", "run exceeded RunTimeout 30ms", -7, 12, 3, 1<<40, 2, 1, false, true)
	f.Add("\x00\x1f\x7f", "\b\f\r", "\u00e9", "\xe2\x80", "ok", "\U0001F600", "\t", 0, -1, 1, -1<<62, 9, -3, true, true)
	f.Fuzz(func(t *testing.T, strategy, kind, method, msg, stack, diff, errText string,
		point, arg, sched, seq, status, retries int, flag, masked bool) {
		exc := &fault.Exception{Kind: fault.Kind(kind), Method: method, Msg: msg, Injected: flag, Point: point, Foreign: !flag, Stack: stack}
		checkLine(t, inject.Run{
			InjectionPoint: point,
			Strategy:       strategy,
			Arg:            arg,
			Sched:          sched,
			Injected:       exc,
			Escaped:        &fault.Exception{Kind: fault.Kind(msg), Method: stack, Point: seq},
			Marks: []core.Mark{
				{Method: method, Seq: seq, Atomic: flag, Diff: diff, Exception: exc, Masked: masked},
				{Method: diff, Seq: -seq, Atomic: !flag, Masked: !masked},
			},
			Status:  inject.RunStatus(status),
			Retries: retries,
			Err:     errText,
		})
		checkLine(t, inject.Run{InjectionPoint: arg, Err: errText, Marks: []core.Mark{}})
	})
}

// richRun has every field the steady-state journal path encodes: a
// strategy coordinate, both exceptions and marks with a diff and an
// exception.
func richRun() inject.Run {
	exc := &fault.Exception{Kind: "alloc", Method: "RBMap.put", Msg: "injected <alloc>", Injected: true, Point: 17}
	return inject.Run{
		InjectionPoint: 17,
		Strategy:       "nth",
		Arg:            2,
		Injected:       exc,
		Escaped:        exc,
		Marks: []core.Mark{
			{Method: "RBMap.fixAfterInsertion", Seq: 1, Atomic: true, Exception: exc},
			{Method: "RBMap.put", Seq: 2, Diff: "root.left.color: true != false", Exception: exc, Masked: true},
		},
	}
}

// TestJournalAppendAllocs: a steady-state Append encodes into the
// journal's reused buffer and writes it, allocating nothing. (A run with
// a Concur record is exempt: that field goes through encoding/json.)
func TestJournalAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds allocations; exact counts only hold without -race")
	}
	j, err := CreateJournal(filepath.Join(t.TempDir(), "c.journal"), "RBMap", "java")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	run := richRun()
	appendRun := func() {
		if err := j.Append(run); err != nil {
			t.Fatal(err)
		}
	}
	appendRun()
	if allocs := testing.AllocsPerRun(200, appendRun); allocs != 0 {
		t.Fatalf("Journal.Append = %v allocs per run, want 0", allocs)
	}
}

// TestWriteLogAllocs: Write's allocations do not grow with the number of
// runs — the run lines share one buffer and one bufio.Writer — so a log
// of four times the runs (same methods, same longest line) allocates no
// more than the original.
func TestWriteLogAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds allocations; exact counts only hold without -race")
	}
	res := campaign(t)
	big := *res
	for i := 0; i < 4; i++ {
		big.Runs = append(big.Runs, res.Runs...)
	}
	allocs := func(res *inject.Result) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := Write(io.Discard, res); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(res), allocs(&big)
	if large > small {
		t.Fatalf("Write of %d runs = %v allocs, of %d runs = %v; want no growth with the run count", len(res.Runs), small, len(big.Runs), large)
	}
}

// TestLongLines: a run whose diff is 2 MiB round-trips through the log,
// the journal and a chunk — the readers' buffers grow past their small
// initial size — while Read still rejects a line over its 16 MiB cap.
func TestLongLines(t *testing.T) {
	long := richRun()
	long.Marks[1].Diff = strings.Repeat("node.next.", 2<<20/10)
	runs := []inject.Run{richRun(), long, {InjectionPoint: 18}}
	for i := range runs {
		runs[i].InjectionPoint = i + 1
	}
	res := &inject.Result{Program: &inject.Program{Name: "RBMap", Lang: "java", Registry: core.NewRegistry()}, Runs: runs}

	var log bytes.Buffer
	if err := Write(&log, res); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&log)
	if err != nil {
		t.Fatalf("Read of a 2 MiB line: %v", err)
	}
	if !reflect.DeepEqual(got.Runs, runs) {
		t.Fatal("log round-trip changed the runs")
	}

	path := filepath.Join(t.TempDir(), "c.journal")
	j, err := CreateJournal(path, "RBMap", "java")
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, runs)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, j2, err := ResumeJournal(path, "RBMap", "java")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	for _, run := range runs {
		if !reflect.DeepEqual(recovered[run.Key()], run) {
			t.Fatalf("journal resume changed run %s", run.Key())
		}
	}

	var chunk bytes.Buffer
	if err := EncodeChunk(&chunk, runs); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeChunk(&chunk)
	if err != nil {
		t.Fatalf("DecodeChunk of a 2 MiB line: %v", err)
	}
	if !reflect.DeepEqual(decoded, runs) {
		t.Fatal("chunk round-trip changed the runs")
	}

	huge := `{"format":"` + FormatVersion + `"}` + "\n" + `{"injectionPoint":1,"err":"` + strings.Repeat("x", maxLogLine) + `"}` + "\n"
	if _, err := Read(strings.NewReader(huge)); err == nil || !strings.Contains(err.Error(), "too long") {
		t.Fatalf("Read of a line over %d bytes: err = %v, want a too-long rejection", maxLogLine, err)
	}
}

// TestWritersShareOneLineEncoding: the journal, the final log and a chunk
// carry the same bytes for every run line.
func TestWritersShareOneLineEncoding(t *testing.T) {
	res := campaign(t)
	var log, chunk bytes.Buffer
	if err := Write(&log, res); err != nil {
		t.Fatal(err)
	}
	if err := EncodeChunk(&chunk, res.Runs); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c.journal")
	j, err := CreateJournal(path, "Dynarray", "java")
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, res.Runs)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := func(data []byte) []byte { return data[bytes.IndexByte(data, '\n')+1:] }
	journal := body(data)
	if !bytes.Equal(body(chunk.Bytes()), journal) || !bytes.HasPrefix(body(log.Bytes()), journal) {
		t.Fatal("journal, log and chunk run lines differ")
	}
}
