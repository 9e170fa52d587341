package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// childEnv makes the test binary run the named workloads instead of the
// tests: each workload runs for about a second with tracing on and prints
// its full result as one JSON line.
const childEnv = "BENCHMARK_TEST_WORKLOADS"

func TestMain(m *testing.M) {
	if names := os.Getenv(childEnv); names != "" {
		os.Exit(runChild(strings.Split(names, ","), os.Getenv("BENCHMARK_TEST_DIR")))
	}
	os.Exit(m.Run())
}

func runChild(names []string, dir string) int {
	want, err := loadExpected()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	cfg := config{seed: 7, seconds: 1, trace: true, setups: 1,
		traceOut: filepath.Join(dir, "traces"), work: filepath.Join(dir, "work")}
	for _, name := range names {
		w, ok := workloadByName(name)
		if !ok {
			fmt.Fprintln(os.Stderr, "unknown workload", name)
			return 1
		}
		res, err := runWorkload(context.Background(), w, cfg, want, io.Discard)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
	}
	return 0
}

// benchmarkSpec is the part of BENCHMARK.json the test pins.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloads runs every workload briefly, traced, in two child
// processes at once (sessions are process-global, so workloads in one
// process run one after another), and checks what they print.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := workloadNames(); got != strings.Join(names, ", ") {
		t.Fatalf("workloads %s, BENCHMARK.json names %v", got, names)
	}

	dir := t.TempDir()
	groups := [][]string{{"campaign-heavy"}, {"eval-suite", "masked-run", "service"}}
	outs := make([]bytes.Buffer, len(groups))
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for i, g := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cmd := exec.Command(os.Args[0], "-test.run=^$")
			cmd.Env = append(os.Environ(), childEnv+"="+strings.Join(g, ","), "BENCHMARK_TEST_DIR="+dir)
			cmd.Stdout = &outs[i]
			cmd.Stderr = os.Stderr
			errs[i] = cmd.Run()
		}()
	}
	wg.Wait()

	seen := make(map[string]bool)
	for i := range groups {
		if errs[i] != nil {
			t.Fatalf("workloads %v: %v", groups[i], errs[i])
		}
		for _, line := range strings.Split(strings.TrimSpace(outs[i].String()), "\n") {
			var res result
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatalf("bad result line %q: %v", line, err)
			}
			seen[res.Workload] = true
			if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
				t.Errorf("%s: attempted %d, failed %d, correct %v", res.Workload, res.Attempted, res.Failed, res.Correct)
			}
			sameMetrics(t, res.Workload+" end-to-end", res.EndToEnd, spec.EndToEnd)
			sameMetrics(t, res.Workload+" per-layer", res.PerLayer, spec.PerLayer)
			checkTrace(t, filepath.Join(dir, "traces", res.Workload+".trace.json"))
		}
	}
	for _, name := range names {
		if !seen[name] {
			t.Errorf("workload %s printed no result", name)
		}
	}
}

// sameMetrics checks that the printed metrics are exactly the ones
// BENCHMARK.json names, with the same units.
func sameMetrics(t *testing.T, what string, got map[string]metric, want []metricSpec) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json has %d", what, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: %s not printed", what, m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("%s: %s printed in %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		}
	}
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(tr.Spans) == 0 {
		t.Errorf("%s: no spans", path)
	}
	for _, s := range tr.Spans {
		if s.Self < 0 || s.End < s.Start {
			t.Errorf("%s: span %s [%d, %d] has self time %d", path, s.Name, s.Start, s.End, s.Self)
		}
	}
}

// TestOracleMatchesGoldens pins the committed digests to the repository's
// golden files.
func TestOracleMatchesGoldens(t *testing.T) {
	want, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGoldens(want, ".."); err != nil {
		t.Fatal(err)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "bench.op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "inject.campaign", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "replog.append", Start: 50, End: 70},
		{ID: 4, Parent: 2, Name: "replog.append", Start: 20, End: 30},
	}
	want := []int64{100 - 60, 50 - 10, 20, 10}
	for i, s := range tr.finish() {
		if s.Self != want[i] {
			t.Errorf("%s: self %d, want %d", s.Name, s.Self, want[i])
		}
	}
	shares := layerShares(tr.spans)
	if shares["replog"] != 30 || shares["inject"] != 40 || shares["bench"] != 40 {
		t.Errorf("layer shares %v", shares)
	}
}
