package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"failatomic/internal/apps"
)

// expectedJSON maps each checked output to its SHA-256 digest (masked
// call counts are stored as decimal numbers).
//
//go:embed testdata/expected.json
var expectedJSON []byte

// expectedPath is where -regen-expected writes, relative to the
// repository root.
const expectedPath = "benchmark/testdata/expected.json"

func loadExpected() (map[string]string, error) {
	var m map[string]string
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedPath, err)
	}
	return m, nil
}

// goldenChecks pin the oracle to the repository's committed goldens:
// the benchmark's RBMap Repeats=2 log is the fadetect CI golden, and the
// service's concur job stores exactly the fadetect -concur outputs.
var goldenChecks = map[string]string{
	"campaign/RBMap/r2/log":        "testdata/golden/rbmap.log.json",
	"job/concur/LinkedList/report": "testdata/golden/linkedlist-concur.txt",
	"job/concur/LinkedList/log":    "testdata/golden/linkedlist-concur.log.json",
}

// checkGoldens compares digests with the golden files under root.
func checkGoldens(digests map[string]string, root string) error {
	for key, path := range goldenChecks {
		data, err := os.ReadFile(filepath.Join(root, path))
		if err != nil {
			return err
		}
		if digests[key] != sha(data) {
			return fmt.Errorf("%s does not match %s", key, path)
		}
	}
	return nil
}

// regenerate runs every operation of every workload once, cross-checks
// the digests against the goldens and against local campaigns, and
// rewrites the expected file.
func regenerate(ctx context.Context, cfg config, log io.Writer) error {
	cfg.seconds, cfg.setups, cfg.trace = 0, 1, false
	got := make(map[string]string)
	for _, w := range workloads() {
		res, err := runWorkload(ctx, w, cfg, nil, log)
		if err != nil {
			return err
		}
		if res.Failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
		}
		for k, v := range res.digests {
			got[k] = v
		}
	}
	// A detect job must store what the same local campaign prints.
	cfg.workload = "regen"
	b, err := newBench(ctx, cfg, nil, log)
	if err != nil {
		return err
	}
	defer os.RemoveAll(b.dir)
	for _, name := range serviceApps() {
		app, _ := apps.ByName(name)
		if _, _, err := b.campaign(app, 1, nil, "regen"); err != nil {
			return err
		}
		for _, part := range []string{"report", "log"} {
			local := b.got[fmt.Sprintf("campaign/%s/r1/%s", name, part)]
			if job := got[fmt.Sprintf("job/detect/%s/%s", name, part)]; job != local {
				return fmt.Errorf("faserve job %s %s differs from the local campaign", name, part)
			}
		}
	}
	if err := checkGoldens(got, "."); err != nil {
		return err
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(expectedPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(log, "wrote %d digests to %s\n", len(got), expectedPath)
	return nil
}
