package replog

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"failatomic/internal/inject"
)

// TestChunkHeaderDoesNotSizeAllocation: a chunk header is untrusted (a
// worker upload), so a declared run count far beyond the body must fail
// as a truncation, not size an allocation up front.
func TestChunkHeaderDoesNotSizeAllocation(t *testing.T) {
	for _, runs := range []string{"1000000000000000", "20000000"} {
		hdr := `{"format":"` + ChunkFormatVersion + `","runs":` + runs + "}\n"
		if _, err := DecodeChunk(strings.NewReader(hdr)); err == nil || !strings.Contains(err.Error(), "truncated at run 1") {
			t.Fatalf("runs=%s: err = %v, want a truncation at run 1", runs, err)
		}
	}
}

func runKeys(runs []inject.Run) []inject.RunKey {
	keys := make([]inject.RunKey, len(runs))
	for i, r := range runs {
		keys[i] = r.Key()
	}
	return keys
}

// smallSeed keeps the first three runs and the first run of each
// strategy: real run shapes, small enough for the fuzzer to mutate and
// minimize quickly.
func smallSeed(runs []inject.Run) []inject.Run {
	var out []inject.Run
	seen := map[string]bool{}
	for _, r := range runs {
		if !seen[r.Strategy] || len(out) < 3 {
			seen[r.Strategy] = true
			out = append(out, r)
		}
	}
	return out
}

// FuzzDecodeChunk: the coordinator decodes worker uploads with
// DecodeChunk/DecodeChunkRuns. Neither may panic on any input, and a
// chunk they accept re-encodes to a chunk that decodes to the same run
// keys.
func FuzzDecodeChunk(f *testing.F) {
	for _, runs := range [][]inject.Run{chunkRuns(), smallSeed(perturbedRuns(f))} {
		var buf bytes.Buffer
		if err := EncodeChunk(&buf, runs); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"format":"` + ChunkFormatVersion + `","runs":1000000000000000}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		runs, err := DecodeChunk(bytes.NewReader(data))
		byKey, mapErr := DecodeChunkRuns(data)
		if (err == nil) != (mapErr == nil) {
			t.Fatalf("DecodeChunk err %v, DecodeChunkRuns err %v", err, mapErr)
		}
		if err != nil {
			return
		}
		for _, k := range runKeys(runs) {
			if _, ok := byKey[k]; !ok {
				t.Fatalf("DecodeChunkRuns lost run %s", k)
			}
		}
		var re bytes.Buffer
		if err := EncodeChunk(&re, runs); err != nil {
			t.Fatalf("accepted chunk does not re-encode: %v", err)
		}
		again, err := DecodeChunk(&re)
		if err != nil {
			t.Fatalf("re-encoded chunk does not decode: %v", err)
		}
		if !reflect.DeepEqual(runKeys(again), runKeys(runs)) {
			t.Fatalf("run keys changed across re-encoding: %v != %v", runKeys(again), runKeys(runs))
		}
	})
}

// FuzzRead: Read parses logs from disk and from worker uploads (a
// completed job's log), so it must not panic on any input, and a log it
// accepts writes back to a log that reads to the same run keys. Seeds: a
// detect campaign's log and the concur golden's (schedule runs and a
// report section), each cut to a few runs.
func FuzzRead(f *testing.F) {
	golden, err := os.ReadFile("../../testdata/golden/linkedlist-concur.log.json")
	if err != nil {
		f.Fatal(err)
	}
	concur, err := Read(bytes.NewReader(golden))
	if err != nil {
		f.Fatal(err)
	}
	for _, res := range []*inject.Result{campaign(f), concur} {
		res.Runs = smallSeed(res.Runs)
		var buf bytes.Buffer
		if err := Write(&buf, res); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var re bytes.Buffer
		if err := Write(&re, res); err != nil {
			t.Fatalf("accepted log does not write back: %v", err)
		}
		again, err := Read(&re)
		if err != nil {
			t.Fatalf("written-back log does not read: %v", err)
		}
		if !reflect.DeepEqual(runKeys(again.Runs), runKeys(res.Runs)) {
			t.Fatalf("run keys changed across write-back: %v != %v", runKeys(again.Runs), runKeys(res.Runs))
		}
	})
}
