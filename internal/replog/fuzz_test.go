package replog

import (
	"bytes"
	"os"
	"path/filepath"
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

// FuzzResumeJournal: a resume reads whatever a crashed or foreign process
// left on disk under the journal's name, so ResumeJournalSeeded must not
// panic on any file. A journal it accepts must stay appendable, and
// resuming it again must return the same runs plus the appended one.
// Seeds: a real seeded journal intact, with a torn last line, under a
// foreign header, and recorded for another program and another seed.
func FuzzResumeJournal(f *testing.F) {
	const program, lang, seed = "Dynarray", "java", 7
	runs := smallSeed(campaign(f).Runs)
	journal := func(program string, seed int64) []byte {
		path := filepath.Join(f.TempDir(), "seed.journal")
		j, err := CreateJournalSeeded(path, program, lang, seed)
		if err != nil {
			f.Fatal(err)
		}
		for _, run := range runs {
			if err := j.Append(run); err != nil {
				f.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	intact := journal(program, seed)
	body := intact[bytes.IndexByte(intact, '\n')+1:]
	last := bytes.LastIndexByte(intact[:len(intact)-1], '\n') + 1
	f.Add(intact)
	f.Add(intact[:last+(len(intact)-last)/2])
	f.Add(append([]byte(`{"format":"failatomic-log/1","program":"Dynarray"}`+"\n"), body...))
	f.Add(journal("RBMap", seed))
	f.Add(journal(program, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "c.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		runs, j, err := ResumeJournalSeeded(path, program, lang, seed)
		if err != nil {
			return
		}
		extra := inject.Run{InjectionPoint: 1}
		for _, seen := runs[extra.Key()]; seen; _, seen = runs[extra.Key()] {
			extra.InjectionPoint++
		}
		if err := j.Append(extra); err != nil {
			t.Fatalf("accepted journal does not append: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		again, j2, err := ResumeJournalSeeded(path, program, lang, seed)
		if err != nil {
			t.Fatalf("appended journal does not resume: %v", err)
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		if _, ok := again[extra.Key()]; !ok || len(again) != len(runs)+1 {
			t.Fatalf("second resume recovered %d runs (appended %s present: %v), want %d", len(again), extra.Key(), ok, len(runs)+1)
		}
		for key, run := range runs {
			if !reflect.DeepEqual(again[key], run) {
				t.Fatalf("run %s changed across the second resume:\n got %+v\nwant %+v", key, again[key], run)
			}
		}
	})
}
