package replog

import (
	"context"
	"io"
	"path/filepath"
	"testing"

	"failatomic/internal/apps"
	"failatomic/internal/inject"
)

// regExpResult runs RegExp at Repeats=2, the heaviest app of the
// benchmark's campaign-heavy workload, for the journal-append and
// log-write layer benchmarks.
func regExpResult(b *testing.B) *inject.Result {
	b.Helper()
	app, ok := apps.ByName("RegExp")
	if !ok {
		b.Fatal("RegExp missing")
	}
	res, err := inject.Campaign(context.Background(), app.Build(), inject.Options{Repeats: 2})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkJournalAppend: one op journals one run, cycling through the
// campaign's runs. The journal restarts after each full pass (off the
// clock) so the file stays one campaign long.
func BenchmarkJournalAppend(b *testing.B) {
	runs := regExpResult(b).Runs
	path := filepath.Join(b.TempDir(), "c.journal")
	var j *Journal
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(runs) == 0 {
			b.StopTimer()
			if j != nil {
				j.Close()
			}
			var err error
			if j, err = CreateJournal(path, "RegExp", "java"); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := j.Append(runs[i%len(runs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	j.Close()
}

// BenchmarkWriteLog: one op writes the campaign's whole final log.
func BenchmarkWriteLog(b *testing.B) {
	res := regExpResult(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Write(io.Discard, res); err != nil {
			b.Fatal(err)
		}
	}
}
