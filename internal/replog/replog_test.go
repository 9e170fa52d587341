package replog

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"failatomic/internal/apps"
	"failatomic/internal/detect"
	"failatomic/internal/inject"
)

func campaign(t testing.TB) *inject.Result {
	t.Helper()
	app, ok := apps.ByName("Dynarray")
	if !ok {
		t.Fatal("Dynarray app missing")
	}
	res, err := inject.Campaign(context.Background(), app.Build(), inject.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRoundTripPreservesClassification(t *testing.T) {
	res := campaign(t)
	var buf bytes.Buffer
	if err := Write(&buf, res); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Program.Name != "Dynarray" || loaded.Program.Lang != "java" {
		t.Fatalf("program identity lost: %+v", loaded.Program)
	}
	if loaded.TotalPoints != res.TotalPoints || loaded.Injections != res.Injections {
		t.Fatal("campaign statistics lost")
	}
	if len(loaded.Runs) != len(res.Runs) {
		t.Fatalf("runs %d != %d", len(loaded.Runs), len(res.Runs))
	}

	orig := detect.Classify(res, detect.Options{})
	replayed := detect.Classify(loaded, detect.Options{})
	if len(orig.Methods) != len(replayed.Methods) {
		t.Fatalf("method counts differ: %d != %d", len(orig.Methods), len(replayed.Methods))
	}
	for name, rep := range orig.Methods {
		got := replayed.Methods[name]
		if got == nil {
			t.Fatalf("method %s lost", name)
		}
		if got.Classification != rep.Classification {
			t.Errorf("%s: %v != %v", name, got.Classification, rep.Classification)
		}
		if got.Class != rep.Class || got.Calls != rep.Calls {
			t.Errorf("%s: metadata differs", name)
		}
	}
}

func TestRoundTripExceptionFree(t *testing.T) {
	res := campaign(t)
	var buf bytes.Buffer
	if err := Write(&buf, res); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	opts := detect.Options{ExceptionFree: map[string]bool{"Dynarray.screen": true}}
	orig := detect.Classify(res, opts)
	replayed := detect.Classify(loaded, opts)
	for name, rep := range orig.Methods {
		if replayed.Methods[name].Classification != rep.Classification {
			t.Errorf("%s: hint replay differs", name)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Fatal("empty log must error")
	}
	if _, err := Read(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage header must error")
	}
	if _, err := Read(strings.NewReader(`{"format":"other/9"}` + "\n")); err == nil {
		t.Fatal("unknown format must error")
	}
	if _, err := Read(strings.NewReader(`{"format":"failatomic-log/1"}` + "\nnope\n")); err == nil {
		t.Fatal("garbage run line must error")
	}
}
