package apps

import (
	"context"
	"testing"

	"failatomic/internal/detect"
	"failatomic/internal/inject"
)

// TestBurstFlipsPushReliably pins the perturbation models' reason to
// exist on a bundled application: AdaptorChain.PushReliably retries a
// failed push after advancing the chain's failure count, so the
// single-fault first-activation sweep classifies it failure atomic (the
// caught fault is retried to success), while the burst model — whose
// second fault strikes during the retry — unwinds out of it with the
// bookkeeping half-applied and classifies it pure failure non-atomic.
func TestBurstFlipsPushReliably(t *testing.T) {
	const method = "AdaptorChain.PushReliably"
	app, ok := ByName("adaptorChain")
	if !ok {
		t.Fatal("adaptorChain missing")
	}
	res, err := inject.Campaign(context.Background(), app.Build(), inject.Options{
		// The full pair grid: the flip pairs (first fault in the initial
		// attempt, second in the retry) are a sliver of the pair space, so
		// the pinned demonstration must not depend on stride sampling.
		Perturbations: []inject.Perturbation{inject.Burst{Budget: 1 << 20}},
	})
	if err != nil {
		t.Fatal(err)
	}

	base := detect.Classify(res, detect.Options{})
	rep := base.Methods[method]
	if rep == nil {
		t.Fatalf("%s not observed by the campaign", method)
	}
	if rep.Classification != detect.ClassAtomic {
		t.Fatalf("baseline %s = %s, want failure atomic", method, rep.Classification)
	}

	burst := detect.ClassifyStrategy(res, detect.Options{}, "burst")
	brep := burst.Methods[method]
	if brep == nil {
		t.Fatalf("%s not observed under burst", method)
	}
	if brep.Classification != detect.ClassPure {
		t.Fatalf("burst %s = %s, want pure failure non-atomic", method, brep.Classification)
	}
	if brep.SampleDiff == "" {
		t.Fatal("burst flip must carry a sample graph diff")
	}
}

// TestNthIsASubsetOfTheDefaultSweep: the nth-activation grid revisits
// dynamic (site, activation) pairs the exhaustive default sweep already
// covers one global point at a time, so it can never flip a method *to*
// non-atomic — it exists as a site-stable coordinate system (activation
// ordinals survive point-numbering drift), not as extra coverage.
func TestNthIsASubsetOfTheDefaultSweep(t *testing.T) {
	app, ok := ByName("adaptorChain")
	if !ok {
		t.Fatal("adaptorChain missing")
	}
	res, err := inject.Campaign(context.Background(), app.Build(), inject.Options{
		Perturbations: []inject.Perturbation{inject.NthActivation{N: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := detect.Classify(res, detect.Options{})
	nth := detect.ClassifyStrategy(res, detect.Options{}, "nth")
	for name, rep := range nth.Methods {
		if rep.Classification == detect.ClassAtomic {
			continue
		}
		b := base.Methods[name]
		if b == nil || b.Classification == detect.ClassAtomic {
			t.Errorf("%s non-atomic under nth but atomic in the exhaustive sweep", name)
		}
	}
}
