package objgraph

import (
	"math/rand"
	"sync"
	"testing"
)

// Test graph shapes for the incremental-cache properties. Three families
// stress the three cache tiers: a linked list of framed payloads (leaf
// replay), a binary search tree (structural rehash, no large leaves), and
// a flat payload struct (single dominant leaf).

type fpList struct {
	V       int
	Payload []byte
	Next    *fpList
}

func genList(r *rand.Rand, n int) *fpList {
	var head *fpList
	for i := 0; i < n; i++ {
		p := make([]byte, 2048)
		r.Read(p)
		head = &fpList{V: r.Int(), Payload: p, Next: head}
	}
	return head
}

type fpTree struct {
	Key         int
	Red         bool
	Left, Right *fpTree
}

func genBST(r *rand.Rand, n int) *fpTree {
	var root *fpTree
	var insert func(t *fpTree, k int) *fpTree
	insert = func(t *fpTree, k int) *fpTree {
		if t == nil {
			return &fpTree{Key: k, Red: k%2 == 0}
		}
		if k < t.Key {
			t.Left = insert(t.Left, k)
		} else {
			t.Right = insert(t.Right, k)
		}
		return t
	}
	for i := 0; i < n; i++ {
		root = insert(root, r.Intn(1<<20))
	}
	return root
}

type fpFlat struct {
	Name string
	Blob []byte
	Seq  uint64
}

func genFlat(r *rand.Rand, n int) *fpFlat {
	b := make([]byte, n)
	r.Read(b)
	return &fpFlat{Name: "payload", Blob: b, Seq: r.Uint64()}
}

// mutate applies one random in-place mutation to whichever graph family
// root points at, mirroring the session-visible state classes.
func mutateGraph(r *rand.Rand, root any) {
	switch g := root.(type) {
	case *fpList:
		n := g
		for i := r.Intn(8); i > 0 && n.Next != nil; i-- {
			n = n.Next
		}
		switch r.Intn(3) {
		case 0:
			n.V++
		case 1:
			n.Payload[r.Intn(len(n.Payload))] ^= 0xff
		default:
			n.Next = &fpList{V: -1, Payload: []byte("fresh"), Next: n.Next}
		}
	case *fpTree:
		n := g
		for n.Left != nil && r.Intn(2) == 0 {
			n = n.Left
		}
		switch r.Intn(3) {
		case 0:
			n.Key++
		case 1:
			n.Red = !n.Red
		default:
			n.Right = &fpTree{Key: -1, Left: n.Right}
		}
	case *fpFlat:
		switch r.Intn(3) {
		case 0:
			g.Blob[r.Intn(len(g.Blob))]++
		case 1:
			g.Seq++
		default:
			g.Name += "x"
		}
	}
}

// TestFPCachePropertyMutationSequences is the satellite property test:
// over random mutation sequences, the cached fingerprint equals the cold
// fingerprint at every step, and fingerprint equality tracks Capture
// equality against the pre-mutation baseline.
func TestFPCachePropertyMutationSequences(t *testing.T) {
	r := rand.New(rand.NewSource(0x5eed))
	graphs := []struct {
		name string
		root any
	}{
		{"linked-list", genList(r, 16)},
		{"bst", genBST(r, 64)},
		{"flat-payload", genFlat(r, 8192)},
	}
	for _, g := range graphs {
		t.Run(g.name, func(t *testing.T) {
			c := NewFPCache(0)
			base := Capture(g.root)
			baseFP := Fingerprint(g.root)
			if got := FingerprintCached(c, g.root); got != baseFP {
				t.Fatalf("initial cached fp %x != cold %x", got, baseFP)
			}
			for step := 0; step < 40; step++ {
				mutateGraph(r, g.root)
				// The session contract: every mutation window is preceded
				// by a generation bump.
				c.Bump()
				cold := Fingerprint(g.root)
				cached := FingerprintCached(c, g.root)
				if cached != cold {
					t.Fatalf("step %d: cached fp %x != cold %x", step, cached, cold)
				}
				// Replay from a warm cache must agree too.
				if again := FingerprintCached(c, g.root); again != cold {
					t.Fatalf("step %d: warm replay %x != cold %x", step, again, cold)
				}
				now := Capture(g.root)
				if Equal(base, now) != (cold == baseFP) {
					t.Fatalf("step %d: capture-equality %v disagrees with fp-equality %v",
						step, Equal(base, now), cold == baseFP)
				}
			}
		})
	}
}

// TestFPCacheConcurrentSessions runs independent caches over a shared
// read-only graph from many goroutines, under -race: caches are
// per-session, so no sharing may occur through the graph itself.
func TestFPCacheConcurrentSessions(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	shared := genList(r, 32)
	want := Fingerprint(shared)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := NewFPCache(0)
			for i := 0; i < 50; i++ {
				if got := FingerprintCached(c, shared); got != want {
					t.Errorf("worker %d iter %d: fp %x != cold %x", w, i, got, want)
					return
				}
				if i%10 == 9 {
					c.Bump()
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestFPCachePooledEncoderReuse interleaves global multi-root calls over
// aliased roots with framed single-root calls: pooled encoders must come
// back reset, leaving no state leak that could perturb a later
// fingerprint.
func TestFPCachePooledEncoderReuse(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	a, b := genList(r, 8), genBST(r, 32)
	cleanWant := Fingerprint(a)
	aliasWant := Fingerprint(a, b, a)
	c := NewFPCache(0)
	for i := 0; i < 20; i++ {
		if got := FingerprintCached(c, a, b, a); got != aliasWant {
			t.Fatalf("iter %d: aliased fp %x != %x", i, got, aliasWant)
		}
		if got := FingerprintCached(c, a); got != cleanWant {
			t.Fatalf("iter %d: clean fp %x != %x", i, got, cleanWant)
		}
		if got := Fingerprint(a); got != cleanWant {
			t.Fatalf("iter %d: uncached fp %x != %x after aborted frames", i, got, cleanWant)
		}
	}
}

// TestFPCacheBudget: a tiny budget blocks new leaf pinning — Bytes stays
// within budget and fingerprints remain correct, just uncached.
func TestFPCacheBudget(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	root := genFlat(r, 64<<10)
	want := Fingerprint(root)
	c := NewFPCache(16) // far below the 64 KiB leaf
	for i := 0; i < 5; i++ {
		// Bump so the (byte-free) root-frame cache cannot hit; only an
		// admitted leaf could, and the budget forbids admitting one.
		c.Bump()
		if got := FingerprintCached(c, root); got != want {
			t.Fatalf("iter %d: fp %x != %x under tiny budget", i, got, want)
		}
	}
	st := c.Stats()
	if st.Bytes > 16 {
		t.Errorf("cache pinned %d bytes > budget 16", st.Bytes)
	}
	if st.Hits != 0 {
		t.Errorf("hits = %d, want 0 (nothing should have been admitted)", st.Hits)
	}
}

// TestFPCacheStatsMove: a warm replay over an unchanged graph registers
// hits; a bumped generation with a real mutation registers fresh misses.
func TestFPCacheStatsMove(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	root := genFlat(r, 8<<10)
	c := NewFPCache(0)
	FingerprintCached(c, root)
	cold := c.Stats()
	if cold.Misses == 0 {
		t.Fatal("cold call recorded no misses")
	}
	FingerprintCached(c, root)
	warm := c.Stats()
	if warm.Hits <= cold.Hits {
		t.Errorf("warm replay did not hit: %+v -> %+v", cold, warm)
	}
	if warm.Bytes <= 0 {
		t.Errorf("warm Bytes = %d, want > 0", warm.Bytes)
	}
}

// TestFPCacheSteadyStateZeroAlloc: warm cached fingerprints of an
// unchanged graph allocate nothing, same as the uncached guarantee in
// TestFingerprintZeroAlloc.
func TestFPCacheSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds allocations; exact counts only hold without -race")
	}
	r := rand.New(rand.NewSource(53))
	root := genFlat(r, 32<<10)
	c := NewFPCache(0)
	FingerprintCached(c, root) // populate
	if n := testing.AllocsPerRun(100, func() { FingerprintCached(c, root) }); n != 0 {
		t.Errorf("warm cached fingerprint allocates %v/op, want 0", n)
	}
}

// TestFPCacheGenerationInvalidation: without a Bump, the single-root
// frame cache replays the stale digest by contract (the session always
// bumps before mutating); with a Bump it re-hashes and sees the change.
func TestFPCacheGenerationInvalidation(t *testing.T) {
	root := &fpTree{Key: 1}
	c := NewFPCache(0)
	before := FingerprintCached(c, root)
	root.Key = 2
	if got := FingerprintCached(c, root); got != before {
		t.Fatalf("unbumped mutation was observed: %x != %x (gen gate broken)", got, before)
	}
	c.Bump()
	after := FingerprintCached(c, root)
	if after == before {
		t.Fatal("bumped mutation not observed")
	}
	if want := Fingerprint(root); after != want {
		t.Fatalf("post-bump fp %x != cold %x", after, want)
	}
}
