package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// quantile returns the q-quantile of vals by linear interpolation between
// closest ranks; 0 for an empty slice.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func sum(vals []float64) float64 {
	total := 0.0
	for _, v := range vals {
		total += v
	}
	return total
}

// geomean is the geometric mean of the positive values; 0 when none.
func geomean(vals []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vals {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// usage is the process's CPU time so far and its peak resident set.
func usage() (cpu time.Duration, peakRSSBytes int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	// Linux reports ru_maxrss (the VmHWM of the process) in KiB.
	return cpu, int64(ru.Maxrss) * 1024
}

func cpuTime() time.Duration {
	cpu, _ := usage()
	return cpu
}

// totalAlloc is the number of heap bytes allocated so far.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// refNominal is a reference slice's time on the host the bounds were
// calibrated on, at its usual speed. Timings are reported scaled to it:
// "ms on a host where a reference slice takes refNominal".
const refNominal = 500 * time.Microsecond

// norm scales d, measured while a reference slice took ref, to a host on
// which it takes refNominal.
func norm(d, ref time.Duration) time.Duration {
	if ref <= 0 {
		return d
	}
	return time.Duration(float64(d) * float64(refNominal) / float64(ref))
}

// refSink keeps the reference's results alive.
var refSink int

type refNode struct {
	left, right *refNode
	key         int
	name        string
}

type refRecord struct {
	ID    int               `json:"id"`
	Name  string            `json:"name"`
	Calls []int             `json:"calls"`
	Tags  map[string]string `json:"tags"`
}

// refSlice times one slice of a fixed workload that uses only the
// standard library — allocation, pointer chasing, maps, sorting and JSON,
// like the campaign layers — so its time follows the host's speed while
// no change to the repository's code paths can move it.
func refSlice() time.Duration {
	start := time.Now()
	rng := rand.New(rand.NewSource(1))
	var root *refNode
	for i := 0; i < 1000; i++ {
		n := &refNode{key: rng.Intn(1 << 30)}
		n.name = strconv.Itoa(n.key)
		link := &root
		for *link != nil {
			if n.key < (*link).key {
				link = &(*link).left
			} else {
				link = &(*link).right
			}
		}
		*link = n
	}
	index := make(map[string]int)
	var walk func(*refNode)
	walk = func(n *refNode) {
		if n != nil {
			walk(n.left)
			index[n.name] = n.key
			walk(n.right)
		}
	}
	walk(root)
	names := make([]string, 0, len(index))
	for name := range index {
		names = append(names, name)
	}
	sort.Strings(names)
	recs := make([]refRecord, 50)
	for i := range recs {
		recs[i] = refRecord{ID: i, Name: names[i], Calls: []int{i, i + 1, i + 2}, Tags: map[string]string{"k": names[i]}}
	}
	// Neither call can fail: the records hold only strings, ints, slices
	// and string maps, and the decoder reads the encoder's own output.
	data, _ := json.Marshal(recs)
	var back []refRecord
	_ = json.Unmarshal(data, &back)
	refSink += len(back)
	return time.Since(start)
}

// probeEvery is how often a prober samples the host while an operation
// runs; a slice costs about a fortieth of that.
const probeEvery = 20 * time.Millisecond

// prober samples the host's speed around and during an operation. The
// host's speed swings within seconds, so a reference taken only next to
// a long operation misjudges it; slices taken throughout it do not.
type prober struct {
	last  time.Time
	n     int
	total time.Duration
}

// newProber takes n slices at once.
func newProber(n int) *prober {
	p := &prober{}
	for i := 0; i < n; i++ {
		p.take()
	}
	return p
}

func (p *prober) take() time.Duration {
	d := refSlice()
	p.total += d
	p.n++
	p.last = time.Now()
	return d
}

// sample takes a slice if probeEvery has passed since the last one and
// returns its time, or 0.
func (p *prober) sample() time.Duration {
	if time.Since(p.last) < probeEvery {
		return 0
	}
	return p.take()
}

// ref is the mean slice time.
func (p *prober) ref() time.Duration {
	if p.n == 0 {
		return 0
	}
	return p.total / time.Duration(p.n)
}
