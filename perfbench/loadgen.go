package main

import (
	"math"
	"sort"
	"time"

	"unitdb/internal/stats"
)

// poissonDue returns the due offsets of an open-loop Poisson arrival
// process at rate per second over d: independent users, each request sent
// on schedule whether or not earlier ones have been answered.
func poissonDue(rng *stats.RNG, rate float64, d time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return due
		}
		due = append(due, at)
	}
}

// periodicDue returns evenly spaced due offsets at rate per second over d.
func periodicDue(rate float64, d time.Duration) []time.Duration {
	n := int(rate * d.Seconds())
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return due
}

// paceOpenLoop calls dispatch(i) for every i at start+due[i], in order,
// from the calling goroutine, and returns how late each dispatch ran.
// dispatch must not block: it hands the request to a new goroutine.
func paceOpenLoop(start time.Time, due []time.Duration, dispatch func(i int)) []time.Duration {
	late := make([]time.Duration, len(due))
	for i, d := range due {
		at := start.Add(d)
		sleepUntil(at)
		late[i] = time.Since(at)
		dispatch(i)
	}
	return late
}

// The generator keeps to its schedule when its median lateness stays
// under lateP50Bound (it is not falling behind) and its p99 under
// lateP99Bound (it is not frozen for long). A phase outside either bound
// describes the generator, not the server, and its figures are refused.
// The p99 bound is loose because stalls of the shared machine freeze the
// whole process, generator and server alike, for several milliseconds.
const (
	lateP50Bound = time.Millisecond
	lateP99Bound = 50 * time.Millisecond
)

// lateness summarizes how late a phase's dispatches ran.
type lateness struct {
	p50, p99 time.Duration
}

func summarizeLate(late []time.Duration) lateness {
	xs := make([]float64, len(late))
	for i, l := range late {
		xs[i] = float64(l)
	}
	sort.Float64s(xs)
	p50, _ := percentile(xs, 50)
	p99, _ := percentile(xs, 99)
	return lateness{p50: time.Duration(p50), p99: time.Duration(p99)}
}

// ok reports whether the generator kept to its schedule.
func (l lateness) ok() bool { return l.p50 <= lateP50Bound && l.p99 <= lateP99Bound }

func (l lateness) String() string {
	return "generator late p50 " + l.p50.String() + " p99 " + l.p99.String()
}

// zipfItems draws k distinct Zipf-skewed items.
func zipfItems(z *stats.Zipf, k int) []int {
	items := make([]int, 0, k)
	for len(items) < k {
		it := z.Next()
		dup := false
		for _, x := range items {
			dup = dup || x == it
		}
		if !dup {
			items = append(items, it)
		}
	}
	return items
}

// tailPct is the tail percentile the end-to-end latency metrics report.
// It is p90, not p99: on the 2-vCPU VM the benchmark was sized on, host
// and garbage-collector stalls moved live-read's p99 between 0.3 and 4.8
// ms from run to run, while p90 held within about a tenth. The printed
// lines add the highest percentile with at least ten samples beyond it.
const tailPct = 90.0

// latencyWindows is how many consecutive windows live-read's nominal
// phase is cut into; its percentiles are medians over the windows, so one
// stall of the shared machine moves one window, not the figure.
const latencyWindows = 16

// windowedP50Tail cuts lat (in schedule order) into latencyWindows
// consecutive windows and returns the median over windows of each
// window's p50 and tailPct percentile. ok is false when a window is too
// small for its tail percentile to have minBeyond samples beyond it.
func windowedP50Tail(lat []time.Duration) (p50, tail float64, ok bool) {
	var m50, mt []float64
	ok = true
	for w := 0; w < latencyWindows; w++ {
		d := newDist(durations(lat[w*len(lat)/latencyWindows : (w+1)*len(lat)/latencyWindows]))
		a, _ := d.P(50)
		b, enough := d.P(tailPct)
		ok = ok && enough
		m50, mt = append(m50, a), append(mt, b)
	}
	return median(m50), median(mt), ok
}
