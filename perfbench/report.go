package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"unitdb/internal/core/usm"
)

// metricName is the grammar BENCHMARK.json gives metric names: a letter or
// digit, then at most 63 letters, digits, '_', '.' or '-'.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether name is a legal metric name.
func validName(name string) bool { return metricName.MatchString(name) }

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report collects one run's metrics plus the correctness tallies the last
// output line carries.
type Report struct {
	Attempted int
	Failed    int
	Problems  []string // correctness violations; any makes the run incorrect
	Metrics   map[string]Metric
	order     []string
}

func newReport() *Report { return &Report{Metrics: map[string]Metric{}} }

// Set records a metric; a bad name or a non-finite value is a bug in the
// benchmark, not in the program under test.
func (r *Report) Set(name string, value float64, unit string) {
	if !validName(name) {
		panic("perfbench: bad metric name " + strconv.Quote(name))
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		panic(fmt.Sprintf("perfbench: metric %s is %v", name, value))
	}
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = Metric{Value: value, Unit: unit}
}

// Fail records a correctness violation.
func (r *Report) Fail(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Check records a violation when ok is false.
func (r *Report) Check(ok bool, format string, args ...any) {
	if !ok {
		r.Fail(format, args...)
	}
}

// Note prints one human-readable line (never the last line of stdout).
func Note(format string, args ...any) { fmt.Printf(format+"\n", args...) }

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Emit prints every metric by name and unit, any violations, and then the
// result object as the last line of w. keep restricts the JSON metrics to
// the names BENCHMARK.json lists for this mode; every one of them must be
// present.
func (r *Report) Emit(w io.Writer, keep []string) error {
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "metric %-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "VIOLATION %s\n", p)
	}
	out := result{Correct: len(r.Problems) == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]Metric{}}
	for _, name := range keep {
		m, ok := r.Metrics[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		out.Metrics[name] = m
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted and the number of samples ranked beyond it.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	// The epsilon keeps p*n/100 products like 99.9*10000/100 =
	// 9990.000000000002 on their exact rank.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// tailPercentiles are the candidates for "the highest percentile with at
// least ten samples beyond it", highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 90, 50}

// minBeyond is how many samples must rank beyond a reported percentile.
const minBeyond = 10

// tail returns the highest percentile in tailPercentiles that has at
// least minBeyond samples beyond it, with its value; ok is false when not
// even the median qualifies.
func tail(sorted []float64) (p, v float64, ok bool) {
	for _, p := range tailPercentiles {
		if v, beyond := percentile(sorted, p); beyond >= minBeyond {
			return p, v, true
		}
	}
	return 0, 0, false
}

// Dist summarizes a latency sample.
type Dist struct {
	sorted []float64
}

func newDist(xs []float64) Dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Dist{sorted: s}
}

// N is the sample count.
func (d Dist) N() int { return len(d.sorted) }

// P returns the nearest-rank percentile and whether at least minBeyond
// samples rank beyond it (so the percentile is reportable).
func (d Dist) P(p float64) (float64, bool) {
	v, beyond := percentile(d.sorted, p)
	return v, beyond >= minBeyond
}

// Describe renders median, the highest reportable percentile and the
// sample count, scaled by mul into unit.
func (d Dist) Describe(mul float64, unit string) string {
	med, _ := percentile(d.sorted, 50)
	p, v, ok := tail(d.sorted)
	if !ok {
		return fmt.Sprintf("p50 %.4g %s (n=%d, too few samples for a tail)", med*mul, unit, d.N())
	}
	return fmt.Sprintf("p50 %.4g %s, p%s %.4g %s (n=%d)", med*mul, unit, strconv.FormatFloat(p, 'f', -1, 64), v*mul, unit, d.N())
}

// median of an unsorted sample (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, _ := percentile(newDist(xs).sorted, 50)
	return v
}

// eq5 is the User Satisfaction Metric of paper Eq. 5, computed here from
// counts independently of the program's own accounting:
// USM = (S - Cr*R - Cfm*DMF - Cfs*DSF) / N.
func eq5(c usm.Counts, w usm.Weights) float64 {
	n := c.Total()
	if n == 0 {
		return 0
	}
	return (float64(c.Success) - w.Cr*float64(c.Rejected) - w.Cfm*float64(c.DMF) - w.Cfs*float64(c.DSF)) / float64(n)
}

// ladderMax climbs rates in ascending order and returns the highest rate
// that passes before the first failing one (0 when the lowest fails),
// plus how many rungs were run. The ladder stops at the first failure: a
// rate beyond the knee is not tried, so a lucky pass above a failure never
// counts.
func ladderMax(rates []float64, pass func(rate float64) bool) (best float64, tried int) {
	for _, r := range rates {
		tried++
		if !pass(r) {
			break
		}
		best = r
	}
	return best, tried
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
