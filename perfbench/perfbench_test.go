package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"unitdb/internal/core/usm"
	"unitdb/internal/workload"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n          int
		p          float64
		want       float64
		wantBeyond int
	}{
		{100, 50, 50, 50},
		{100, 99, 99, 1},
		{100, 100, 100, 0},
		{1000, 99, 990, 10},
		{10, 1, 1, 9},
		{1, 99, 1, 0},
	} {
		v, beyond := percentile(seq(c.n), c.p)
		if v != c.want || beyond != c.wantBeyond {
			t.Errorf("n=%d p%g = %v (%d beyond), want %v (%d beyond)", c.n, c.p, v, beyond, c.want, c.wantBeyond)
		}
	}
	if v, beyond := percentile(nil, 50); v != 0 || beyond != 0 {
		t.Errorf("empty sample: %v, %d", v, beyond)
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64 // 0: not even a median
	}{
		{10000, 99.9}, // rank 9990, 10 beyond
		{9999, 99},    // p99.9 would leave 9 beyond
		{1000, 99},    // rank 990, 10 beyond
		{999, 90},
		{100, 90},
		{20, 50},
		{19, 0},
	} {
		p, _, ok := tail(seq(c.n))
		if (c.want == 0) == ok || (ok && p != c.want) {
			t.Errorf("n=%d: tail p%g ok=%v, want p%g", c.n, p, ok, c.want)
		}
	}
	if _, ok := newDist(seq(999)).P(99); ok {
		t.Error("p99 of 999 samples has only 9 beyond and must not be reportable")
	}
	if _, ok := newDist(seq(1000)).P(99); !ok {
		t.Error("p99 of 1000 samples has 10 beyond and must be reportable")
	}
}

func TestWindowedPercentilesIgnoreOneBadWindow(t *testing.T) {
	lat := make([]time.Duration, latencyWindows*1000)
	for i := range lat {
		lat[i] = time.Duration(i%100+1) * time.Microsecond
	}
	for i := 1000; i < 3000; i++ { // two windows stall
		lat[i] = time.Second
	}
	p50, tail, ok := windowedP50Tail(lat)
	if !ok || p50 != float64(50*time.Microsecond) || tail != float64(90*time.Microsecond) {
		t.Errorf("p50 %v p90 %v ok=%v, want 50µs 90µs true", time.Duration(p50), time.Duration(tail), ok)
	}
	if _, _, ok := windowedP50Tail(lat[:latencyWindows*99]); ok {
		t.Error("99-sample windows leave 9 samples beyond p90 and must not be reportable")
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !validName(m.name) {
			t.Errorf("invalid metric name %q", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric %q defined twice", m.name)
		}
		seen[m.name] = true
		if m.unit == "" || len(m.unit) > 16 {
			t.Errorf("metric %q: bad unit %q", m.name, m.unit)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer, %d end-to-end metrics exceed BENCHMARK.json's limits", len(perLayer), len(endToEnd))
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "p99%", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	for _, good := range []string{"setup_s", "cpu_share.core_ufm", "policy.self_s.QMF", "9lives", strings.Repeat("a", 64)} {
		if !validName(good) {
			t.Errorf("%q rejected", good)
		}
	}
}

func TestEmitRequiresEveryMetric(t *testing.T) {
	r := newReport()
	r.Set("a", 1.5, "s")
	var buf bytes.Buffer
	if err := r.Emit(&buf, []string{"a", "b"}); err == nil {
		t.Fatal("missing metric b was not reported")
	}
	buf.Reset()
	r.Fail("broken %d", 7)
	if err := r.Emit(&buf, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, `{"correct":false,`) || !strings.Contains(last, `"a":{"value":1.5,"unit":"s"}`) {
		t.Errorf("last line %s", last)
	}
}

func TestEq5(t *testing.T) {
	w := usm.Weights{Cr: 0.2, Cfm: 0.8, Cfs: 0.2}
	c := usm.Counts{Success: 60, Rejected: 20, DMF: 10, DSF: 10}
	if got, want := eq5(c, w), (60-0.2*20-0.8*10-0.2*10)/100.0; got != want {
		t.Errorf("eq5 = %v, want %v", got, want)
	}
	if eq5(usm.Counts{}, w) != 0 {
		t.Error("no outcomes must give 0")
	}
	// The benchmark's own Eq. 5 agrees with the program's.
	for _, c := range []usm.Counts{{Success: 1}, {Rejected: 1}, {Success: 3, Rejected: 5, DMF: 7, DSF: 11}, {Success: 1000, Rejected: 1, DMF: 22, DSF: 333}} {
		if got, want := eq5(c, w), c.USM(w); got != want {
			t.Errorf("%+v: eq5 %v, usm.Counts.USM %v", c, got, want)
		}
	}
}

func TestLadderMax(t *testing.T) {
	rates := []float64{1, 2, 3, 4, 5}
	upTo := func(limit float64) func(float64) bool { return func(r float64) bool { return r <= limit } }
	for _, c := range []struct {
		pass      func(float64) bool
		best      float64
		wantTried int
	}{
		{upTo(3), 3, 4},
		{upTo(10), 5, 5},
		{upTo(0), 0, 1},
		// A pass above the first failure never counts.
		{func(r float64) bool { return r != 2 }, 1, 2},
	} {
		best, tried := ladderMax(rates, c.pass)
		if best != c.best || tried != c.wantTried {
			t.Errorf("best %v tried %d, want %v tried %d", best, tried, c.best, c.wantTried)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"unitdb/internal/core/admission.(*Controller).Admit":   "unitdb/internal/core/admission",
		"unitdb/internal/baseline/qmf.(*QMF).recomputeDropSet": "unitdb/internal/baseline/qmf",
		"encoding/json.(*encodeState).marshal":                 "encoding/json",
		"runtime.mallocgc":                                     "runtime",
		"sort.Slice":                                           "sort",
		"main.(*timedPolicy).AdmitQuery":                       "main",
		"unitdb/internal/engine.(*Engine).Run.func1":           "unitdb/internal/engine",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		want  string
		funcs []string // leaf first
	}{
		{"baseline_qmf", []string{"reflect.Swapper.func1", "sort.insertionSort_func", "sort.Slice", "unitdb/internal/baseline/qmf.(*QMF).recomputeDropSet", "unitdb/internal/engine.(*Engine).Run"}},
		{"runtime_gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{"runtime_gc", []string{"runtime.memmove", "runtime.gcAssistAlloc", "runtime.mallocgc", "unitdb/internal/engine.(*Engine).dispatch"}},
		{"engine", []string{"runtime.mapaccess1", "unitdb/internal/engine.(*Engine).finalizeQuery"}},
		{"core_ufm", []string{"unitdb/internal/core/ufm.(*Modulator).OnUpdate", "unitdb/internal/core.(*UNIT).OnSourceUpdate", "main.(*timedPolicy).OnSourceUpdate", "unitdb/internal/engine.(*Engine).updateArrival"}},
		{"tracing", []string{"time.Now", "main.(*timedPolicy).AdmitQuery", "unitdb/internal/engine.(*Engine).queryArrival"}},
		{"tracing", []string{"runtime.growslice", "main.(*latencyPolicy).OnQueryDone", "unitdb/internal/engine.(*Engine).finalizeQuery"}},
		{"encoding_json", []string{"encoding/json.(*encodeState).marshal", "unitdb/internal/server.writeJSON", "unitdb/internal/server.(*httpAPI).handleQuery", "net/http.(*conn).serve"}},
		{"loadgen", []string{"encoding/json.Unmarshal", "main.(*readWorker).do", "main.(*readClient).run.func1"}},
		{"loadgen", []string{"syscall.Syscall", "internal/poll.(*FD).Read", "net/http.ReadResponse", "main.(*readWorker).do"}},
		{"syscall", []string{"syscall.Syscall", "internal/poll.(*FD).Write", "net.(*conn).Write", "net/http.(*response).finishRequest", "net/http.(*conn).serve"}},
		{"server", []string{"sync.(*Mutex).Lock", "unitdb/internal/server.(*Server).queryCtx", "main.(*overPhase).run.func1.1"}},
		{"loadgen", []string{"runtime.newproc", "main.(*overPhase).run.func1"}},
		{"obs", []string{"unitdb/internal/obs/metrics.(*Histogram).Observe", "unitdb/internal/server.(*serverObs).observeQuery"}},
		{"other", []string{"runtime.futex", "runtime.notesleep", "runtime.schedule"}},
	} {
		if got := classify(c.funcs); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.funcs, got, c.want)
		}
	}
}

func TestCPUSharesSumToOne(t *testing.T) {
	samples := []stack{
		{funcs: []string{"unitdb/internal/eventsim.(*Sim).Run"}, values: []int64{3, 30}},
		{funcs: []string{"runtime.gcBgMarkWorker"}, values: []int64{1, 10}},
		{funcs: []string{"runtime.futex"}, values: []int64{6, 60}},
	}
	s := cpuShares(samples)
	if len(s) != len(cpuLayers) {
		t.Fatalf("%d shares for %d layers", len(s), len(cpuLayers))
	}
	if s["eventsim"] != 0.3 || s["runtime_gc"] != 0.1 || s["other"] != 0.6 {
		t.Errorf("shares %v", s)
	}
	if ns := mutexWaitNS([]stack{
		{funcs: []string{"sync.(*Mutex).Unlock", "unitdb/internal/server.(*Server).worker"}, values: []int64{2, 500}},
		{funcs: []string{"sync.(*Mutex).Unlock", "main.x"}, values: []int64{1, 70}},
	}, "unitdb/internal/server"); ns != 500 {
		t.Errorf("server mutex wait %v, want 500", ns)
	}
}

// TestParseProfileRoundTrip decodes a real runtime/pprof profile: this
// goroutine's own frames must come back by name, leaf first.
func TestParseProfileRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if len(s.values) != 1 || s.values[0] < 1 {
			t.Errorf("goroutine sample values %v", s.values)
		}
		for i, fn := range s.funcs {
			if fn == "unitdb/perfbench.TestParseProfileRoundTrip" || fn == "main.TestParseProfileRoundTrip" {
				found = true
				if i == 0 || i+1 >= len(s.funcs) || s.funcs[i+1] != "testing.tRunner" {
					t.Errorf("frames not leaf first: %v", s.funcs)
				}
			}
		}
	}
	if !found {
		t.Errorf("this test's frame is missing from %d samples", len(samples))
	}
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("garbage accepted")
	}
}

// TestSimPassMatchesExperiments pins the sim-repro harness to the
// experiments package: the forwarding wrappers (plain and timed) must not
// change a single Result against RunCellNamed, at reduced scale.
func TestSimPassMatchesExperiments(t *testing.T) {
	cfg := simConfig(7, 0)
	cfg.Query = workload.SmallQueryConfig()
	traces, err := simTraces(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traces = traces[:1]
	var lat []float64
	plain, _, _, err := simPass(cfg, traces, &lat, false, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	timed, _, _, err := simPass(cfg, traces, &lat, true, newSpanLog(), false)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResults(plain, timed) {
		t.Error("timed wrapper changed the Results")
	}
	for _, c := range plain {
		want, err := cfg.RunCellNamed("fig4", c.name, traces[0], c.policy, usm.Weights{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c.res, want) {
			t.Errorf("%s: harness Results differ from experiments.RunCellNamed", c.name)
		}
	}
	for _, c := range timed {
		if c.hooks.admitQuery.calls == 0 || c.mallocs == 0 {
			t.Errorf("%s: traced pass recorded no hooks or allocations", c.name)
		}
	}
	if len(lat) == 0 {
		t.Error("no committed-query latencies recorded")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program reports in step: same names, same units, same order.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	type def struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	unitGrammar := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, c := range []struct {
		got  []def
		want []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.got), len(c.want))
		}
		for i, g := range c.got {
			if g.Name != c.want[i].name || g.Unit != c.want[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, g.Name, g.Unit, c.want[i].name, c.want[i].unit)
			}
			if !unitGrammar.MatchString(g.Unit) || (g.Better != "lower" && g.Better != "higher") {
				t.Errorf("metric %s: unit %q better %q", g.Name, g.Unit, g.Better)
			}
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, allWorkloads) {
		t.Errorf("workloads %v, program runs %v", names, allWorkloads)
	}
}
