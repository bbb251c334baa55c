package qmf

import (
	"math"
	"sort"
	"sync"
	"testing"

	"unitdb/internal/core/usm"
	"unitdb/internal/engine"
	"unitdb/internal/stats"
	"unitdb/internal/txn"
	"unitdb/internal/workload"
)

func smallTrace(t *testing.T, v workload.Volume) *workload.Workload {
	t.Helper()
	qc := workload.SmallQueryConfig()
	qc.NumQueries = 2500
	qc.Duration = 10000
	q, err := workload.GenerateQueries(qc, 42)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.GenerateUpdates(q, workload.DefaultUpdateConfig(v, workload.Uniform), 43)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestQMFEndToEnd(t *testing.T) {
	w := smallTrace(t, workload.Med)
	p := New(DefaultConfig())
	e, err := engine.New(engine.NewConfig(w, usm.Weights{}, 7), p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Counts.Total() != len(w.Queries) {
		t.Fatalf("outcome conservation: %d != %d", r.Counts.Total(), len(w.Queries))
	}
	// QMF's defining profile (paper §4.5): a distinctly high rejection
	// ratio under overload while some queries still succeed.
	if r.RejectionRatio < 0.2 {
		t.Fatalf("QMF rejection ratio %.3f; expected its conservative shedding", r.RejectionRatio)
	}
	if r.Counts.Success == 0 {
		t.Fatal("QMF succeeded on nothing at med volume")
	}
}

func TestQMFKnobsMove(t *testing.T) {
	w := smallTrace(t, workload.Med)
	p := New(DefaultConfig())
	e, err := engine.New(engine.NewConfig(w, usm.Weights{}, 7), p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The admit fraction recovers to 1 during the trace's drain, so assert
	// on the visible effect instead: the probabilistic gate rejected a
	// substantial share of queries mid-run.
	if r.Counts.Rejected == 0 {
		t.Fatal("QMF's admission gate never engaged")
	}
}

func TestQMFAdmissionGateIsProbabilistic(t *testing.T) {
	p := New(DefaultConfig())
	w := smallTrace(t, workload.Low)
	if _, err := engine.New(engine.NewConfig(w, usm.Weights{}, 7), p); err != nil {
		t.Fatal(err)
	}
	p.admitFrac = 0.5
	admits := 0
	q := txn.NewQuery(1, 0, []int{0}, 1, 10, 0.9)
	for i := 0; i < 2000; i++ {
		if p.AdmitQuery(q) {
			admits++
		}
	}
	if admits < 800 || admits > 1200 {
		t.Fatalf("admit fraction 0.5 admitted %d/2000", admits)
	}
	p.admitFrac = 1
	for i := 0; i < 100; i++ {
		if !p.AdmitQuery(q) {
			t.Fatal("full admit fraction rejected")
		}
	}
}

func TestQMFDropSetPrefersLowAUR(t *testing.T) {
	p := New(DefaultConfig())
	w := smallTrace(t, workload.Low)
	if _, err := engine.New(engine.NewConfig(w, usm.Weights{}, 7), p); err != nil {
		t.Fatal(err)
	}
	// Item 0: heavily accessed per update. Item 1: never accessed.
	p.upd[0], p.acc[0] = 10, 100
	p.upd[1], p.acc[1] = 10, 0
	p.dropFrac = 0.5 // drop half of the two updated items: exactly one
	p.recomputeDropSet()
	if p.AdmitUpdate(1) {
		t.Fatal("lowest-AUR item not dropped")
	}
	if !p.AdmitUpdate(0) {
		t.Fatal("high-AUR item dropped")
	}
}

func TestQMFClamps(t *testing.T) {
	p := New(DefaultConfig())
	p.admitFrac, p.dropFrac = -5, 7
	p.clamp()
	if p.admitFrac != 0.05 || p.dropFrac != 0.95 {
		t.Fatalf("clamp: %v %v", p.admitFrac, p.dropFrac)
	}
	p.admitFrac, p.dropFrac = 7, -1
	p.clamp()
	if p.admitFrac != 1 || p.dropFrac != 0 {
		t.Fatalf("clamp: %v %v", p.admitFrac, p.dropFrac)
	}
}

func TestQMFConfigDefaults(t *testing.T) {
	p := New(Config{})
	if p.cfg.ControlPeriod != 5 || p.cfg.Step != 0.1 || p.cfg.RecomputeEvery != 1 {
		t.Fatalf("defaults: %+v", p.cfg)
	}
	if p.Name() != "QMF" {
		t.Fatal("name")
	}
	if p.AdmitFraction() != 1 || p.DropFraction() != 0 {
		t.Fatal("initial knobs")
	}
}

// refDropSet is the full-sort drop-set derivation recomputeDropSet
// replaced, kept as the oracle: sort every update-receiving item by
// (access/update ratio, item id) and mark the first dropFrac of them.
func refDropSet(acc, upd []int, dropFrac float64) []bool {
	type aur struct {
		item  int
		ratio float64
	}
	var items []aur
	for item, u := range upd {
		if u == 0 {
			continue
		}
		items = append(items, aur{item: item, ratio: float64(acc[item]) / float64(u)})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].ratio != items[j].ratio {
			return items[i].ratio < items[j].ratio
		}
		return items[i].item < items[j].item
	})
	k := int(dropFrac * float64(len(items)))
	dropSet := make([]bool, len(upd))
	for i := 0; i < k; i++ {
		dropSet[items[i].item] = true
	}
	return dropSet
}

// bareQMF is a QMF with its per-item state sized for n items and no
// engine: enough to drive recomputeDropSet directly.
func bareQMF(n int) *QMF {
	return &QMF{
		dropSet: make([]bool, n),
		aurs:    make([]aur, 0, n),
		acc:     make([]int, n),
		upd:     make([]int, n),
	}
}

// checkDropSet recomputes q's drop set at dropFrac and requires the
// oracle's membership exactly.
func checkDropSet(t *testing.T, q *QMF, dropFrac float64) {
	t.Helper()
	q.dropFrac = dropFrac
	q.recomputeDropSet()
	want := refDropSet(q.acc, q.upd, dropFrac)
	for i := range want {
		if q.dropSet[i] != want[i] {
			t.Fatalf("dropFrac %v, n %d: item %d (acc %d, upd %d) dropped=%v, oracle %v",
				dropFrac, len(want), i, q.acc[i], q.upd[i], q.dropSet[i], want[i])
		}
	}
}

// TestDropSetMatchesSortOracle: selection marks exactly the items the
// full sort marked, over tie-heavy ratio vectors (small counts make equal
// ratios such as 2/4 and 1/2 common, and pairs of them are forced), items
// that never received an update, every item count the policy meets, and
// every drop fraction on the 0.05 grid. One QMF per vector is reused
// across the grid, so stale marks or scratch state would show too.
func TestDropSetMatchesSortOracle(t *testing.T) {
	for _, n := range []int{1, 2, 128, 1024} {
		for seed := uint64(1); seed <= 20; seed++ {
			rng := stats.NewRNG(seed*1000 + uint64(n))
			q := bareQMF(n)
			for i := 0; i < n; i++ {
				q.upd[i] = rng.Intn(5) // 0: never updated
				q.acc[i] = rng.Intn(5)
			}
			for i := 0; i+1 < n; i += 7 {
				q.acc[i], q.upd[i] = 2, 4
				q.acc[i+1], q.upd[i+1] = 1, 2
			}
			for step := 0; step <= 19; step++ {
				checkDropSet(t, q, float64(step)*0.05)
			}
		}
	}
}

// FuzzQMFDropSet drives the same oracle with fuzzer-chosen per-item
// (accesses, updates) byte pairs and drop fractions.
func FuzzQMFDropSet(f *testing.F) {
	f.Add([]byte{2, 4, 1, 2, 0, 0, 9, 3}, 0.5)
	f.Add([]byte{0, 1, 0, 1, 0, 1}, 0.95)
	f.Add([]byte{7, 0}, 0.3)
	f.Fuzz(func(t *testing.T, data []byte, dropFrac float64) {
		if math.IsNaN(dropFrac) || len(data) < 2 {
			return
		}
		n := min(len(data)/2, 2048)
		q := bareQMF(n)
		for i := 0; i < n; i++ {
			q.acc[i] = int(data[2*i])
			q.upd[i] = int(data[2*i+1] % 8)
		}
		// The loop's clamp keeps the drop fraction in [0, 0.95].
		checkDropSet(t, q, math.Min(math.Max(dropFrac, 0), 0.95))
	})
}

var fullScale struct {
	once sync.Once
	w    *workload.Workload
	err  error
}

// fullScaleQMF attaches QMF to the paper-scale med-unif trace (1024 items)
// with per-item counters set to the whole trace's access and update
// counts, so the access/update ratios — ties included — have the shape a
// mid-run control tick sees.
func fullScaleQMF(tb testing.TB) *QMF {
	tb.Helper()
	fullScale.once.Do(func() {
		q, err := workload.GenerateQueries(workload.DefaultQueryConfig(), 42)
		if err != nil {
			fullScale.err = err
			return
		}
		fullScale.w, fullScale.err = workload.GenerateUpdates(q, workload.DefaultUpdateConfig(workload.Med, workload.Uniform), 43)
	})
	if fullScale.err != nil {
		tb.Fatal(fullScale.err)
	}
	w := fullScale.w
	p := New(DefaultConfig())
	if _, err := engine.New(engine.NewConfig(w, usm.Weights{}, 7), p); err != nil {
		tb.Fatal(err)
	}
	copy(p.acc, w.QueryCounts)
	copy(p.upd, w.UpdateCounts)
	return p
}

// midRunTick is one control tick at a mid-run drop fraction that moved
// since the last recompute, so the tick recomputes the drop set — QMF's
// costliest tick.
func midRunTick(p *QMF) {
	p.dropFrac, p.lastDropFrac = 0.5, 0.4
	p.OnControlTick()
}

// TestControlTickAllocationFree: after one warm-up tick, a control tick
// that recomputes the drop set allocates nothing.
func TestControlTickAllocationFree(t *testing.T) {
	p := fullScaleQMF(t)
	midRunTick(p)
	if allocs := testing.AllocsPerRun(100, func() { midRunTick(p) }); allocs != 0 {
		t.Fatalf("OnControlTick allocates %v objects per tick, want 0", allocs)
	}
}

// BenchmarkQMFControlTick measures one full-scale control tick that
// recomputes the drop set (1024 items, mid-run drop fraction).
func BenchmarkQMFControlTick(b *testing.B) {
	p := fullScaleQMF(b)
	midRunTick(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		midRunTick(p)
	}
}
