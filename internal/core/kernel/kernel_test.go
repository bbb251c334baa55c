package kernel

import (
	"math"
	"testing"

	"unitdb/internal/core/usm"
	"unitdb/internal/obs/trace"
	"unitdb/internal/txn"
)

const items = 8

// tally records counts under uniform weights w, the way the runtimes'
// accountants build a window.
func tally(c usm.Counts, w usm.Weights) usm.Tally {
	var t usm.Tally
	for _, n := range []struct {
		o txn.Outcome
		k int
	}{{txn.OutcomeSuccess, c.Success}, {txn.OutcomeRejected, c.Rejected}, {txn.OutcomeDMF, c.DMF}, {txn.OutcomeDSF, c.DSF}} {
		for i := 0; i < n.k; i++ {
			t.Record(n.o, w)
		}
	}
	return t
}

func newKernel(w usm.Weights, grace float64, minSamples int, rec *trace.Recorder) *Kernel {
	ideal := make([]float64, items)
	for i := range ideal {
		ideal[i] = 1
	}
	return New(Config{Weights: w, GracePeriod: grace, MinDecisionSamples: minSamples, Seed: 1}, ideal, rec)
}

// TestTickTrigger pins the decision trigger of paper Fig. 2 line 1 with
// the minimum-sample gate of DESIGN.md §5a: a decision needs the pending
// window to hold MinDecisionSamples outcomes and either a USM drop
// beyond 1% of the range against the previous window or an elapsed
// grace period since the last decision.
func TestTickTrigger(t *testing.T) {
	type tick struct {
		now     float64
		window  usm.Counts
		decided bool
		dropped bool
	}
	cases := []struct {
		name  string
		ticks []tick
	}{
		{"min-samples gate holds a thin window and keeps it pending", []tick{
			{now: 10, window: usm.Counts{Rejected: 5}},
			{now: 11, window: usm.Counts{Rejected: 5}, decided: true},
		}},
		{"grace period holds a full, steady window", []tick{
			{now: 1, window: usm.Counts{Success: 20}},
			{now: 2, window: usm.Counts{Success: 20}},
			{now: 5, window: usm.Counts{Success: 20}, decided: true},
		}},
		{"grace period restarts at each decision", []tick{
			{now: 5, window: usm.Counts{Success: 20}, decided: true},
			{now: 9, window: usm.Counts{Success: 20}},
			{now: 10, window: usm.Counts{Success: 20}, decided: true},
		}},
		{"USM drop decides before the grace period", []tick{
			{now: 1, window: usm.Counts{Success: 20}},
			{now: 2, window: usm.Counts{Success: 10, Rejected: 10}, decided: true, dropped: true},
		}},
		{"a drop within the threshold does not decide", []tick{
			{now: 1, window: usm.Counts{Success: 200}},
			{now: 2, window: usm.Counts{Success: 199, Rejected: 1}},
		}},
	}
	for _, tc := range cases {
		rec := trace.New(0, 0)
		k := newKernel(usm.Weights{}, 5, 10, rec)
		decisions := 0
		for i, tk := range tc.ticks {
			_, _, decided := k.Tick(tk.now, tally(tk.window, usm.Weights{}), 0)
			if decided != tk.decided {
				t.Fatalf("%s: tick %d decided = %v, want %v", tc.name, i, decided, tk.decided)
			}
			if !decided {
				continue
			}
			decisions++
			log := rec.Decisions(0)
			if len(log) != decisions {
				t.Fatalf("%s: %d decisions logged, want %d", tc.name, len(log), decisions)
			}
			if d := log[len(log)-1]; d.T != tk.now || d.DropTriggered != tk.dropped {
				t.Fatalf("%s: tick %d logged %+v, want T %v dropped %v", tc.name, i, d, tk.now, tk.dropped)
			}
		}
		if k.Decisions() != decisions {
			t.Fatalf("%s: Decisions() = %d, want %d", tc.name, k.Decisions(), decisions)
		}
	}
}

// TestApplyRules pins the decision-to-actuation map of paper Fig. 2 with
// the three fixes of DESIGN.md §5a: a Loosen at the C_flex floor falls
// through to Degrade (counted LAC-DU), Tighten is suppressed when
// C_r > C_fm, and Degrade waits for the ticket ledger to warm up.
func TestApplyRules(t *testing.T) {
	naive := usm.Weights{}
	cheapReject := usm.Weights{Cr: 0.2, Cfm: 0.8, Cfs: 0.2}
	dearReject := usm.Weights{Cr: 0.8, Cfm: 0.2, Cfs: 0.2}
	rejects := usm.Counts{Success: 5, Rejected: 20}
	misses := usm.Counts{Success: 5, DMF: 20}
	cases := []struct {
		name     string
		w        usm.Weights
		atFloor  bool
		feeds    int
		updates  int
		window   usm.Counts
		action   string
		signals  map[string]int
		cflex    float64
		degraded bool
	}{
		{"rejections loosen admission", naive, false, 0, 0, rejects, "LAC", map[string]int{"LAC": 1}, 0.9, false},
		{"rejections at the floor degrade updates", naive, true, 0, 0, rejects, "LAC", map[string]int{"LAC-DU": 1}, 0.001, true},
		{"floor fall-through waits for warm-up", naive, true, 4, 7, rejects, "LAC", map[string]int{}, 0.001, false},
		{"floor fall-through after warm-up", naive, true, 4, 8, rejects, "LAC", map[string]int{"LAC-DU": 1}, 0.001, true},
		{"misses tighten and degrade when C_r <= C_fm", cheapReject, false, 0, 0, misses, "TAC DU", map[string]int{"TAC": 1, "DU": 1}, 1.1, true},
		{"misses only degrade when C_r > C_fm", dearReject, false, 0, 0, misses, "TAC DU", map[string]int{"DU": 1}, 1, true},
		{"degrade waits for warm-up", cheapReject, false, 4, 7, misses, "TAC DU", map[string]int{"TAC": 1}, 1.1, false},
		{"degrade after warm-up", cheapReject, false, 4, 8, misses, "TAC DU", map[string]int{"TAC": 1, "DU": 1}, 1.1, true},
		{"stale reads upgrade", naive, false, 0, 0, usm.Counts{Success: 5, DSF: 20}, "UU", map[string]int{"UU": 1}, 1, false},
		{"a clean window decides nothing", naive, false, 0, 0, usm.Counts{Success: 25}, "none", map[string]int{}, 1, false},
	}
	for _, tc := range cases {
		rec := trace.New(0, 0)
		k := newKernel(tc.w, 1, 1, rec)
		for tc.atFloor && !k.AC.AtFloor() {
			k.AC.Loosen()
		}
		for i := 0; i < tc.updates; i++ {
			k.Mod.OnUpdate(i%items, 0.01)
		}
		_, a, decided := k.Tick(1, tally(tc.window, tc.w), tc.feeds)
		if !decided {
			t.Fatalf("%s: no decision", tc.name)
		}
		if a.String() != tc.action {
			t.Errorf("%s: action %q, want %q", tc.name, a, tc.action)
		}
		got := k.Signals()
		if len(got) != len(tc.signals) {
			t.Errorf("%s: signals %v, want %v", tc.name, got, tc.signals)
		}
		for name, n := range tc.signals {
			if got[name] != n {
				t.Errorf("%s: signals %v, want %v", tc.name, got, tc.signals)
			}
		}
		if math.Abs(k.AC.CFlex()-tc.cflex) > 1e-12 {
			t.Errorf("%s: C_flex %v, want %v", tc.name, k.AC.CFlex(), tc.cflex)
		}
		if (k.Mod.DegradedCount() > 0) != tc.degraded {
			t.Errorf("%s: %d items degraded, want degraded = %v", tc.name, k.Mod.DegradedCount(), tc.degraded)
		}
		// The log shows the actuators as the decision left them.
		d := rec.Decisions(0)[0]
		if d.Action != tc.action || d.CFlex != k.AC.CFlex() || d.DegradedItems != k.Mod.DegradedCount() {
			t.Errorf("%s: logged %+v", tc.name, d)
		}
	}
}

// TestWarmedUp pins the warm-up rule: two updates per feed, and no feeds
// means nothing to wait for.
func TestWarmedUp(t *testing.T) {
	k := newKernel(usm.Weights{}, 1, 1, nil)
	if !k.WarmedUp(0) {
		t.Fatal("no feeds must count as warmed up")
	}
	for i := 0; i < 5; i++ {
		k.Mod.OnUpdate(0, 0.01)
	}
	if k.WarmedUp(3) {
		t.Fatal("5 updates warmed up 3 feeds")
	}
	k.Mod.OnUpdate(1, 0.01)
	if !k.WarmedUp(3) {
		t.Fatal("6 updates did not warm up 3 feeds")
	}
}

// TestSignalsIsACopy pins that callers cannot reach the kernel's counts.
func TestSignalsIsACopy(t *testing.T) {
	k := newKernel(usm.Weights{}, 1, 1, nil)
	k.Tick(1, tally(usm.Counts{Success: 5, Rejected: 20}, usm.Weights{}), 0)
	k.Signals()["LAC"] = 99
	if k.Signals()["LAC"] != 1 {
		t.Fatalf("signals = %v", k.Signals())
	}
}
