package server

import (
	"math"
	"testing"
	"time"

	"unitdb/internal/core"
	"unitdb/internal/core/usm"
	"unitdb/internal/engine"
	"unitdb/internal/obs/trace"
	"unitdb/internal/stats"
	"unitdb/internal/txn"
	"unitdb/internal/workload"
)

// kernelTestServer is a live server whose control loop never ticks on
// its own: the test drives controlTick.
func kernelTestServer(t *testing.T, numItems int, w usm.Weights, seed uint64) *Server {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NumItems = numItems
	cfg.Weights = w
	cfg.ControlPeriod = time.Hour
	cfg.GracePeriod = time.Hour
	cfg.MinDecisionSamples = 20
	cfg.Seed = seed
	cfg.UpdateWork = func(UpdateRequest) {}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// recordOutcome finalizes one synthetic query, as a worker or the
// admission path would.
func (s *Server) recordOutcome(items []int, exec, rel float64, o txn.Outcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	s.finalizeLocked(txn.NewQuery(s.nextID, s.now(), items, exec, rel, 0.9), o, nil)
}

// TestControlTickDegradesAtFloor: with C_flex at its floor and rejection
// dominating the window, the live controller sheds update load — the
// §5a Loosen→Degrade fall-through, counted as LAC-DU — instead of
// issuing a Loosen that cannot loosen anything.
func TestControlTickDegradesAtFloor(t *testing.T) {
	s := kernelTestServer(t, 16, usm.Weights{}, 1)
	// Two updates per feed warm the ticket ledger up; the pause lets the
	// second arrival teach each feed a finite period.
	for round := 0; round < 2; round++ {
		for item := 0; item < 4; item++ {
			if _, err := s.Update(UpdateRequest{Item: item, Value: 1}); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(time.Millisecond)
	}
	s.mu.Lock()
	for !s.k.AC.AtFloor() {
		s.k.AC.Loosen()
	}
	s.mu.Unlock()

	for i := 0; i < 30; i++ {
		s.recordOutcome([]int{4 + i%12}, 0.001, 1, txn.OutcomeSuccess)
	}
	s.controlTick() // primes the USM-drop trigger
	for i := 0; i < 30; i++ {
		s.recordOutcome([]int{4 + i%12}, 0.001, 1, txn.OutcomeRejected)
	}
	s.controlTick() // the USM dropped: decide on a rejection-dominant window

	st := s.Stats()
	if st.LBCDecisions != 1 {
		t.Fatalf("decisions = %d, want 1", st.LBCDecisions)
	}
	if st.LBCSignals["LAC-DU"] != 1 || st.DegradedItems == 0 {
		t.Fatalf("at the C_flex floor the controller did not degrade updates: signals %v, %d items degraded",
			st.LBCSignals, st.DegradedItems)
	}
	if st.CFlex != 0.001 {
		t.Fatalf("C_flex = %v, want the floor", st.CFlex)
	}
}

// TestKernelWiringMatchesSimulator is the differential check of the one
// control kernel: the same seeded stream of update arrivals and outcome
// windows, fed through the simulator's wiring (core.UNIT over an engine)
// and the live server's (Update, finalizeLocked, controlTick), must
// produce the same decision log and the same applied signals. Neither
// side lets the grace period elapse, so every decision is drop-triggered;
// the kernel's own tests cover the grace path.
func TestKernelWiringMatchesSimulator(t *testing.T) {
	const (
		numItems = 16
		feeds    = 6
		seed     = 5
	)
	for _, w := range []usm.Weights{{}, {Cr: 0.5, Cfm: 1, Cfs: 0.25}, {Cr: 1, Cfm: 0.25, Cfs: 0.5}} {
		specs := make([]workload.UpdateSpec, feeds)
		for i := range specs {
			specs[i] = workload.UpdateSpec{Item: i, Period: 1, Exec: 0.001}
		}
		wl := &workload.Workload{
			Name: "differential", NumItems: numItems, Duration: 100,
			Updates:      specs,
			QueryCounts:  make([]int, numItems),
			UpdateCounts: make([]int, numItems),
		}
		simCfg := core.DefaultConfig(w)
		simCfg.GracePeriod = math.MaxFloat64 // the engine clock stays at 0
		simCfg.MinDecisionSamples = 20
		simCfg.Seed = seed
		sim := core.New(simCfg)
		ecfg := engine.NewConfig(wl, w, 7)
		ecfg.Trace = trace.New(0, 0)
		e, err := engine.New(ecfg, sim)
		if err != nil {
			t.Fatal(err)
		}
		live := kernelTestServer(t, numItems, w, seed)

		rng := stats.NewRNG(11)
		arrive := func(item int) {
			work := time.Duration(1+rng.Intn(1000)) * time.Microsecond
			sim.OnSourceUpdate(item, work.Seconds())
			if _, err := live.Update(UpdateRequest{Item: item, Value: 1, Work: work}); err != nil {
				t.Fatal(err)
			}
		}
		// Warm-up: every feed arrives three times, far enough apart for
		// the server to learn a finite period from each inter-arrival.
		for round := 0; round < 3; round++ {
			for item := 0; item < feeds; item++ {
				arrive(item)
			}
			time.Sleep(100 * time.Microsecond)
		}
		for item := 0; item < feeds; item++ {
			if math.IsInf(live.k.Mod.IdealPeriod(item), 1) {
				t.Fatalf("feed %d learned no period", item)
			}
		}

		// Each window mixes outcomes by one of four regimes, so the USM
		// swings and the drop trigger fires on every cost branch.
		regimes := [][4]int{ // success, rejected, DMF, DSF weights
			{90, 4, 3, 3}, {30, 60, 5, 5}, {30, 5, 60, 5}, {30, 5, 5, 60},
		}
		outcomes := [4]txn.Outcome{txn.OutcomeSuccess, txn.OutcomeRejected, txn.OutcomeDMF, txn.OutcomeDSF}
		id := int64(0)
		for tick := 0; tick < 400; tick++ {
			for n := rng.Intn(4); n > 0; n-- {
				arrive(rng.Intn(feeds))
			}
			mix := regimes[rng.Intn(len(regimes))]
			for n := 15 + rng.Intn(25); n > 0; n-- {
				r, o := rng.Intn(100), txn.OutcomeSuccess
				for k, acc := 0, 0; k < 4; k++ {
					if acc += mix[k]; r < acc {
						o = outcomes[k]
						break
					}
				}
				items := []int{rng.Intn(numItems)}
				if rng.Intn(2) == 0 {
					items = append(items, rng.Intn(numItems))
				}
				exec, rel := 0.001*float64(1+rng.Intn(50)), 0.1*float64(1+rng.Intn(20))
				id++
				q := txn.NewQuery(id, 0, items, exec, rel, 0.9)
				q.Outcome = o
				e.Accountant().Record(o, q.PrefClass)
				sim.OnQueryDone(q)
				live.recordOutcome(items, exec, rel, o)
			}
			sim.OnControlTick()
			live.controlTick()
		}

		simLog, liveLog := decisionsSansTime(ecfg.Trace), decisionsSansTime(live.TraceRecorder())
		if len(simLog) < 50 {
			t.Fatalf("weights %+v: only %d decisions; the stream does not exercise the controller", w, len(simLog))
		}
		if len(liveLog) != len(simLog) {
			t.Fatalf("weights %+v: %d live decisions, %d simulated", w, len(liveLog), len(simLog))
		}
		for i := range simLog {
			if liveLog[i] != simLog[i] {
				t.Fatalf("weights %+v: decision %d differs:\n live %+v\n  sim %+v", w, i, liveLog[i], simLog[i])
			}
		}
		simSig, liveSig := sim.SignalCounts(), live.Stats().LBCSignals
		if w.Cr > w.Cfm && (simSig["LAC-DU"] == 0 || simSig["TAC"] != 0 || simSig["DU"] == 0) {
			t.Fatalf("weights %+v: signals %v; the stream must reach the C_flex floor and degrade without tightening", w, simSig)
		}
		if len(simSig) != len(liveSig) {
			t.Fatalf("weights %+v: signals live %v, sim %v", w, liveSig, simSig)
		}
		for name, n := range simSig {
			if liveSig[name] != n {
				t.Fatalf("weights %+v: signals live %v, sim %v", w, liveSig, simSig)
			}
		}
	}
}

// decisionsSansTime returns the logged decisions with the fields that
// name the runtime rather than the decision — the clock reading and the
// recorder's sequence number — zeroed.
func decisionsSansTime(rec *trace.Recorder) []trace.Decision {
	ds := rec.Decisions(0)
	for i := range ds {
		ds[i].T, ds[i].Seq = 0, 0
	}
	return ds
}
