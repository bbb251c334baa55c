package core

import (
	"testing"

	"unitdb/internal/core/usm"
	"unitdb/internal/engine"
	"unitdb/internal/txn"
	"unitdb/internal/workload"
)

func smallTrace(t *testing.T, v workload.Volume, d workload.Distribution) *workload.Workload {
	t.Helper()
	qc := workload.SmallQueryConfig()
	qc.NumQueries = 3000
	qc.Duration = 12000
	q, err := workload.GenerateQueries(qc, 42)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.GenerateUpdates(q, workload.DefaultUpdateConfig(v, d), 43)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func runUNIT(t *testing.T, w *workload.Workload, cfg Config) (*engine.Results, *UNIT) {
	t.Helper()
	p := New(cfg)
	e, err := engine.New(engine.NewConfig(w, cfg.Weights, 7), p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r, p
}

func TestUNITEndToEnd(t *testing.T) {
	w := smallTrace(t, workload.Med, workload.Uniform)
	r, p := runUNIT(t, w, DefaultConfig(usm.Weights{}))
	if r.Counts.Total() != len(w.Queries) {
		t.Fatalf("outcomes %d != submitted %d", r.Counts.Total(), len(w.Queries))
	}
	if r.Counts.Success == 0 {
		t.Fatal("UNIT succeeded on nothing")
	}
	if r.UpdatesDropped == 0 {
		t.Fatal("UNIT never modulated the med update load")
	}
	deg, _ := p.Modulator().Stats()
	if deg == 0 {
		t.Fatal("no degrade steps under a 75% update load")
	}
	adm, _, _ := p.Admission().Stats()
	if adm == 0 {
		t.Fatal("admission controller never admitted")
	}
}

func TestUNITBeatsNoControlUnderLoad(t *testing.T) {
	// Against the same med-unif trace, UNIT must clearly beat the
	// admit-everything/apply-everything strategy (IMU) on the naive USM.
	w := smallTrace(t, workload.Med, workload.Uniform)
	unitRes, _ := runUNIT(t, w, DefaultConfig(usm.Weights{}))

	imu := &plainPolicy{}
	e, err := engine.New(engine.NewConfig(w, usm.Weights{}, 7), imu)
	if err != nil {
		t.Fatal(err)
	}
	imuRes, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if unitRes.USM <= imuRes.USM {
		t.Fatalf("UNIT %.4f did not beat IMU %.4f at med-unif", unitRes.USM, imuRes.USM)
	}
}

type plainPolicy struct{ engine.Base }

func (plainPolicy) Name() string { return "plain" }

func TestUNITWeightedShiftsFailureMix(t *testing.T) {
	// §4.5: with the rejection penalty dominant, UNIT should reject less
	// than with the DMF penalty dominant (it shifts failures toward the
	// cheap class).
	w := smallTrace(t, workload.Med, workload.Uniform)
	highCr, _ := runUNIT(t, w, DefaultConfig(usm.Weights{Cr: 0.8, Cfm: 0.2, Cfs: 0.2}))
	highCfm, _ := runUNIT(t, w, DefaultConfig(usm.Weights{Cr: 0.2, Cfm: 0.8, Cfs: 0.2}))
	if highCfm.DMFRatio >= highCr.DMFRatio {
		t.Fatalf("high-Cfm run has DMF %.3f >= high-Cr run's %.3f; the mix did not shift",
			highCfm.DMFRatio, highCr.DMFRatio)
	}
}

func TestUNITSignals(t *testing.T) {
	w := smallTrace(t, workload.High, workload.Uniform)
	_, p := runUNIT(t, w, DefaultConfig(usm.Weights{}))
	sig := p.SignalCounts()
	total := 0
	for _, v := range sig {
		total += v
	}
	if total == 0 {
		t.Fatal("controller never acted under a 150% update load")
	}
}

// warmedUp reports whether the kernel's warm-up rule admits Degrade
// signals yet, for the workload's feeds.
func (u *UNIT) warmedUp() bool { return u.k.WarmedUp(len(u.e.Workload().Updates)) }

func TestUNITWarmup(t *testing.T) {
	w := smallTrace(t, workload.Med, workload.Uniform)
	p := New(DefaultConfig(usm.Weights{}))
	e, err := engine.New(engine.NewConfig(w, usm.Weights{}, 7), p)
	if err != nil {
		t.Fatal(err)
	}
	if p.warmedUp() {
		t.Fatal("warmed up before any updates")
	}
	// (the med trace delivers well over two updates per feed)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !p.warmedUp() {
		t.Fatal("never warmed up over a full trace")
	}
}

func TestUNITAdmitUpdateThrottles(t *testing.T) {
	// Build a 1-item workload and degrade it manually; AdmitUpdate must
	// then skip arrivals inside the stretched period.
	w := &workload.Workload{
		Name: "t", NumItems: 1, Duration: 100,
		Updates:      []workload.UpdateSpec{{Item: 0, Period: 10, Exec: 1}},
		QueryCounts:  []int{0},
		UpdateCounts: []int{10},
	}
	p := New(DefaultConfig(usm.Weights{}))
	if _, err := engine.New(engine.NewConfig(w, usm.Weights{}, 7), p); err != nil {
		t.Fatal(err)
	}
	// All arrivals pass at the ideal period.
	if !p.AdmitUpdate(0) {
		t.Fatal("first arrival dropped")
	}
	// Stretch the period: the next arrival at +10 must be dropped. We
	// simulate the passage of time by querying AdmitUpdate directly; the
	// engine clock is 0 throughout, so a doubled period rejects.
	p.Modulator().OnUpdate(0, 1)
	for p.Modulator().Period(0) < 25 {
		p.Modulator().DegradeN(8)
	}
	if p.AdmitUpdate(0) {
		t.Fatal("arrival inside the degraded period admitted")
	}
}

func TestUNITConfigDefaults(t *testing.T) {
	p := New(Config{Weights: usm.Weights{}})
	if p.cfg.ControlPeriod != 1 || p.cfg.GracePeriod != 1 {
		t.Fatalf("defaults: %+v", p.cfg)
	}
	if p.Name() != "UNIT" {
		t.Fatal("name")
	}
	if p.String() == "" {
		t.Fatal("String")
	}
}

func TestUNITRejectsBadWeights(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative weights accepted")
		}
	}()
	New(Config{Weights: usm.Weights{Cr: -1}})
}

func TestUNITOnQueryDoneCountsAllOutcomes(t *testing.T) {
	w := &workload.Workload{
		Name: "t", NumItems: 2, Duration: 100,
		QueryCounts: []int{1, 1}, UpdateCounts: []int{0, 0},
	}
	p := New(DefaultConfig(usm.Weights{}))
	if _, err := engine.New(engine.NewConfig(w, usm.Weights{}, 7), p); err != nil {
		t.Fatal(err)
	}
	q := txn.NewQuery(1, 0, []int{0}, 1, 10, 0.9)
	q.Outcome = txn.OutcomeRejected
	before := p.Modulator().Ticket(0)
	p.OnQueryDone(q)
	if p.Modulator().Ticket(0) >= before {
		t.Fatal("rejected query did not lower the item's ticket (demand signal lost)")
	}
}
