// Package core assembles UNIT, the paper's primary contribution: the Load
// Balancing Controller (feedback control, §3.2), Query Admission Control
// (§3.3) and Update Frequency Modulation (§3.4), wired over the simulation
// engine to maximize the User Satisfaction Metric.
package core

import (
	"fmt"
	"math"

	"unitdb/internal/core/admission"
	"unitdb/internal/core/kernel"
	"unitdb/internal/core/ufm"
	"unitdb/internal/core/usm"
	"unitdb/internal/engine"
	"unitdb/internal/txn"
)

// Config parameterizes UNIT. It is the control kernel's configuration:
// the simulator policy runs the kernel as configured here.
type Config = kernel.Config

// DefaultConfig returns the paper-faithful configuration for the given
// weights.
func DefaultConfig(w usm.Weights) Config {
	return Config{
		Weights:            w,
		ControlPeriod:      1,
		GracePeriod:        5,
		MinDecisionSamples: 25,
		Seed:               1,
	}
}

// UNIT is the policy: an engine.Policy adapter around the control kernel
// (internal/core/kernel). Create it with New and hand it to engine.New.
type UNIT struct {
	cfg Config

	e *engine.Engine
	k *kernel.Kernel

	lastEnqueued []float64
}

// New creates a UNIT policy.
func New(cfg Config) *UNIT {
	if err := cfg.Weights.Validate(); err != nil {
		panic(err)
	}
	if cfg.ControlPeriod <= 0 {
		cfg.ControlPeriod = 1
	}
	if cfg.GracePeriod < cfg.ControlPeriod {
		cfg.GracePeriod = cfg.ControlPeriod
	}
	return &UNIT{cfg: cfg}
}

// Name implements engine.Policy.
func (u *UNIT) Name() string { return "UNIT" }

// Attach implements engine.Policy: it sizes the modulator from the
// workload's update feeds and builds the kernel.
func (u *UNIT) Attach(e *engine.Engine) {
	u.e = e
	w := e.Workload()
	ideal := make([]float64, w.NumItems)
	for i := range ideal {
		ideal[i] = math.Inf(1)
	}
	for _, spec := range w.Updates {
		ideal[spec.Item] = spec.Period
	}
	// Per-transaction weight resolution makes the system USM check honor
	// heterogeneous user preferences (multi-preference extension, §3.1).
	u.k = kernel.New(u.cfg, ideal, e.TraceRecorder(), admission.WithResolver(e.WeightsFor))
	u.lastEnqueued = make([]float64, w.NumItems)
	for i := range u.lastEnqueued {
		u.lastEnqueued[i] = math.Inf(-1)
	}
}

// Admission returns the admission controller (introspection and tests).
func (u *UNIT) Admission() *admission.Controller { return u.k.AC }

// Modulator returns the update-frequency modulator (introspection).
func (u *UNIT) Modulator() *ufm.Modulator { return u.k.Mod }

// SignalCounts reports how many times each control signal was applied.
func (u *UNIT) SignalCounts() map[string]int { return u.k.Signals() }

// AdmitQuery implements engine.Policy via the two admission gates.
func (u *UNIT) AdmitQuery(q *txn.Txn) bool {
	return u.k.AC.Admit(u.e.Now(), q, u.e) == admission.Admitted
}

// AdmitUpdate implements engine.Policy: an arriving source update executes
// only when the item's current (possibly degraded) period has elapsed since
// the last executed one.
func (u *UNIT) AdmitUpdate(item int) bool {
	now := u.e.Now()
	period := u.k.Mod.Period(item)
	if now-u.lastEnqueued[item] < period*(1-1e-9) {
		return false
	}
	u.lastEnqueued[item] = now
	return true
}

// OnSourceUpdate implements engine.Policy: every feed arrival raises the
// item's ticket (Eq. 7).
func (u *UNIT) OnSourceUpdate(item int, exec float64) {
	u.k.Mod.OnUpdate(item, exec)
}

// BeforeQueryDispatch implements engine.Policy: UNIT never postpones.
func (u *UNIT) BeforeQueryDispatch(*txn.Txn) bool { return true }

// OnQueryDone implements engine.Policy: query demand lowers the tickets of
// the items touched (Eq. 6). Every submitted query counts, not only the
// committed ones — a rejected or deadline-missed query needed its items
// just the same, and counting only commits starves the ticket ledger of
// its access signal exactly when the system is overloaded (queries fail →
// no decrements → hot items drift ticket-positive → their updates get
// degraded → more queries fail), a death spiral.
func (u *UNIT) OnQueryDone(q *txn.Txn) {
	for _, item := range q.Items {
		u.k.Mod.OnQueryAccess(item, q.EstExec, q.RelDeadline)
	}
}

// OnUpdateApplied implements engine.Policy.
func (u *UNIT) OnUpdateApplied(*txn.Txn) {}

// ControlPeriod implements engine.Policy.
func (u *UNIT) ControlPeriod() float64 { return u.cfg.ControlPeriod }

// OnControlTick implements engine.Policy: the kernel folds the tick's
// outcome window in and decides when the trigger fires (paper Fig. 2).
// Every workload feed is known up front, one per item.
func (u *UNIT) OnControlTick() {
	u.k.Tick(u.e.Now(), u.e.Accountant().Rollover(), len(u.e.Workload().Updates))
}

var _ engine.Policy = (*UNIT)(nil)

// String renders the policy configuration.
func (u *UNIT) String() string {
	return fmt.Sprintf("UNIT(weights=%+v tick=%v grace=%v batch=%d)",
		u.cfg.Weights, u.cfg.ControlPeriod, u.cfg.GracePeriod, u.cfg.DegradeBatch)
}
