// Package kernel is UNIT's control kernel: the one implementation of the
// Load Balancing Controller loop (paper §3.2, Fig. 2) that both runtimes
// run — the virtual-time simulator policy (internal/core) and the
// wall-clock live server (internal/server). It owns the three actuated
// components (admission control, update frequency modulation, the LBC),
// the decision trigger, the apply rules of DESIGN.md §5a and the decision
// log. The runtimes differ only in what they pass in: the time in float
// seconds, their queue view (to the admission controller), the outcome
// window they rolled over and their update-feed count.
package kernel

import (
	"unitdb/internal/core/admission"
	"unitdb/internal/core/control"
	"unitdb/internal/core/ufm"
	"unitdb/internal/core/usm"
	"unitdb/internal/obs/trace"
	"unitdb/internal/stats"
)

// Config parameterizes UNIT's controller. The simulator takes it as
// core.Config; the live server fills it from its wall-clock settings.
type Config struct {
	// Weights are the USM penalty parameters; they drive both the LBC's
	// cost comparison and the admission controller's USM check.
	Weights usm.Weights
	// ControlPeriod is the monitoring tick of the LBC (seconds); the
	// runtime calls Tick at this period.
	ControlPeriod float64
	// GracePeriod is the maximum time between allocation decisions; a
	// windowed USM drop beyond the threshold decides earlier (paper Fig. 2
	// line 1).
	GracePeriod float64
	// DegradeBatch is how many lottery draws one Degrade signal performs.
	// Zero picks the item count (~1 draw per item per signal on average).
	// Against the arithmetic Upgrade step this creates the intended
	// bistability: items whose lottery weight exceeds the mean by enough
	// accumulate multiplicative period growth faster than Upgrade's
	// −C_uu·pi can pull them back and run away to deep degradation, while
	// well-accessed items hover near their ideal period.
	DegradeBatch int
	// MinDecisionSamples is the minimum number of finalized query outcomes
	// a window must hold before the LBC acts on it. Cost ratios measured
	// over one or two queries are noise; acting on them whipsaws the
	// actuators (a single spurious Upgrade undoes many Degrade draws).
	MinDecisionSamples int
	// Seed drives the lottery and tie-breaking randomness.
	Seed uint64

	// ModulatorOptions forward tuning knobs to update frequency
	// modulation (the ablations of internal/experiments).
	ModulatorOptions []ufm.Option
}

// Kernel is the controller state of one UNIT instance. It is
// single-caller: the simulator's event loop, or the live server under
// its mutex.
type Kernel struct {
	cfg   Config
	trace *trace.Recorder // the decision log; nil logs nothing

	AC  *admission.Controller
	Mod *ufm.Modulator
	lbc *control.LBC

	pending      usm.Tally // outcomes since the last decision
	lastDecision float64
	decisions    int
	signals      map[string]int // applied actuations by signal name
}

// New builds the kernel over items with the given ideal update periods
// (+Inf for items without a feed); rec, when non-nil, receives one
// Decision per decision taken. The modulator draws its randomness first,
// then the LBC, both split from one seed.
func New(cfg Config, ideal []float64, rec *trace.Recorder, acOpts ...admission.Option) *Kernel {
	if cfg.DegradeBatch <= 0 {
		cfg.DegradeBatch = len(ideal)
	}
	rng := stats.NewRNG(cfg.Seed)
	k := &Kernel{cfg: cfg, trace: rec, signals: make(map[string]int)}
	k.Mod = ufm.New(ideal, rng.Split(), cfg.ModulatorOptions...)
	k.AC = admission.New(cfg.Weights, acOpts...)
	k.lbc = control.New(cfg.Weights, rng.Split())
	return k
}

// Tick runs one monitoring period at time now (seconds). window is the
// outcome tally since the previous tick and feeds the number of update
// feeds the runtime knows of (the warm-up rule's denominator). The LBC
// decides once the outcomes pending since the last decision reach the
// minimum sample count and either their USM dropped more than the
// threshold below the previous window's or the grace period elapsed
// (paper Fig. 2 line 1). Tick returns the pending window's USM and, when
// a decision was taken, the action the LBC chose.
func (k *Kernel) Tick(now float64, window usm.Tally, feeds int) (windowUSM float64, a control.Action, decided bool) {
	k.pending.Add(window)
	windowUSM = k.pending.USM()
	samples := k.pending.Counts.Total()
	if samples < k.cfg.MinDecisionSamples {
		return windowUSM, a, false
	}
	dropped := k.lbc.DropTriggered(windowUSM)
	if !dropped && now-k.lastDecision < k.cfg.GracePeriod {
		return windowUSM, a, false
	}
	a, costs := k.lbc.DecideTallyExplained(k.pending)
	k.pending = usm.Tally{}
	k.lastDecision = now
	k.decisions++
	k.apply(a, feeds)
	if k.trace != nil {
		// Logged after apply so CFlex and the degraded count show the
		// actuator settings the decision produced (paper Fig. 2 state).
		k.trace.RecordDecision(trace.Decision{
			T:             now,
			Samples:       samples,
			WindowUSM:     windowUSM,
			RCost:         costs.R,
			FmCost:        costs.Fm,
			FsCost:        costs.Fs,
			DropTriggered: dropped,
			Action:        a.String(),
			CFlex:         k.AC.CFlex(),
			DegradedItems: k.Mod.DegradedCount(),
		})
	}
	return windowUSM, a, true
}

// apply actuates one decision. Signals are counted as applied, under the
// names LAC, LAC-DU (a Loosen that fell through to Degrade), TAC, DU and
// UU.
func (k *Kernel) apply(a control.Action, feeds int) {
	if a.LoosenAC {
		if k.AC.AtFloor() {
			// Admission is already wide open, so the rejections that made
			// rejection the dominant cost stem from a capacity shortage the
			// deadline check merely reports — update load is the only
			// shedable capacity left. Fall through to Degrade so the
			// controller cannot wedge itself at 100% rejection under a
			// sustained update overload (e.g. the 150% "high" traces).
			if k.WarmedUp(feeds) {
				k.Mod.DegradeN(k.cfg.DegradeBatch)
				k.signals["LAC-DU"]++
			}
		} else {
			k.AC.Loosen()
			k.signals["LAC"]++
		}
	}
	if a.TightenAC {
		// Tightening admission remedies DMF cost by converting would-be
		// misses into rejections — a trade that only pays while a
		// rejection is no more expensive than a miss. When the user says
		// rejections hurt more (C_r > C_fm), the conversion raises the
		// very cost the controller is minimizing, so the Degrade half of
		// the DMF remedy acts alone.
		if k.cfg.Weights.Cr <= k.cfg.Weights.Cfm {
			k.AC.Tighten()
			k.signals["TAC"]++
		}
	}
	if a.DegradeUpdate && k.WarmedUp(feeds) {
		k.Mod.DegradeN(k.cfg.DegradeBatch)
		k.signals["DU"]++
	}
	if a.UpgradeUpdate {
		k.Mod.Upgrade()
		k.signals["UU"]++
	}
}

// WarmedUp reports whether the ticket ledger has absorbed enough events
// to discriminate hot from cold items: at least two updates per feed.
// Degrading on an undifferentiated ledger draws victims uniformly and
// pushes every item — hot ones included — past the point the Upgrade
// signal can recover, so Degrade signals are held back until then.
func (k *Kernel) WarmedUp(feeds int) bool {
	upd, _ := k.Mod.EventsSeen()
	return feeds == 0 || upd >= 2*feeds
}

// Decisions returns how many allocation decisions the LBC has taken.
func (k *Kernel) Decisions() int { return k.decisions }

// Signals returns a copy of the applied-actuation counts by signal name.
func (k *Kernel) Signals() map[string]int {
	out := make(map[string]int, len(k.signals))
	for name, n := range k.signals {
		out[name] = n
	}
	return out
}
