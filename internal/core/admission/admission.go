// Package admission implements UNIT's Query Admission Control (paper §3.3).
// A candidate query passes two gates:
//
//  1. Transaction deadline check — using the earliest-possible start time
//     (EST) implied by the ready queue, admit only when
//     C_flex·EST + qe < qt. C_flex is the controller's tightness knob:
//     TAC/LAC signals move it ±10% around its initial value of 1.
//  2. System USM check — admitting the candidate delays the queued queries
//     behind it in EDF order; if the summed DMF penalty of the queries it
//     would newly endanger exceeds the candidate's rejection penalty C_r,
//     rejecting is the cheaper choice and the candidate is refused.
//
// Both gates are O(N_rq) in the ready-queue length, as the paper states.
package admission

import (
	"fmt"
	"slices"

	"unitdb/internal/core/usm"
	"unitdb/internal/txn"
)

// QueueView is the engine-state snapshot admission control decides on.
type QueueView interface {
	// RunningRemaining returns the remaining service demand of the
	// currently executing transaction (0 when the CPU is idle).
	RunningRemaining() float64
	// UpdateBacklog returns the summed remaining demand of queued updates,
	// all of which dispatch ahead of any query.
	UpdateBacklog() float64
	// QueuedQueries returns the queries in the ready queue, any order.
	QueuedQueries() []*txn.Txn
}

// BulkView is an optional QueueView extension: views that can append the
// queued queries into a caller-provided buffer let the controller reuse
// one scratch slice across decisions instead of taking a fresh snapshot
// allocation on every Admit — both gates run per query arrival, so this
// is an engine hot path (see BenchmarkAdmissionDecision).
type BulkView interface {
	// AppendQueuedQueries appends the queued queries to buf and returns
	// the extended buffer, any order.
	AppendQueuedQueries(buf []*txn.Txn) []*txn.Txn
}

// Reason says why a query was rejected.
type Reason int

const (
	// Admitted means the query passed both checks.
	Admitted Reason = iota
	// RejectedDeadline means the deadline check failed: the query has
	// little chance to finish in time.
	RejectedDeadline
	// RejectedUSM means the system USM check failed: admitting would
	// endanger more penalty than rejecting costs.
	RejectedUSM
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case Admitted:
		return "admitted"
	case RejectedDeadline:
		return "rejected-deadline"
	case RejectedUSM:
		return "rejected-usm"
	default:
		return fmt.Sprintf("Reason(%d)", int(r))
	}
}

// Resolver maps a transaction to its effective USM weights — the hook for
// heterogeneous user preferences (multi-preference extension, paper §3.1).
type Resolver func(*txn.Txn) usm.Weights

// C_flex moves in TAC/LAC steps of 10% (the paper's) and is clamped to
// [minFlex, maxFlex]. The low floor matters: under a sustained update
// overload the backlog-based EST is huge for every candidate, and repeated
// Loosen signals must be able to effectively disarm the deadline check so
// admissions resume and the controller can observe DMFs (which is what
// triggers update degradation).
const (
	step    = 0.10
	minFlex = 0.001
	maxFlex = 16
)

// Controller is the admission-control state machine.
type Controller struct {
	weights usm.Weights
	resolve Resolver
	cflex   float64

	admitted         int
	rejectedDeadline int
	rejectedUSM      int

	// scratch is the reusable queued-query buffer of Admit. A Controller
	// is single-caller by design (the simulator's event loop or the live
	// server under its mutex), so one buffer suffices.
	scratch []*txn.Txn
}

// Option configures a Controller.
type Option func(*Controller)

// WithResolver installs a per-transaction weight resolver for
// heterogeneous preference populations. Without one, the controller's own
// weights apply to every transaction.
func WithResolver(r Resolver) Option {
	return func(c *Controller) { c.resolve = r }
}

// New creates a controller with C_flex = 1 (the paper's initial value).
func New(w usm.Weights, opts ...Option) *Controller {
	if err := w.Validate(); err != nil {
		panic(err)
	}
	c := &Controller{weights: w, cflex: 1}
	c.resolve = func(*txn.Txn) usm.Weights { return c.weights }
	for _, o := range opts {
		o(c)
	}
	return c
}

// CFlex returns the current lag ratio C_flex.
func (c *Controller) CFlex() float64 { return c.cflex }

// AtFloor reports whether C_flex sits at its lower clamp — i.e. admission
// control is as loose as it can get and further Loosen signals are no-ops.
func (c *Controller) AtFloor() bool { return c.cflex <= minFlex }

// Tighten applies a TAC signal: C_flex grows by the step, making the
// deadline check stricter.
func (c *Controller) Tighten() {
	c.cflex *= 1 + step
	if c.cflex > maxFlex {
		c.cflex = maxFlex
	}
}

// Loosen applies an LAC signal: C_flex shrinks by the step, letting more
// queries in.
func (c *Controller) Loosen() {
	c.cflex *= 1 - step
	if c.cflex < minFlex {
		c.cflex = minFlex
	}
}

// Stats returns the cumulative admission decisions.
func (c *Controller) Stats() (admitted, rejectedDeadline, rejectedUSM int) {
	return c.admitted, c.rejectedDeadline, c.rejectedUSM
}

// Admit runs both admission gates for candidate q at the given time over
// the current queue state, updating the decision counters.
func (c *Controller) Admit(now float64, q *txn.Txn, view QueueView) Reason {
	if q.Class != txn.ClassQuery {
		panic(fmt.Sprintf("admission: Admit on non-query %v", q))
	}
	queued := c.scratch[:0]
	if bv, ok := view.(BulkView); ok {
		queued = bv.AppendQueuedQueries(queued)
	} else {
		queued = append(queued, view.QueuedQueries()...)
	}
	c.scratch = queued[:0]
	slices.SortFunc(queued, func(a, b *txn.Txn) int {
		if a.HigherPriority(b) {
			return -1
		}
		if b.HigherPriority(a) {
			return 1
		}
		return 0
	})
	base := view.RunningRemaining() + view.UpdateBacklog()

	// Gate 1 — transaction deadline check: C_flex·EST + qe < qt, with EST
	// the work dispatched ahead of q (running + update backlog + queued
	// queries with earlier deadlines).
	est := base
	for _, other := range queued {
		if other.HigherPriority(q) {
			est += other.Remaining
		}
	}
	if now+c.cflex*est+q.EstExec >= q.Deadline {
		c.rejectedDeadline++
		return RejectedDeadline
	}

	// Gate 2 — system USM check: q delays every queued query behind it by
	// qe. Sum the DMF penalties of the queries that delay newly endangers
	// (they would have finished in time without q, and no longer would).
	// When that exceeds the candidate's rejection cost, reject. The gate is
	// inert when both C_fm and C_r are zero (naive USM setting).
	endangeredCost := 0.0
	prefix := base
	for _, other := range queued {
		finish := now + prefix + other.Remaining
		if !other.HigherPriority(q) {
			wasSafe := finish < other.Deadline
			nowLate := finish+q.EstExec >= other.Deadline
			if wasSafe && nowLate {
				endangeredCost += c.resolve(other).Cfm
			}
		}
		prefix += other.Remaining
	}
	if endangeredCost > c.resolve(q).Cr {
		c.rejectedUSM++
		return RejectedUSM
	}
	c.admitted++
	return Admitted
}
