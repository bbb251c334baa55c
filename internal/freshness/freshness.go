// Package freshness implements the lag-based data-freshness metric of
// paper Eq. 1, the one of the three classes surveyed in §2.2 that UNIT
// optimizes. A tracker scores one data item in (0, 1]; query freshness
// (internal/datastore) aggregates item scores with a strict minimum.
package freshness

// Lag is the lag-based tracker of paper Eq. 1: with k updates dropped since
// the last applied one, freshness is 1/(1+k). This is the metric UNIT
// optimizes, suitable for periodic full-value refresh feeds.
type Lag struct {
	drops int
}

// NewLag returns a fully fresh lag tracker.
func NewLag() *Lag { return &Lag{} }

// Drop records one dropped (skipped) update.
func (l *Lag) Drop() { l.drops++ }

// Apply records a successfully applied update, which supersedes everything
// dropped before it.
func (l *Lag) Apply() { l.drops = 0 }

// Drops returns the number of updates dropped since the last applied one
// (Udrop in the paper).
func (l *Lag) Drops() int { return l.drops }

// Value returns the item's freshness score, 1/(1+Udrop).
func (l *Lag) Value() float64 { return 1 / (1 + float64(l.drops)) }
