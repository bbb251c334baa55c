// Package datastore is the in-memory versioned store underneath the
// web-database server. It holds S data items (the paper folds the cello99a
// disk into S = 1024 regions), tracks per-item lag-based freshness (Udrop
// counters, paper Eq. 1), and keeps the per-item access and update counters
// from which the distributions of paper Fig. 3 are drawn.
package datastore

import (
	"fmt"

	"unitdb/internal/freshness"
)

// Item is one data item: its current value, version, and freshness state.
type Item struct {
	Value       float64
	Version     int64
	LastApplied float64 // time the last update committed
	lag         freshness.Lag
}

// Store is the in-memory database. It is not safe for concurrent use; the
// simulation engine is single-threaded and the live server wraps it in its
// own lock.
type Store struct {
	items []Item

	accesses      []int // queries that read each item (committed reads)
	applied       []int // updates committed per item
	dropped       []int // updates dropped per item
	totalAccesses int
	totalApplied  int
	totalDropped  int
	stale         int // items with Udrop > 0
}

// New creates a store with n data items, all fully fresh at version 0.
// It panics when n <= 0.
func New(n int) *Store {
	if n <= 0 {
		panic(fmt.Sprintf("datastore: need at least one item, got %d", n))
	}
	return &Store{
		items:    make([]Item, n),
		accesses: make([]int, n),
		applied:  make([]int, n),
		dropped:  make([]int, n),
	}
}

// Len returns the number of data items.
func (s *Store) Len() int { return len(s.items) }

// Get returns the current value and version of item i.
func (s *Store) Get(i int) (float64, int64) {
	s.check(i)
	return s.items[i].Value, s.items[i].Version
}

// ApplyUpdate commits an update: the item takes the new value, its version
// advances, and — because updates are full-value refreshes (paper footnote
// 2) — everything dropped before it is superseded, resetting Udrop.
func (s *Store) ApplyUpdate(i int, value, now float64) {
	s.check(i)
	it := &s.items[i]
	it.Value = value
	it.Version++
	it.LastApplied = now
	if it.lag.Drops() > 0 {
		s.stale--
	}
	it.lag.Apply()
	s.applied[i]++
	s.totalApplied++
}

// DropUpdate records an update that the system chose to skip (or that was
// superseded in queue by a newer one); the item grows one lag unit staler.
func (s *Store) DropUpdate(i int) {
	s.check(i)
	if s.items[i].lag.Drops() == 0 {
		s.stale++
	}
	s.items[i].lag.Drop()
	s.dropped[i]++
	s.totalDropped++
}

// RecordAccess counts one committed query read of item i.
func (s *Store) RecordAccess(i int) {
	s.check(i)
	s.accesses[i]++
	s.totalAccesses++
}

// Drops returns the Udrop counter of item i: updates dropped since the last
// applied one.
func (s *Store) Drops(i int) int {
	s.check(i)
	return s.items[i].lag.Drops()
}

// ItemFreshness returns the lag-based freshness of item i (Eq. 1 numerator
// for a single item).
func (s *Store) ItemFreshness(i int) float64 {
	s.check(i)
	return s.items[i].lag.Value(0)
}

// QueryFreshness returns Qu over the given read set: the minimum of the
// item freshness values (paper Eq. 1). An empty read set is fully fresh.
func (s *Store) QueryFreshness(items []int) float64 {
	min := 1.0
	for _, i := range items {
		v := s.ItemFreshness(i)
		if v < min {
			min = v
		}
	}
	return min
}

// AccessCounts returns a copy of the per-item committed-read counters.
func (s *Store) AccessCounts() []int { return copyInts(s.accesses) }

// AppliedCounts returns a copy of the per-item applied-update counters.
func (s *Store) AppliedCounts() []int { return copyInts(s.applied) }

// DroppedCounts returns a copy of the per-item dropped-update counters.
func (s *Store) DroppedCounts() []int { return copyInts(s.dropped) }

// Totals returns the store-wide access/applied/dropped counters.
func (s *Store) Totals() (accesses, applied, dropped int) {
	return s.totalAccesses, s.totalApplied, s.totalDropped
}

// StaleItems returns how many items currently have at least one pending
// dropped update. ApplyUpdate and DropUpdate, the only lag mutators, keep
// the count, so this is O(1).
func (s *Store) StaleItems() int { return s.stale }

func (s *Store) check(i int) {
	if i < 0 || i >= len(s.items) {
		panic(fmt.Sprintf("datastore: item %d out of range [0,%d)", i, len(s.items)))
	}
}

func copyInts(xs []int) []int {
	out := make([]int, len(xs))
	copy(out, xs)
	return out
}
