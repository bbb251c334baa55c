package datastore

import (
	"testing"
	"testing/quick"

	"unitdb/internal/stats"
)

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestApplyUpdateAdvancesVersion(t *testing.T) {
	s := New(4)
	s.ApplyUpdate(2, 3.14, 1.0)
	v, ver := s.Get(2)
	if v != 3.14 || ver != 1 {
		t.Fatalf("Get = (%v,%d)", v, ver)
	}
	s.ApplyUpdate(2, 2.71, 2.0)
	_, ver = s.Get(2)
	if ver != 2 {
		t.Fatalf("version = %d", ver)
	}
}

func TestFreshnessLifecycle(t *testing.T) {
	s := New(3)
	if s.ItemFreshness(0) != 1 {
		t.Fatal("new item fresh")
	}
	s.DropUpdate(0)
	if s.ItemFreshness(0) != 0.5 || s.Drops(0) != 1 {
		t.Fatalf("after drop: fresh=%v drops=%d", s.ItemFreshness(0), s.Drops(0))
	}
	s.ApplyUpdate(0, 1, 1)
	if s.ItemFreshness(0) != 1 || s.Drops(0) != 0 {
		t.Fatal("apply must supersede drops")
	}
}

func TestQueryFreshnessIsMin(t *testing.T) {
	s := New(3)
	s.DropUpdate(1)
	s.DropUpdate(1)
	s.DropUpdate(2)
	if got := s.QueryFreshness([]int{0}); got != 1 {
		t.Fatalf("fresh item -> %v", got)
	}
	if got := s.QueryFreshness([]int{0, 2}); got != 0.5 {
		t.Fatalf("min -> %v", got)
	}
	if got := s.QueryFreshness([]int{0, 1, 2}); got != 1.0/3 {
		t.Fatalf("min -> %v", got)
	}
	if got := s.QueryFreshness(nil); got != 1 {
		t.Fatalf("empty read set -> %v", got)
	}
}

func TestCounters(t *testing.T) {
	s := New(4)
	s.RecordAccess(1)
	s.RecordAccess(1)
	s.RecordAccess(3)
	s.ApplyUpdate(0, 1, 0)
	s.DropUpdate(0)
	s.DropUpdate(2)
	acc, app, drop := s.Totals()
	if acc != 3 || app != 1 || drop != 2 {
		t.Fatalf("totals = %d,%d,%d", acc, app, drop)
	}
	if a := s.AccessCounts(); a[1] != 2 || a[3] != 1 || a[0] != 0 {
		t.Fatalf("access counts = %v", a)
	}
	if a := s.AppliedCounts(); a[0] != 1 {
		t.Fatalf("applied counts = %v", a)
	}
	if a := s.DroppedCounts(); a[0] != 1 || a[2] != 1 {
		t.Fatalf("dropped counts = %v", a)
	}
}

func TestCountersAreCopies(t *testing.T) {
	s := New(2)
	s.RecordAccess(0)
	a := s.AccessCounts()
	a[0] = 999
	if s.AccessCounts()[0] != 1 {
		t.Fatal("AccessCounts leaked internal slice")
	}
}

func TestStaleItems(t *testing.T) {
	s := New(5)
	if s.StaleItems() != 0 {
		t.Fatal("fresh store")
	}
	s.DropUpdate(1)
	s.DropUpdate(1)
	s.DropUpdate(4)
	if s.StaleItems() != 2 {
		t.Fatalf("StaleItems = %d", s.StaleItems())
	}
	s.ApplyUpdate(1, 0, 0)
	if s.StaleItems() != 1 {
		t.Fatalf("StaleItems = %d", s.StaleItems())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(2)
	for _, fn := range []func(){
		func() { s.Get(2) },
		func() { s.Get(-1) },
		func() { s.ApplyUpdate(5, 0, 0) },
		func() { s.DropUpdate(5) },
		func() { s.RecordAccess(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range access did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestDropApplyProperty(t *testing.T) {
	// Invariant: freshness is 1/(1+drops since last apply), regardless of
	// the interleaving of operations.
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		s := New(8)
		drops := make([]int, 8)
		for op := 0; op < 200; op++ {
			i := rng.Intn(8)
			if rng.Float64() < 0.5 {
				s.DropUpdate(i)
				drops[i]++
			} else {
				s.ApplyUpdate(i, rng.Float64(), float64(op))
				drops[i] = 0
			}
			want := 1 / (1 + float64(drops[i]))
			if s.ItemFreshness(i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStaleItemsCounterProperty(t *testing.T) {
	// Invariant: the maintained stale count equals a brute-force scan of
	// Drops(i) > 0 after every step of any ApplyUpdate/DropUpdate
	// interleaving, including applies to fresh items and repeated drops.
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		const n = 64
		s := New(n)
		for op := 0; op < 2000; op++ {
			i := rng.Intn(n)
			if rng.Float64() < 0.6 {
				s.DropUpdate(i)
			} else {
				s.ApplyUpdate(i, rng.Float64(), float64(op))
			}
			want := 0
			for j := 0; j < n; j++ {
				if s.Drops(j) > 0 {
					want++
				}
			}
			if s.StaleItems() != want {
				t.Logf("seed %d op %d: StaleItems = %d, scan = %d", seed, op, s.StaleItems(), want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
