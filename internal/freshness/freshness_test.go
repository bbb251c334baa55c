package freshness

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLagFreshSequence(t *testing.T) {
	l := NewLag()
	if l.Value() != 1 {
		t.Fatal("new item must be fully fresh")
	}
	l.Drop()
	if l.Value() != 0.5 {
		t.Fatalf("1 drop -> %v, want 0.5", l.Value())
	}
	l.Drop()
	if math.Abs(l.Value()-1.0/3) > 1e-12 {
		t.Fatalf("2 drops -> %v", l.Value())
	}
	if l.Drops() != 2 {
		t.Fatalf("Drops = %d", l.Drops())
	}
	l.Apply()
	if l.Value() != 1 || l.Drops() != 0 {
		t.Fatal("apply must reset staleness")
	}
}

func TestLagMonotoneProperty(t *testing.T) {
	// Freshness is strictly decreasing in drops and always in (0, 1].
	f := func(nRaw uint8) bool {
		l := NewLag()
		prev := l.Value()
		for i := 0; i < int(nRaw%100); i++ {
			l.Drop()
			v := l.Value()
			if v <= 0 || v > 1 || v >= prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
