package backoff

import (
	"testing"
	"time"
)

// TestEnvelope: the nth delay (since the last Reset) lies in
// [d/2, d], d = min(Cap, Base<<n).
func TestEnvelope(t *testing.T) {
	base, cap := 100*time.Millisecond, 2*time.Second
	b := New(7, base, cap)
	for n := 0; n < 20; n++ {
		d := cap
		if n < 62 {
			if grown := base << uint(n); grown < cap && grown > 0 {
				d = grown
			}
		}
		got := b.Next()
		if got < d/2 || got > d {
			t.Errorf("delay %d = %v, want within [%v, %v]", n, got, d/2, d)
		}
	}
}

// TestDeterministicAcrossInstances: same seed, same sequence.
func TestDeterministicAcrossInstances(t *testing.T) {
	a, b := New(42, 0, 0), New(42, 0, 0)
	for i := 0; i < 50; i++ {
		if da, db := a.Next(), b.Next(); da != db {
			t.Fatalf("delay %d: %v vs %v under one seed", i, da, db)
		}
	}
	c := New(43, 0, 0)
	same := true
	a.Reset()
	a = New(42, 0, 0)
	for i := 0; i < 10; i++ {
		if a.Next() != c.Next() {
			same = false
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical sequences")
	}
}

// TestResetRewindsExponentNotJitter: after Reset the envelope restarts
// at Base, but the jitter stream does not replay — two schedules that
// reset at different points diverge.
func TestResetRewindsExponentNotJitter(t *testing.T) {
	b := New(1, 100*time.Millisecond, 10*time.Second)
	for i := 0; i < 5; i++ {
		b.Next()
	}
	if b.attempt != 5 {
		t.Fatalf("attempt = %d, want 5", b.attempt)
	}
	b.Reset()
	if b.attempt != 0 {
		t.Fatalf("attempt after Reset = %d, want 0", b.attempt)
	}
	first := b.Next()
	if first < 50*time.Millisecond || first > 100*time.Millisecond {
		t.Errorf("post-Reset delay %v outside first-attempt envelope", first)
	}
	fresh := New(1, 100*time.Millisecond, 10*time.Second)
	if fresh.Next() == first {
		t.Error("post-Reset delay replayed the jitter stream from the start")
	}
}

// TestDefaultsAndClamps: non-positive base/cap fall back to the
// defaults, cap below base is raised to base.
func TestDefaultsAndClamps(t *testing.T) {
	b := New(1, 0, 0)
	if d := b.Next(); d < DefaultBase/2 || d > DefaultBase {
		t.Errorf("default first delay %v outside [%v, %v]", d, DefaultBase/2, DefaultBase)
	}
	b = New(1, time.Second, time.Millisecond)
	if d := b.Next(); d < time.Second/2 || d > time.Second {
		t.Errorf("cap<base first delay %v outside [%v, %v]", d, time.Second/2, time.Second)
	}
}
