// Package backoff is the repository's one deterministic retry
// schedule: exponential growth with seeded jitter. The shard fabric's
// dial/reconnect loop and the scanner's probe-retry budget share the
// one envelope; the scanner sits below fabric in the import graph
// (fabric → dataset → scanner), so the implementation lives here.
package backoff

import (
	"math/rand"
	"time"
)

// Backoff is a deterministic retry schedule: exponential growth from
// Base to Cap with seeded jitter drawn from its own rand.Rand — never
// the global source — so the delay sequence is a pure function of
// (seed, call sequence) and identical across processes (the studyvet
// determinism rules hold; the analyzer runs over this package). Jitter
// keeps a fleet of retriers restarted by one event from thundering
// back in lockstep; determinism keeps test runs and incident
// reconstructions exact.
//
// The nth delay (0-based, since the last Reset) is uniformly drawn
// from [d/2, d] where d = min(Cap, Base<<n). Reset rewinds the
// exponent after a success; the jitter stream deliberately does NOT
// rewind — position in the stream encodes retry history, and replaying
// it would synchronize two retriers that happened to reset together.
type Backoff struct {
	rng     *rand.Rand
	base    time.Duration
	cap     time.Duration
	attempt int
}

// Default retry shape for worker dial/reconnect loops.
const (
	DefaultBase = 100 * time.Millisecond
	DefaultCap  = 10 * time.Second
)

// New returns a schedule seeded for determinism. Non-positive base/cap
// fall back to the defaults; cap below base is raised to base.
func New(seed int64, base, cap time.Duration) *Backoff {
	if base <= 0 {
		base = DefaultBase
	}
	if cap <= 0 {
		cap = DefaultCap
	}
	if cap < base {
		cap = base
	}
	return &Backoff{
		rng:  rand.New(rand.NewSource(seed)),
		base: base,
		cap:  cap,
	}
}

// Next returns the next delay and advances the schedule.
func (b *Backoff) Next() time.Duration {
	d := b.cap
	// Guard the shift: past 62 doublings the duration has long been
	// capped and the shift would overflow.
	if b.attempt < 62 {
		if grown := b.base << uint(b.attempt); grown < b.cap && grown > 0 {
			d = grown
		}
	}
	b.attempt++
	half := int64(d / 2)
	return time.Duration(half + b.rng.Int63n(half+1))
}

// Reset rewinds the exponent to Base after a successful attempt. The
// jitter stream keeps advancing (see type doc).
func (b *Backoff) Reset() { b.attempt = 0 }
