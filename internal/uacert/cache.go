package uacert

import (
	"crypto/sha1"
	"sync"
	"sync/atomic"
)

// parseCache memoizes successful Parse results keyed by the SHA-1 of
// the DER encoding — the same identity OPC UA itself uses for
// certificate thumbprints. The paper's deployments reuse certificates
// heavily (Figure 5's largest cluster serves one certificate from 385
// hosts), and the scanner presents a single client certificate to every
// server, so almost every parse in a measurement wave is a repeat.
var parseCache sync.Map // [sha1.Size]byte -> *Certificate

// parseCacheLimit caps the number of memoized certificates: cmd/uascan's
// handshakes parse whatever certificate a real server presents, and an
// unbounded table would let peers with endless distinct certificates
// grow it into a memory-exhaustion vector. The cap is far above the
// simulated population (~1.2k distinct certificates), so measurement
// campaigns always hit the fast path; past it, new certificates are
// parsed uncached. A var so tests can exercise the bound without
// minting thousands of certificates.
var parseCacheLimit int64 = 4096

var parseCacheSize atomic.Int64

// ParseCached is Parse with memoization. The returned *Certificate is
// shared across callers and must be treated as immutable (Parse already
// returns a fully materialized value that nothing mutates afterwards).
// Parse failures are not cached; malformed input stays cheap to reject
// and never poisons the table.
func ParseCached(der []byte) (*Certificate, error) {
	key := sha1.Sum(der)
	if v, ok := parseCache.Load(key); ok {
		return v.(*Certificate), nil
	}
	c, err := Parse(der)
	if err != nil {
		return nil, err
	}
	if parseCacheSize.Load() >= parseCacheLimit {
		return c, nil
	}
	// Concurrent misses may both parse; LoadOrStore keeps the first so
	// every caller observes one canonical instance per thumbprint. The
	// size check above may overshoot by a few in-flight entries, which
	// is fine — the limit is a bound on growth, not an exact quota.
	if v, loaded := parseCache.LoadOrStore(key, c); loaded {
		return v.(*Certificate), nil
	}
	parseCacheSize.Add(1)
	return c, nil
}
