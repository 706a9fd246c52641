package uacert

import "sync"

// parseCache memoizes successful Parse results keyed by the DER bytes
// themselves. The paper's deployments reuse certificates heavily
// (Figure 5's largest cluster serves one certificate from 385 hosts),
// and the scanner presents a single client certificate to every
// server, so almost every parse in a measurement wave is a repeat. A
// hit is one map lookup: indexing by string(der) neither copies the DER
// nor hashes it with anything but the map's own hash, and the
// certificate it returns already carries its thumbprint.
var parseCache = struct {
	sync.Mutex
	m map[string]*Certificate
}{m: make(map[string]*Certificate)}

// parseCacheLimit caps the number of memoized certificates: cmd/uascan's
// handshakes parse whatever certificate a real server presents, and an
// unbounded table would let peers with endless distinct certificates
// grow it into a memory-exhaustion vector. The cap is far above the
// simulated population (~1.2k distinct certificates), so measurement
// campaigns always hit the fast path; past it, new certificates are
// parsed uncached. A var so tests can exercise the bound without
// minting thousands of certificates.
var parseCacheLimit = 4096

// ParseCached is Parse with memoization. The returned *Certificate is
// shared across callers and must be treated as immutable (Parse already
// returns a fully materialized value that nothing mutates afterwards).
// Parse failures are not cached; malformed input stays cheap to reject
// and never poisons the table.
func ParseCached(der []byte) (*Certificate, error) {
	parseCache.Lock()
	c, ok := parseCache.m[string(der)]
	parseCache.Unlock()
	if ok {
		return c, nil
	}
	c, err := Parse(der)
	if err != nil {
		return nil, err
	}
	parseCache.Lock()
	defer parseCache.Unlock()
	// Concurrent misses may both parse; the first to store wins, so
	// every caller observes one canonical instance per DER.
	if prev, ok := parseCache.m[string(der)]; ok {
		return prev, nil
	}
	if len(parseCache.m) >= parseCacheLimit {
		return c, nil
	}
	parseCache.m[string(c.Raw)] = c
	return c, nil
}
