package uarsa

import (
	"fmt"

	"repro/internal/telemetry"
)

// PublishTo adds the engine to the registry's snapshot sources: every
// telemetry.Snapshot adds the engine's own atomic hit/miss/evict
// counters to crypto_<op>_<kind> and its live cache entry count to
// crypto_entries, so campaign observability is one surface and
// Campaign.CryptoStats becomes just another view of the same numbers.
// Engines fold additively: a registry shared by several campaigns — a
// fabric's concurrent leases, a worker's successive ones — reports the
// sum over their engines, and publishing one engine twice counts it
// once. The engine keeps sole ownership of its counters — the registry
// reads them only at snapshot time, never on the Get/Put hot path — and
// the registry keeps a published engine reachable for as long as the
// registry lives. No-op when either side is nil.
func (e *Engine) PublishTo(reg *telemetry.Registry) {
	if e == nil || reg == nil {
		return
	}
	reg.SetSource(fmt.Sprintf("uarsa %p", e), func(s *telemetry.Snapshot) {
		st := e.Stats()
		for _, op := range []struct {
			name string
			OpStats
		}{
			{"sign", st.Sign}, {"verify", st.Verify}, {"decrypt", st.Decrypt},
			{"encrypt", st.Encrypt},
		} {
			s.AddCounter("crypto_"+op.name+"_hits", op.Hits)
			s.AddCounter("crypto_"+op.name+"_misses", op.Misses)
			s.AddCounter("crypto_"+op.name+"_evictions", op.Evictions)
		}
		s.AddGauge("crypto_entries", int64(st.Entries))
	})
}
