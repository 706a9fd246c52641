package uarsa

import "repro/internal/telemetry"

// PublishTo registers the engine as the registry's "uarsa" snapshot
// source: every telemetry.Snapshot re-exports the engine's own atomic
// hit/miss/evict counters (crypto_<op>_<kind>) and the live cache entry
// count (crypto_entries), so campaign observability is one surface and
// Campaign.CryptoStats becomes just another view of the same numbers.
// The engine keeps sole ownership of its counters — the registry reads
// them only at snapshot time, never on the Get/Put hot path. No-op when
// either side is nil.
func (e *Engine) PublishTo(reg *telemetry.Registry) {
	if e == nil || reg == nil {
		return
	}
	reg.SetSource("uarsa", func(s *telemetry.Snapshot) {
		st := e.Stats()
		for _, op := range []struct {
			name string
			OpStats
		}{
			{"sign", st.Sign}, {"verify", st.Verify}, {"decrypt", st.Decrypt},
			{"encrypt", st.Encrypt},
		} {
			s.SetCounter("crypto_"+op.name+"_hits", op.Hits)
			s.SetCounter("crypto_"+op.name+"_misses", op.Misses)
			s.SetCounter("crypto_"+op.name+"_evictions", op.Evictions)
		}
		s.SetGauge("crypto_entries", int64(st.Entries))
	})
}
