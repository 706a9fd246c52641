package uarsa

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/telemetry"
)

// TestOpStatsHitRateEdges pins the HitRate contract at its boundaries:
// an idle counter (no traffic at all) and an all-miss counter must both
// report 0, not NaN or a division panic, because the campaign summary
// renders the rate unconditionally.
func TestOpStatsHitRateEdges(t *testing.T) {
	if r := (OpStats{}).HitRate(); r != 0 {
		t.Errorf("idle HitRate = %v, want 0", r)
	}
	if r := (OpStats{Misses: 17}).HitRate(); r != 0 {
		t.Errorf("all-miss HitRate = %v, want 0", r)
	}
	if r := (OpStats{Hits: 3, Misses: 1}).HitRate(); r != 0.75 {
		t.Errorf("HitRate = %v, want 0.75", r)
	}
	if r := (OpStats{Hits: 5}).HitRate(); r != 1 {
		t.Errorf("all-hit HitRate = %v, want 1", r)
	}
	// The engine-level view inherits the same edges.
	var nilEngine *Engine
	if r := nilEngine.Stats().Sign.HitRate(); r != 0 {
		t.Errorf("nil engine HitRate = %v, want 0", r)
	}
}

// TestEngineStatsRaceUnderTraffic hammers Stats() — and the telemetry
// snapshot source layered on it — while writers drive sign, verify,
// decrypt and encrypt traffic. Run under -race in CI. Beyond data-race
// freedom it pins two invariants every intermediate snapshot must
// satisfy: per-op totals only grow, and no counter ever runs backwards
// between consecutive reads.
func TestEngineStatsRaceUnderTraffic(t *testing.T) {
	e := NewEngine(256)
	reg := telemetry.New()
	e.PublishTo(reg)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			op := Op(g % int(numOps))
			var fp Fingerprint
			fp[0] = byte(op)
			// A floor of two digest cycles guarantees mixed hits and
			// misses even if the reader finishes before this goroutine is
			// first scheduled; past the floor, run until the reader stops.
			for i := 0; i < 600 || !stop.Load(); i++ {
				dg := testDigest(i % 300)
				if _, ok := e.Get(op, 0, fp, dg); !ok {
					e.Put(op, 0, fp, dg, []byte("val"))
				}
			}
		}(g)
	}

	prev := Stats{}
	monotonic := func(name string, prev, cur OpStats) {
		t.Helper()
		if cur.Hits < prev.Hits || cur.Misses < prev.Misses || cur.Evictions < prev.Evictions {
			t.Errorf("%s counters ran backwards: %+v -> %+v", name, prev, cur)
		}
	}
	for i := 0; i < 2000; i++ {
		cur := e.Stats()
		monotonic("sign", prev.Sign, cur.Sign)
		monotonic("verify", prev.Verify, cur.Verify)
		monotonic("decrypt", prev.Decrypt, cur.Decrypt)
		monotonic("encrypt", prev.Encrypt, cur.Encrypt)
		prev = cur
		// Every other read goes through the registry snapshot path, so
		// the "uarsa" source races against the same traffic.
		if i%2 == 0 {
			s := reg.Snapshot()
			// The snapshot ran strictly after Stats() and every counter is
			// monotonic, so the registry view can only be newer.
			if s.Counters["crypto_sign_hits"]+s.Counters["crypto_sign_misses"] <
				prev.Sign.Hits+prev.Sign.Misses {
				t.Errorf("snapshot ran backwards: %+v vs %+v", s.Counters, prev.Sign)
			}
		}
	}
	stop.Store(true)
	wg.Wait()

	s := reg.Snapshot()
	st := e.Stats()
	hits := st.Sign.Hits + st.Verify.Hits + st.Decrypt.Hits + st.Encrypt.Hits
	misses := st.Sign.Misses + st.Verify.Misses + st.Decrypt.Misses + st.Encrypt.Misses
	if hits == 0 || misses == 0 || st.Encrypt.Hits == 0 {
		t.Errorf("expected mixed traffic on every operation, got %+v", st)
	}
	if s.Counters["crypto_sign_hits"] != st.Sign.Hits ||
		s.Counters["crypto_verify_misses"] != st.Verify.Misses ||
		s.Counters["crypto_decrypt_hits"] != st.Decrypt.Hits ||
		s.Counters["crypto_encrypt_hits"] != st.Encrypt.Hits ||
		s.Counters["crypto_encrypt_misses"] != st.Encrypt.Misses {
		t.Errorf("quiesced snapshot disagrees with Stats(): %v vs %+v", s.Counters, st)
	}
	if s.Gauges["crypto_entries"] != int64(st.Entries) {
		t.Errorf("crypto_entries = %d, want %d", s.Gauges["crypto_entries"], st.Entries)
	}
}

// TestPublishToSumsEngines publishes two engines to one registry, one of
// them twice: the snapshot reports each counter and the entry gauge as
// the sum over the two engines.
func TestPublishToSumsEngines(t *testing.T) {
	reg := telemetry.New()
	engines := []*Engine{NewEngine(256), NewEngine(256)}
	for n, e := range engines {
		var fp Fingerprint
		for i := 0; i <= n; i++ {
			dg := testDigest(i)
			if _, ok := e.Get(OpSign, 0, fp, dg); !ok {
				e.Put(OpSign, 0, fp, dg, []byte("sig"))
			}
			e.Get(OpSign, 0, fp, dg)
		}
		e.PublishTo(reg)
	}
	engines[0].PublishTo(reg)
	s := reg.Snapshot()
	a, b := engines[0].Stats(), engines[1].Stats()
	if got, want := s.Counters["crypto_sign_misses"], a.Sign.Misses+b.Sign.Misses; got != want || want != 3 {
		t.Errorf("crypto_sign_misses = %d, want %d (3)", got, want)
	}
	if got, want := s.Counters["crypto_sign_hits"], a.Sign.Hits+b.Sign.Hits; got != want || want != 3 {
		t.Errorf("crypto_sign_hits = %d, want %d (3)", got, want)
	}
	if got, want := s.Gauges["crypto_entries"], int64(a.Entries+b.Entries); got != want || want != 3 {
		t.Errorf("crypto_entries = %d, want %d (3)", got, want)
	}
}
