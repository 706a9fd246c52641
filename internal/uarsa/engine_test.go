package uarsa

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"encoding/binary"
	"sync"
	"testing"
)

func testDigest(i int) [32]byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(i))
	return Digest(b[:])
}

func TestEngineGetPut(t *testing.T) {
	e := NewEngine(0)
	var fp Fingerprint
	fp[0] = 7
	dg := testDigest(1)
	if _, ok := e.Get(OpSign, 1, fp, dg); ok {
		t.Fatal("empty engine reported a hit")
	}
	e.Put(OpSign, 1, fp, dg, []byte("sig"))
	v, ok := e.Get(OpSign, 1, fp, dg)
	if !ok || string(v) != "sig" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	// Same digest under a different op, scheme or fingerprint must miss.
	if _, ok := e.Get(OpDecrypt, 1, fp, dg); ok {
		t.Error("hit across op kinds")
	}
	if _, ok := e.Get(OpSign, 2, fp, dg); ok {
		t.Error("hit across schemes")
	}
	var fp2 Fingerprint
	fp2[0] = 8
	if _, ok := e.Get(OpSign, 1, fp2, dg); ok {
		t.Error("hit across key fingerprints")
	}
	st := e.Stats()
	if st.Sign.Hits != 1 || st.Sign.Misses != 3 || st.Decrypt.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
}

// TestEngineBoundedEviction fills a tiny engine far past its budget and
// checks the bound holds, evictions are counted, and recently used
// entries survive rotation.
func TestEngineBoundedEviction(t *testing.T) {
	const maxEntries = 256
	e := NewEngine(maxEntries)
	var fp Fingerprint
	hot := testDigest(0)
	e.Put(OpSign, 0, fp, hot, []byte("hot"))
	for i := 1; i < 64*maxEntries; i++ {
		e.Put(OpDecrypt, 0, fp, testDigest(i), []byte("cold"))
		// Touch the hot entry so generation rotation keeps promoting it.
		if _, ok := e.Get(OpSign, 0, fp, hot); !ok {
			t.Fatalf("hot entry evicted after %d inserts", i)
		}
	}
	st := e.Stats()
	if st.Entries > maxEntries+2*numShards {
		t.Errorf("entries = %d, exceeds budget %d", st.Entries, maxEntries)
	}
	if st.Decrypt.Evictions == 0 {
		t.Error("no evictions counted despite 16k inserts into a 256-entry engine")
	}
	if st.Sign.Hits == 0 {
		t.Error("hot entry never hit")
	}
}

// TestEnginePromotionStats pins the observability contract: promoting
// an entry out of the previous generation must not leave a duplicate
// behind — the entry counts once in Stats.Entries and is never reported
// as an eviction while it is still cached.
func TestEnginePromotionStats(t *testing.T) {
	e := NewEngine(128) // capPerShard = 1: every insert rotates
	var fp Fingerprint
	// Two digests landing in the same shard.
	d1 := testDigest(0)
	d2 := d1
	for i := 1; ; i++ {
		d2 = testDigest(i)
		if e.shardFor(ptrKey(OpSign, 0, fp, d2)) == e.shardFor(ptrKey(OpSign, 0, fp, d1)) {
			break
		}
	}
	e.Put(OpSign, 0, fp, d1, []byte("a"))
	e.Put(OpSign, 0, fp, d2, []byte("b")) // rotates: d1 moves to prev
	if _, ok := e.Get(OpSign, 0, fp, d1); !ok {
		t.Fatal("entry lost after one rotation")
	}
	st := e.Stats()
	if st.Entries != 2 {
		t.Errorf("entries = %d after promotion, want 2 (no duplicate across generations)", st.Entries)
	}
	if st.Sign.Evictions != 0 {
		t.Errorf("evictions = %d, want 0 — both entries are still cached", st.Sign.Evictions)
	}
}

func ptrKey(op Op, scheme uint8, fp Fingerprint, digest [32]byte) *cacheKey {
	k := makeKey(op, scheme, fp, digest)
	return &k
}

// TestEngineConcurrent exercises the shard locking under the race
// detector: many goroutines mixing hits, misses and rotations.
func TestEngineConcurrent(t *testing.T) {
	e := NewEngine(512)
	var fp Fingerprint
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				dg := testDigest(i % 700)
				if v, ok := e.Get(OpSign, 0, fp, dg); ok {
					if len(v) != 3 {
						t.Errorf("corrupt value %q", v)
						return
					}
					continue
				}
				e.Put(OpSign, 0, fp, dg, []byte("sig"))
			}
		}(g)
	}
	wg.Wait()
	st := e.Stats()
	if st.Sign.Hits == 0 || st.Sign.Misses == 0 {
		t.Errorf("expected mixed hits and misses, got %+v", st.Sign)
	}
}

// TestKeyFingerprintCollisionSafety pins the collision-safety argument:
// distinct keys get distinct fingerprints, the same key yields a stable
// fingerprint, and an entry stored under one key is invisible under
// another even for identical input digests.
func TestKeyFingerprintCollisionSafety(t *testing.T) {
	k1, err := rsa.GenerateKey(rand.Reader, 512)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := rsa.GenerateKey(rand.Reader, 512)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(0)
	fp1 := e.Fingerprint(&k1.PublicKey)
	fp2 := e.Fingerprint(&k2.PublicKey)
	if fp1 == fp2 {
		t.Fatal("distinct keys share a fingerprint")
	}
	if e.Fingerprint(&k1.PublicKey) != fp1 || KeyFingerprint(&k1.PublicKey) != fp1 {
		t.Error("fingerprint not stable across calls and cache layers")
	}
	// A copy of the same public key (different pointer) must agree.
	cp := k1.PublicKey
	if e.Fingerprint(&cp) != fp1 {
		t.Error("fingerprint depends on pointer identity, not key material")
	}

	dg := Digest([]byte("same input"))
	e.Put(OpSign, 1, fp1, dg, []byte("sig-for-k1"))
	if _, ok := e.Get(OpSign, 1, fp2, dg); ok {
		t.Error("k2 observed k1's cached signature")
	}
	if v, ok := e.Get(OpSign, 1, fp1, dg); !ok || string(v) != "sig-for-k1" {
		t.Errorf("k1 lookup = %q, %v", v, ok)
	}
}

func TestDigestLengthFraming(t *testing.T) {
	a := Digest([]byte("ab"), []byte("c"))
	b := Digest([]byte("a"), []byte("bc"))
	if a == b {
		t.Error("digest ignores part boundaries")
	}
	if Digest([]byte("abc")) == Digest([]byte("abc"), nil) {
		t.Error("digest ignores empty trailing part")
	}
}

func TestNilEngineIsInert(t *testing.T) {
	var e *Engine
	var fp Fingerprint
	if _, ok := e.Get(OpSign, 0, fp, testDigest(0)); ok {
		t.Error("nil engine hit")
	}
	e.Put(OpSign, 0, fp, testDigest(0), nil)
	if st := e.Stats(); st.Entries != 0 {
		t.Error("nil engine holds entries")
	}
}

func TestStreamDeterminism(t *testing.T) {
	d := NewDerivation([]byte("seed"))
	a := make([]byte, 100)
	b := make([]byte, 100)
	_, _ = d.Stream("label").Read(a)
	_, _ = d.Stream("label").Read(b)
	if !bytes.Equal(a, b) {
		t.Error("same label, different bytes")
	}
	// Chunked reads see the identical stream.
	c := make([]byte, 100)
	s := d.Stream("label")
	for i := range c {
		_, _ = s.Read(c[i : i+1])
	}
	if !bytes.Equal(a, c) {
		t.Error("chunked reads diverge from bulk reads")
	}
	_, _ = d.Stream("other").Read(b)
	if bytes.Equal(a, b) {
		t.Error("labels are not independent")
	}
	_, _ = NewDerivation([]byte("seed2")).Stream("label").Read(b)
	if bytes.Equal(a, b) {
		t.Error("seeds are not independent")
	}
	if d.Uint32("id") != d.Uint32("id") {
		t.Error("Uint32 not deterministic")
	}
}

// TestStreamSeed pins what a memo key may rely on: equal seeds mean
// equal streams, and "unconsumed" ends with the first byte read (also a
// zero-length Read leaves it, a zero Stream never has it).
func TestStreamSeed(t *testing.T) {
	d := NewDerivation([]byte("seed"))
	s := d.Stream("label")
	seed, unconsumed := s.Seed()
	if again, _ := d.Stream("label").Seed(); !unconsumed || seed != again {
		t.Error("a fresh stream is not unconsumed, or equal labels differ in seed")
	}
	if other, _ := d.Stream("other").Seed(); other == seed {
		t.Error("two labels share a seed")
	}
	if other, _ := NewDerivation([]byte("seed2")).Stream("label").Seed(); other == seed {
		t.Error("two derivations share a seed")
	}
	_, _ = s.Read(nil)
	if _, unconsumed := s.Seed(); !unconsumed {
		t.Error("an empty read consumed the stream")
	}
	_, _ = s.Read(make([]byte, 1))
	if after, unconsumed := s.Seed(); unconsumed || after != seed {
		t.Error("a read stream still reports unconsumed, or its seed moved")
	}
	if _, unconsumed := new(Stream).Seed(); unconsumed {
		t.Error("a zero Stream reports unconsumed")
	}
}

func TestSuiteExchange(t *testing.T) {
	s := &Suite{Engine: NewEngine(0), Seed: 2020, Deterministic: true}
	d1 := s.Exchange([]byte("purpose"), []byte("cert"))
	d2 := s.Exchange([]byte("purpose"), []byte("cert"))
	if d1.seed != d2.seed {
		t.Error("equal exchange parts, different derivations")
	}
	if d1.seed == s.Exchange([]byte("purpose"), []byte("other")).seed {
		t.Error("different certs share a derivation")
	}
	other := &Suite{Engine: nil, Seed: 2021, Deterministic: true}
	if d1.seed == other.Exchange([]byte("purpose"), []byte("cert")).seed {
		t.Error("different campaign seeds share a derivation")
	}
	if (&Suite{Deterministic: false}).Exchange([]byte("x")) != nil {
		t.Error("non-deterministic suite returned a derivation")
	}
	var nilSuite *Suite
	if nilSuite.Exchange([]byte("x")) != nil || nilSuite.EngineOrNil() != nil {
		t.Error("nil suite not inert")
	}
}
