package uacert

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestParseCachedMatchesParse pins the memoized parse against the
// uncached one — same fields, errors on the same inputs — and that
// repeated parses of the same DER (even through a different backing
// slice) return one shared instance.
func TestParseCachedMatchesParse(t *testing.T) {
	key := testKey(t, 0)
	cert, err := Generate(key, Options{
		CommonName:     "cache test",
		Organization:   "Test Org",
		ApplicationURI: "urn:test:cache",
		SignatureHash:  HashSHA1,
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Parse(cert.Raw)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := ParseCached(cert.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, cached) {
		t.Error("ParseCached result differs from Parse")
	}
	again, err := ParseCached(append([]byte(nil), cert.Raw...))
	if err != nil {
		t.Fatal(err)
	}
	if again != cached {
		t.Error("repeated ParseCached did not return the shared instance")
	}
	if _, err := ParseCached([]byte("not DER")); err == nil {
		t.Error("ParseCached accepted garbage")
	}
	// Failures are not cached: the same garbage fails again.
	if _, err := ParseCached([]byte("not DER")); err == nil {
		t.Error("ParseCached accepted garbage on the second call")
	}
}

// TestParseCachedConcurrentOneInstance races first parses of eight DERs,
// each caller with its own copy of the bytes: whichever miss stores
// first, every caller of one DER gets that one instance.
func TestParseCachedConcurrentOneInstance(t *testing.T) {
	var ders [8][]byte
	for i := range ders {
		cert, err := Generate(testKey(t, 0), Options{CommonName: fmt.Sprintf("concurrent %d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ders[i] = cert.Raw
	}
	var got [8][8]*Certificate
	start := make(chan struct{})
	var wg sync.WaitGroup
	for d := range got {
		for i := range got[d] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				der := append([]byte(nil), ders[d]...)
				<-start
				got[d][i], _ = ParseCached(der)
			}()
		}
	}
	close(start)
	wg.Wait()
	for d := range got {
		for i, c := range got[d] {
			if c == nil || c != got[d][0] || string(c.Raw) != string(ders[d]) {
				t.Fatalf("DER %d: caller %d got %p, caller 0 %p", d, i, c, got[d][0])
			}
		}
	}
}

// TestParseCacheBounded pins the memoization cap: past parseCacheLimit
// new certificates still parse correctly but are no longer retained,
// so a peer presenting endless distinct certificates cannot grow the
// table without bound.
func TestParseCacheBounded(t *testing.T) {
	key := testKey(t, 1)
	mint := func(cn string) []byte {
		t.Helper()
		cert, err := Generate(key, Options{CommonName: cn})
		if err != nil {
			t.Fatal(err)
		}
		return cert.Raw
	}
	limit := parseCacheLimit
	defer func() { parseCacheLimit = limit }()
	parseCacheLimit = parseCacheLen() // table is "full" right now

	capped := mint("past the cap")
	a, err := ParseCached(capped)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseCached(capped)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("certificate was cached past the limit")
	}
	if a.SubjectCN != "past the cap" || b.SubjectCN != a.SubjectCN {
		t.Error("uncached parse returned wrong certificate")
	}

	parseCacheLimit = parseCacheLen() + 1
	again := mint("under the cap again")
	c1, err := ParseCached(again)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ParseCached(again)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("certificate under the raised limit was not cached")
	}
}

func parseCacheLen() int {
	parseCache.Lock()
	defer parseCache.Unlock()
	return len(parseCache.m)
}

// TestIdentityLookupsAllocateNothing pins the hot-path cost of a
// certificate's identity: reading its hex thumbprint and a ParseCached
// hit allocate nothing.
func TestIdentityLookupsAllocateNothing(t *testing.T) {
	cert, err := Generate(testKey(t, 0), Options{CommonName: "allocs"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseCached(cert.Raw); err != nil {
		t.Fatal(err)
	}
	var sink string
	if n := testing.AllocsPerRun(100, func() { sink = cert.ThumbprintHex() }); n != 0 {
		t.Errorf("ThumbprintHex allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		c, _ := ParseCached(cert.Raw)
		sink = c.SubjectCN
	}); n != 0 {
		t.Errorf("ParseCached hit allocates %v times per call", n)
	}
	_ = sink
}

// TestDeterministicKeyReproducible pins the property the multi-process
// shard workers depend on: the same label parts always derive the same
// key, different parts derive different keys, and two deterministic
// pools built from one seed agree at every index (including through a
// concurrent fill).
func TestDeterministicKeyReproducible(t *testing.T) {
	a, err := DeterministicKey(512, []byte("test"), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := DeterministicKey(512, []byte("test"), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if a.N.Cmp(b.N) != 0 || a.D.Cmp(b.D) != 0 {
		t.Error("same parts derived different keys")
	}
	if a.N.BitLen() != 512 {
		t.Errorf("modulus = %d bits, want 512", a.N.BitLen())
	}
	if err := a.Validate(); err != nil {
		t.Errorf("derived key invalid: %v", err)
	}
	c, err := DeterministicKey(512, []byte("test"), []byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if a.N.Cmp(c.N) == 0 {
		t.Error("different parts derived the same key")
	}

	p1, p2 := NewDeterministicKeyPool(2020), NewDeterministicKeyPool(2020)
	fillPool(p1, 512, 4)
	for i := 0; i < 4; i++ {
		if p1.Key(512, i).N.Cmp(p2.Key(512, i).N) != 0 {
			t.Errorf("pool key (512, %d) differs between processes", i)
		}
	}
	if p1.Key(512, 0).N.Cmp(p1.Key(512, 1).N) == 0 {
		t.Error("pool reused a key across indexes")
	}
	if NewDeterministicKeyPool(2021).Key(512, 0).N.Cmp(p1.Key(512, 0).N) == 0 {
		t.Error("different seeds derived the same key")
	}

	s1 := DeterministicSerial([]byte("host"), []byte("7"))
	s2 := DeterministicSerial([]byte("host"), []byte("7"))
	if s1.Cmp(s2) != 0 || s1.Sign() < 0 || s1.BitLen() > 64 {
		t.Errorf("serials: %v vs %v", s1, s2)
	}
}
