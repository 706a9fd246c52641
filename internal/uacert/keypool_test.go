package uacert

import (
	"crypto/rsa"
	"crypto/sha256"
	"encoding/hex"
	"math/big"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/uarsa"
)

// fillPool asks for keys 0..n-1 of one size from several goroutines at
// once, each taking the next free index — the way deploy.Materialize
// fills its pool.
func fillPool(p *KeyPool, bits, n int) {
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				p.Key(bits, i)
			}
		}()
	}
	wg.Wait()
}

// TestDeterministicKeyGolden pins the deterministic pool's keys bit for
// bit: SHA-256 over N‖p‖q‖d of keys 0..n-1, first 12 bytes. The digests
// were read from the ProbablyPrime(20) search that every dataset and
// certificate golden of this repository was recorded with; a change to
// the prime search may make it cheaper but must leave them alone (a
// different accepted prime anywhere changes a key, its certificate's
// thumbprint, and with it every process's view of the reuse clusters).
func TestDeterministicKeyGolden(t *testing.T) {
	cases := []struct {
		seed    int64
		bits, n int
		want    string
	}{
		{2020, 512, 700, "675fbd6b1cc15646900c6954"},
		{2020, 1024, 60, "7aaa38f0bb274ae7ca875987"},
		{2020, 2048, 24, "d422215525228a271953fc99"},
		{2020, 4096, 2, "1dc4c8f6de41e6a487e30978"},
		{7, 512, 700, "d7e7397f59d7eaeab8795aa6"},
		{7, 1024, 60, "9a8ca0eb6fbd5bc492ee2c5b"},
		{7, 2048, 24, "2f2b444ba54ccb442f18418f"},
		{7, 4096, 2, "144f6fbacfeda649f3a21dec"},
	}
	for _, c := range cases {
		t.Run(strconv.FormatInt(c.seed, 10)+"/"+strconv.Itoa(c.bits), func(t *testing.T) {
			if testing.Short() && c.bits >= 2048 {
				t.Skip("seconds of real-size keygen; run without -short")
			}
			pool := NewDeterministicKeyPool(c.seed)
			fillPool(pool, c.bits, c.n)
			h := sha256.New()
			for i := 0; i < c.n; i++ {
				k := pool.Key(c.bits, i)
				h.Write(k.N.Bytes())
				h.Write(k.Primes[0].Bytes())
				h.Write(k.Primes[1].Bytes())
				h.Write(k.D.Bytes())
			}
			if got := hex.EncodeToString(h.Sum(nil)[:12]); got != c.want {
				t.Errorf("seed %d, %d keys of %d bits: digest %s, want %s", c.seed, c.n, c.bits, got, c.want)
			}
		})
	}
}

// BenchmarkDeterministicKey is one deterministic key per iteration, a new
// label each time so that every iteration walks its own candidate stream.
func BenchmarkDeterministicKey(b *testing.B) {
	for _, bits := range []int{512, 1024, 2048} {
		b.Run(strconv.Itoa(bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := DeterministicKey(bits, []byte("bench"), []byte(strconv.Itoa(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestKeyPoolConcurrentSameSlot: goroutines racing for one slot of a
// crypto/rand pool may each generate, but all are handed the key stored
// first. Run under -race.
func TestKeyPoolConcurrentSameSlot(t *testing.T) {
	pool := NewKeyPool()
	keys := make([]*rsa.PrivateKey, 8)
	var wg sync.WaitGroup
	for g := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys[g] = pool.Key(512, 3)
		}()
	}
	wg.Wait()
	for g, k := range keys {
		if k == nil || k != keys[0] {
			t.Errorf("goroutine %d was handed a different key for slot (512, 3)", g)
		}
	}
	if pool.Size(512) != 1 {
		t.Errorf("pool holds %d keys, want 1", pool.Size(512))
	}
}

// candidates is how many stream candidates the per-candidate comparisons
// walk at each size.
func candidates() int {
	if testing.Short() {
		return 5_000
	}
	return 100_000
}

// TestAcceptsCandidateMatchesProbablyPrime20 walks the candidate stream
// and compares the search's decision with the predicate every recorded key
// was found with, candidate by candidate: a filter that rejects a prime,
// or a predicate that accepts what ProbablyPrime(20) refuses, changes a
// key. At 64 bits ProbablyPrime is exact, so there the accepted set is the
// prime set.
func TestAcceptsCandidateMatchesProbablyPrime20(t *testing.T) {
	for _, bits := range []int{64, 256, 1024} {
		t.Run(strconv.Itoa(bits), func(t *testing.T) {
			t.Parallel()
			r := uarsa.NewDerivation([]byte("filter-soundness")).Stream(strconv.Itoa(bits))
			buf := make([]byte, bits/8)
			p, scratch, x := new(big.Int), new(big.Int), new(big.Int)
			primes, sieved := 0, 0
			for i := 0; i < candidates(); i++ {
				drawCandidate(r, buf, bits)
				want := x.SetBytes(buf).ProbablyPrime(20)
				if hasSmallFactor(buf) {
					sieved++
					if want {
						t.Fatalf("candidate %d (%x): the sieve rejected a prime", i, buf)
					}
				}
				if got := acceptsCandidate(buf, p, scratch); got != want {
					t.Fatalf("candidate %d (%x): accepted %v, ProbablyPrime(20) %v", i, buf, got, want)
				}
				if want {
					primes++
					if p.Cmp(x) != 0 {
						t.Fatalf("candidate %d: accepted %x, want %x", i, p, x)
					}
				}
			}
			// A sieve that rejects nothing, or a stream without primes,
			// would pass the comparisons above vacuously.
			if n := candidates(); primes == 0 || sieved < n*8/10 || sieved > n*95/100 {
				t.Errorf("%d candidates: %d primes, %d sieved — expected some primes and 80–95 %% sieved", n, primes, sieved)
			}
		})
	}
}

// TestDeterministicPrimeMatchesReferenceLoop runs the search and the loop
// it replaced — the same candidates, ProbablyPrime(20) on every one —
// over two copies of one stream: consecutive calls must return the same
// primes and leave the streams at the same position.
func TestDeterministicPrimeMatchesReferenceLoop(t *testing.T) {
	for bits, n := range map[int]int{64: 400, 256: 150, 1024: 12} {
		d := uarsa.NewDerivation([]byte("search-equality"), []byte(strconv.Itoa(bits)))
		got, ref := d.Stream("p"), d.Stream("p")
		buf, want := make([]byte, bits/8), new(big.Int)
		for i := 0; i < n; i++ {
			for {
				drawCandidate(ref, buf, bits)
				if want.SetBytes(buf).ProbablyPrime(20) {
					break
				}
			}
			if p := deterministicPrime(got, bits); p.Cmp(want) != 0 {
				t.Fatalf("%d bits, prime %d: search returned %x, reference loop %x", bits, i, p, want)
			}
		}
		var a, b [16]byte
		_, _ = got.Read(a[:])
		_, _ = ref.Read(b[:])
		if a != b {
			t.Errorf("%d bits: search and reference loop consumed different amounts of the stream", bits)
		}
	}
}

// firstPrimesFrom returns the n smallest primes ≥ from.
func firstPrimesFrom(from int64, n int) []*big.Int {
	var out []*big.Int
	for v := from | 1; len(out) < n; v += 2 {
		if x := big.NewInt(v); x.ProbablyPrime(0) { // exact below 2^64
			out = append(out, x)
		}
	}
	return out
}

// pseudoprimes are composites chosen so that each is stopped by a
// different stage, and a search missing that stage accepts it.
func pseudoprimes() []*big.Int {
	var out []*big.Int
	// Carmichael numbers (Fermat-pass to every coprime base) with small
	// factors: the sieve's, once they are above its two-byte floor; the
	// predicate's below it.
	for _, v := range []int64{561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745, 63973, 75361, 101101, 825265, 321197185, 9746347772161} {
		out = append(out, big.NewInt(v))
	}
	// Base-2 strong pseudoprimes: pass the Fermat filter and the
	// predicate's own base-2 Miller–Rabin round; only its Lucas half stops
	// them. The last two are strong to every base up to 7 and up to 23.
	for _, v := range []int64{2047, 3277, 4033, 4681, 8321, 3215031751, 3825123056546413051} {
		out = append(out, big.NewInt(v))
	}
	// Products of two primes just above the sieve limit: invisible to the
	// sieve by construction, so Fermat must stop them.
	above := firstPrimesFrom(sieveLimit, 6)
	for i := range above {
		for j := i; j < len(above); j++ {
			out = append(out, new(big.Int).Mul(above[i], above[j]))
		}
	}
	// Chernick Carmichael numbers (6k+1)(12k+1)(18k+1) whose factors all
	// lie above the limit: they pass the sieve and the Fermat filter, so
	// only the predicate stands between them and a key.
	for k, found := int64(sieveLimit/6+1), 0; found < 3; k++ {
		a, b, c := big.NewInt(6*k+1), big.NewInt(12*k+1), big.NewInt(18*k+1)
		if a.ProbablyPrime(0) && b.ProbablyPrime(0) && c.ProbablyPrime(0) {
			out = append(out, a.Mul(a, b).Mul(a, c))
			found++
		}
	}
	return out
}

func TestAcceptsCandidateRejectsPseudoprimes(t *testing.T) {
	p, scratch := new(big.Int), new(big.Int)
	table := pseudoprimes()
	for _, x := range table {
		if x.ProbablyPrime(20) {
			t.Fatalf("%v is not composite: the table is wrong", x)
		}
		if acceptsCandidate(x.Bytes(), p, scratch) {
			t.Errorf("composite %v accepted", x)
		}
	}
	// The stages the table aims at are really the ones that decide.
	above := firstPrimesFrom(sieveLimit, 2)
	semiprime := new(big.Int).Mul(above[0], above[1])
	if hasSmallFactor(semiprime.Bytes()) {
		t.Errorf("%v = %v·%v has no factor below the limit, yet the sieve reports one", semiprime, above[0], above[1])
	}
	chernick := table[len(table)-1]
	if hasSmallFactor(chernick.Bytes()) ||
		scratch.Exp(bigTwo, scratch.Sub(chernick, bigOne), chernick).Cmp(bigOne) != 0 {
		t.Errorf("Chernick number %v should pass both filters and fall to the predicate", chernick)
	}
}

// TestHasSmallFactorBoundary walks the sieve's edges exhaustively. Below
// 2^16 nothing is reported (the largest prime below the limit would
// otherwise be its own factor); from 2^16 up to 2^20 — far below the
// limit's square, so every composite has a factor the sieve knows, unless
// the table dropped a prime at a chunk border — the answer is exactly
// "composite".
func TestHasSmallFactorBoundary(t *testing.T) {
	if sieveLimit < 1<<10 || sieveLimit > 1<<16 {
		t.Fatalf("sieveLimit %d outside [2^10, 2^16]: primes are stored in uint16 and this test assumes limit² > 2^20", sieveLimit)
	}
	count := 0
	for _, ch := range sieveChunks {
		count += len(ch.primes)
	}
	if last := sieveChunks[len(sieveChunks)-1].primes; sieveLimit == 1<<13 && (count != 1027 || last[len(last)-1] != 8191) {
		t.Errorf("table holds %d primes ending at %d, want the 1027 odd primes below 8192 ending at 8191", count, last[len(last)-1])
	}
	for v := int64(3); v < 1<<20; v += 2 {
		x := big.NewInt(v)
		got := hasSmallFactor(x.Bytes())
		if want := v >= 1<<16 && !x.ProbablyPrime(0); got != want {
			t.Fatalf("hasSmallFactor(%d) = %v, want %v", v, got, want)
		}
	}
	// A multiple of the largest table prime, and of the first prime past
	// the table, each times a prime the sieve cannot know.
	big1 := firstPrimesFrom(1<<40, 1)[0]
	inside := firstPrimesFrom(sieveLimit-100, 40)
	var lastIn, firstOut *big.Int
	for _, p := range inside {
		if p.Int64() < sieveLimit {
			lastIn = p
		} else if firstOut == nil {
			firstOut = p
		}
	}
	if !hasSmallFactor(new(big.Int).Mul(lastIn, big1).Bytes()) {
		t.Errorf("multiple of %v (largest prime below the limit) not reported", lastIn)
	}
	if hasSmallFactor(new(big.Int).Mul(firstOut, big1).Bytes()) {
		t.Errorf("multiple of %v (first prime at or above the limit) reported", firstOut)
	}
}

// TestHasSmallFactorMatchesBigMod checks the byte fold against
// big.Int.Mod for every buffer length modulo 8 (the head/word split) and
// for extreme bit patterns: hasSmallFactor works on bytes and 64-bit
// arithmetic from math/bits only, so the same test holds on 32-bit
// platforms, where big.Word — which it never touches — is half as wide.
func TestHasSmallFactorMatchesBigMod(t *testing.T) {
	var primes []*big.Int
	for _, ch := range sieveChunks {
		for _, p := range ch.primes {
			primes = append(primes, big.NewInt(int64(p)))
		}
	}
	want := func(x *big.Int) bool {
		m := new(big.Int)
		for _, p := range primes {
			if m.Mod(x, p).Sign() == 0 {
				return true
			}
		}
		return false
	}
	r := uarsa.NewDerivation([]byte("fold")).Stream("bytes")
	check := func(c []byte) {
		t.Helper()
		if x := new(big.Int).SetBytes(c); hasSmallFactor(c) != want(x) {
			t.Fatalf("hasSmallFactor(%x) = %v, big.Int.Mod says %v", c, !want(x), want(x))
		}
	}
	for n := 3; n <= 41; n++ {
		c := make([]byte, n)
		for rep := 0; rep < 400; rep++ {
			_, _ = r.Read(c)
			c[0] |= 1 // no leading zero byte
			check(c)
		}
		for i := range c {
			c[i] = 0xff
		}
		check(c)
		for i := range c {
			c[i] = 0
		}
		c[0] = 1 // 2^(8(n-1)): no odd factor at all
		check(c)
		c[n-1] = 1
		check(c)
	}
}

// FuzzPrimeFilters: for any odd x ≥ 3 the search's decision equals
// ProbablyPrime(20), and the sieve never reports a factor of a prime.
// Disagreement on a composite would be a Baillie–PSW counterexample that
// twenty Miller–Rabin rounds catch; none is known.
func FuzzPrimeFilters(f *testing.F) {
	for _, x := range pseudoprimes() {
		f.Add(x.Bytes())
	}
	for _, v := range []int64{3, 8191, 8193, 65521, 65537, 1<<61 - 1} {
		f.Add(big.NewInt(v).Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 192 {
			data = data[:192]
		}
		x := new(big.Int).SetBytes(data)
		x.SetBit(x, 0, 1)
		if x.BitLen() < 2 {
			return
		}
		want := x.ProbablyPrime(20)
		if want && hasSmallFactor(x.Bytes()) {
			t.Fatalf("the sieve reports a factor of the prime %v", x)
		}
		p, scratch := new(big.Int), new(big.Int)
		if got := acceptsCandidate(x.Bytes(), p, scratch); got != want {
			t.Fatalf("%v: accepted %v, ProbablyPrime(20) %v", x, got, want)
		}
	})
}
