package weakkeys

import (
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"testing"
)

// prime draws a probable prime of exactly bits bits from r, so every
// population below replays from its seed.
func prime(r *rand.Rand, bits int) *big.Int {
	limit := new(big.Int).Lsh(one, uint(bits))
	for {
		p := new(big.Int).Rand(r, limit)
		p.SetBit(p, bits-1, 1).SetBit(p, 0, 1)
		if p.ProbablyPrime(20) {
			return p
		}
	}
}

// makeModuli builds n healthy moduli from distinct primes plus optionally
// a pair sharing one prime.
func makeModuli(r *rand.Rand, n int, planted bool) ([]*big.Int, []int) {
	moduli := make([]*big.Int, 0, n+2)
	for i := 0; i < n; i++ {
		moduli = append(moduli, new(big.Int).Mul(prime(r, 64), prime(r, 64)))
	}
	var weak []int
	if planted {
		shared := prime(r, 64)
		a := new(big.Int).Mul(shared, prime(r, 64))
		b := new(big.Int).Mul(shared, prime(r, 64))
		weak = []int{len(moduli), len(moduli) + 1}
		moduli = append(moduli, a, b)
	}
	return moduli, weak
}

// smallPrimes returns the first n primes above 1,000: a pool small
// enough that values drawn from it share primes in every pattern —
// one prime, both primes with different values, squares, cubes, chains.
func smallPrimes(n int) []*big.Int {
	var pool []*big.Int
	for c := int64(1001); len(pool) < n; c += 2 {
		if p := big.NewInt(c); p.ProbablyPrime(20) {
			pool = append(pool, p)
		}
	}
	return pool
}

// poolModulus draws one value over pool: mostly a product of two pool
// primes (a square when they coincide), sometimes a cube, sometimes a
// product of two fresh 32-bit primes that shares nothing.
func poolModulus(r *rand.Rand, pool []*big.Int) *big.Int {
	p, q := pool[r.Intn(len(pool))], pool[r.Intn(len(pool))]
	switch r.Intn(8) {
	case 0:
		return new(big.Int).Exp(p, big.NewInt(3), nil)
	case 1:
		return new(big.Int).Mul(prime(r, 32), prime(r, 32))
	default:
		return new(big.Int).Mul(p, q)
	}
}

func findingIndexes(fs []Finding) []int {
	var out []int
	for _, f := range fs {
		out = append(out, f.Index)
	}
	return out
}

// checkFindings asserts that BatchGCD and PairwiseGCD flag the same
// indexes of moduli and that every batch factor divides its modulus.
func checkFindings(t *testing.T, name string, moduli []*big.Int) []Finding {
	t.Helper()
	batch := BatchGCD(moduli)
	if got, want := findingIndexes(batch), findingIndexes(PairwiseGCD(moduli)); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: BatchGCD flags %v, PairwiseGCD %v (moduli %v)", name, got, want, moduli)
	}
	for _, f := range batch {
		if f.Factor.Cmp(one) <= 0 || new(big.Int).Mod(moduli[f.Index], f.Factor).Sign() != 0 {
			t.Errorf("%s: factor %v of modulus %d (%v) is not a shared factor", name, f.Factor, f.Index, moduli[f.Index])
		}
	}
	return batch
}

func TestBatchGCDFindsPlantedSharedPrime(t *testing.T) {
	moduli, weak := makeModuli(rand.New(rand.NewSource(1)), 10, true)
	findings := BatchGCD(moduli)
	if len(findings) != 2 {
		t.Fatalf("findings = %d, want 2", len(findings))
	}
	for i, f := range findings {
		if f.Index != weak[i] {
			t.Errorf("finding %d index = %d, want %d", i, f.Index, weak[i])
		}
		if new(big.Int).Mod(moduli[f.Index], f.Factor).Sign() != 0 {
			t.Errorf("factor does not divide modulus %d", f.Index)
		}
		if f.Factor.Cmp(one) <= 0 || f.Factor.Cmp(moduli[f.Index]) >= 0 {
			t.Errorf("factor %v is trivial", f.Factor)
		}
	}
}

func TestBatchGCDCleanPopulation(t *testing.T) {
	moduli, _ := makeModuli(rand.New(rand.NewSource(2)), 16, false)
	if findings := BatchGCD(moduli); len(findings) != 0 {
		t.Errorf("clean population produced findings: %v", findings)
	}
}

func TestBatchGCDIdenticalModuliNotWeak(t *testing.T) {
	// Hosts sharing a full certificate share the modulus; that is a
	// reuse problem (§5.3), not a weak-key problem.
	r := rand.New(rand.NewSource(3))
	m := new(big.Int).Mul(prime(r, 64), prime(r, 64))
	moduli := []*big.Int{m, new(big.Int).Set(m)}
	if findings := BatchGCD(moduli); len(findings) != 0 {
		t.Errorf("identical moduli flagged: %v", findings)
	}
}

func TestBatchGCDSmallAndDegenerateInputs(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	if BatchGCD(nil) != nil {
		t.Error("nil input should return nil")
	}
	m := new(big.Int).Mul(prime(r, 64), prime(r, 64))
	if BatchGCD([]*big.Int{m}) != nil {
		t.Error("single modulus should return nil")
	}
	// nil and non-positive moduli are skipped, not crashed on.
	moduli := []*big.Int{nil, big.NewInt(0), big.NewInt(-4), m,
		new(big.Int).Mul(prime(r, 64), prime(r, 64))}
	if findings := BatchGCD(moduli); len(findings) != 0 {
		t.Errorf("degenerate input produced findings: %v", findings)
	}
}

// TestBatchGCDBothPrimesShared is the case a batch GCD alone misses:
// p·q shares p with p·r and q with q·s, so gcd(p·q, ∏ others) = p·q.
// Pairwise, all three share a prime.
func TestBatchGCDBothPrimesShared(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	p, q, pr, s := prime(r, 64), prime(r, 64), prime(r, 64), prime(r, 64)
	moduli := []*big.Int{
		new(big.Int).Mul(p, q),
		new(big.Int).Mul(p, pr),
		new(big.Int).Mul(q, s),
		new(big.Int).Mul(prime(r, 64), prime(r, 64)),
	}
	findings := checkFindings(t, "p·q, p·r, q·s", moduli)
	if got := findingIndexes(findings); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("flagged %v, want [0 1 2]", got)
	}
	if f := findings[0].Factor; f.Cmp(p) != 0 && f.Cmp(q) != 0 {
		t.Errorf("factor of p·q = %v, want p or q", f)
	}
}

func TestBatchGCDMatchesPairwise(t *testing.T) {
	// Differential check on seeded populations: healthy moduli with and
	// without a planted pair, and values over a small prime pool, where
	// both-shared moduli, squares, cubes and chains occur.
	pool := smallPrimes(10)
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 4 + int(seed%8)
		var moduli []*big.Int
		if seed%4 == 3 {
			moduli, _ = makeModuli(r, n, seed%8 == 3)
		} else {
			for i := 0; i < n; i++ {
				moduli = append(moduli, poolModulus(r, pool))
			}
		}
		checkFindings(t, fmt.Sprintf("seed %d", seed), moduli)
	}
}

func TestBatchGCDThreeWaySharedPrime(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	shared := prime(r, 64)
	moduli := []*big.Int{
		new(big.Int).Mul(shared, prime(r, 64)),
		new(big.Int).Mul(shared, prime(r, 64)),
		new(big.Int).Mul(shared, prime(r, 64)),
		new(big.Int).Mul(prime(r, 64), prime(r, 64)),
	}
	findings := BatchGCD(moduli)
	if len(findings) != 3 {
		t.Fatalf("findings = %d, want 3", len(findings))
	}
	for _, f := range findings {
		if new(big.Int).Mod(moduli[f.Index], f.Factor).Sign() != 0 {
			t.Errorf("factor does not divide modulus %d", f.Index)
		}
	}
}

// checkIndexWaves counts each wave through one Index and asserts that
// the count equals BatchGCD's and PairwiseGCD's over the wave alone.
func checkIndexWaves(t *testing.T, name string, waves [][]*big.Int) {
	t.Helper()
	ix := NewIndex()
	for w, wave := range waves {
		got := ix.Count(wave)
		batch := checkFindings(t, fmt.Sprintf("%s wave %d", name, w), wave)
		if got != len(batch) {
			t.Errorf("%s wave %d: Index.Count = %d, BatchGCD %d (wave %v)", name, w, got, len(batch), wave)
		}
	}
}

// TestIndexMatchesBatchGCD runs seeded wave sequences over a universe
// of pool values: each wave draws a subset, so values leave and return,
// and adds duplicates (the same value under two thumbprints), nil and
// non-positive values.
func TestIndexMatchesBatchGCD(t *testing.T) {
	pool := smallPrimes(12)
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		universe := make([]*big.Int, 6+r.Intn(14))
		for i := range universe {
			universe[i] = poolModulus(r, pool)
		}
		waves := make([][]*big.Int, 2+r.Intn(6))
		for w := range waves {
			var wave []*big.Int
			for _, v := range universe {
				if r.Intn(3) > 0 {
					wave = append(wave, v)
				}
			}
			switch r.Intn(4) {
			case 0:
				if len(wave) > 0 {
					wave = append(wave, new(big.Int).Set(wave[r.Intn(len(wave))]))
				}
			case 1:
				wave = append(wave, nil, big.NewInt(0), big.NewInt(-4))
			}
			r.Shuffle(len(wave), func(i, j int) { wave[i], wave[j] = wave[j], wave[i] })
			waves[w] = wave
		}
		checkIndexWaves(t, fmt.Sprintf("seed %d", seed), waves)
	}
}

// FuzzIndexMatchesBatchGCD decodes a wave sequence from bytes over an
// eight-prime pool: 0 ends a wave, 1 is a nil modulus, 2 a zero one, and
// any other byte b the value p[b>>5]·p[(b>>2)&7], times p[(b>>2)&7]
// again when b&3 == 3 (cubes, squares times a prime).
func FuzzIndexMatchesBatchGCD(f *testing.F) {
	f.Add([]byte{0x04, 0, 0x04, 0x2c})             // p0·p1, then p1·p3 joins it
	f.Add([]byte{0x04, 0x08, 0x2c, 0, 0x04, 0x04}) // p·q, p·r, q·s, then a duplicate
	f.Add([]byte{0x24, 0x45, 0x66, 0, 0x87, 0, 0x24, 1, 2, 0x45, 0xff})
	f.Add([]byte{0x0b, 0, 0x0b, 0x27, 0, 0xe3, 0x1c, 0x1c})
	pool := smallPrimes(8)
	f.Fuzz(func(t *testing.T, data []byte) {
		waves := [][]*big.Int{nil}
		for _, b := range data {
			last := len(waves) - 1
			switch b {
			case 0:
				waves = append(waves, nil)
			case 1:
				waves[last] = append(waves[last], nil)
			case 2:
				waves[last] = append(waves[last], big.NewInt(0))
			default:
				q := pool[(b>>2)&7]
				v := new(big.Int).Mul(pool[b>>5], q)
				if b&3 == 3 {
					v.Mul(v, q)
				}
				waves[last] = append(waves[last], v)
			}
		}
		checkIndexWaves(t, "fuzz", waves)
	})
}

func BenchmarkBatchGCD128(b *testing.B) {
	moduli, _ := makeModuli(rand.New(rand.NewSource(7)), 128, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BatchGCD(moduli)
	}
}

// BenchmarkIndexRepeatWave128 counts a wave whose 128 moduli the index
// already holds: the steady state of a campaign whose waves add few
// keys.
func BenchmarkIndexRepeatWave128(b *testing.B) {
	moduli, _ := makeModuli(rand.New(rand.NewSource(7)), 128, true)
	ix := NewIndex()
	ix.Count(moduli)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Count(moduli)
	}
}

func BenchmarkPairwiseGCD128(b *testing.B) {
	moduli, _ := makeModuli(rand.New(rand.NewSource(7)), 128, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PairwiseGCD(moduli)
	}
}

// BenchmarkBatchGCD665x512 runs the batch over a campaign's first wave
// at test key sizes: 665 moduli of 512 bits.
func BenchmarkBatchGCD665x512(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	moduli := make([]*big.Int, 665)
	for i := range moduli {
		moduli[i] = new(big.Int).Mul(prime(r, 256), prime(r, 256))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BatchGCD(moduli)
	}
}
