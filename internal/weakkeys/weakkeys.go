// Package weakkeys detects RSA moduli that share a prime factor, the
// classic "Mining your Ps and Qs" weakness. The paper (§5.3) pairwise
// checks all collected certificate keys for shared primes and finds none;
// this package implements the scalable batch-GCD algorithm (product tree
// followed by a remainder tree) so the same check runs in
// O(n log n · M(log N)) instead of O(n²) big-number GCDs, and an Index
// that carries the check across the waves of a campaign so each wave
// pays only for the moduli it adds.
package weakkeys

import (
	"math/big"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

var one = big.NewInt(1)

// Finding reports a modulus with a recovered prime factor.
type Finding struct {
	// Index identifies the modulus in the input slice.
	Index int
	// Factor is a factor greater than one shared with at least one other
	// modulus; it is a proper factor unless the modulus divides another.
	Factor *big.Int
}

// BatchGCD returns a Finding for every modulus that shares a prime with
// another, distinct modulus in the input: the pairwise semantics of
// PairwiseGCD. nil and non-positive moduli are skipped. Byte-identical
// moduli never flag each other: hosts sharing a full certificate share
// the modulus, a reuse problem the study accounts for separately (§5.3),
// and GCD(N, N) = N is not a factoring weakness.
func BatchGCD(moduli []*big.Int) []Finding {
	type group struct {
		value   *big.Int
		indexes []int
	}
	byKey := make(map[string]*group, len(moduli))
	var groups []*group
	for i, m := range moduli {
		if m == nil || m.Sign() <= 0 {
			continue
		}
		k := string(m.Bytes())
		g, ok := byKey[k]
		if !ok {
			g = &group{value: m}
			byKey[k] = g
			groups = append(groups, g)
		}
		g.indexes = append(g.indexes, i)
	}
	if len(groups) < 2 {
		return nil
	}

	values := make([]*big.Int, len(groups))
	for i, g := range groups {
		values[i] = g.value
	}
	shared, _ := sharedFactors(values)
	var findings []Finding
	for gi, f := range shared {
		if f == nil {
			continue
		}
		for _, idx := range groups[gi].indexes {
			findings = append(findings, Finding{Index: idx, Factor: f})
		}
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].Index < findings[j].Index })
	return findings
}

// sharedFactors takes distinct positive values and returns, for each, a
// factor greater than one it shares with another value (nil if none),
// and the product of all values, which callers must not modify (for one
// value it is that value).
func sharedFactors(values []*big.Int) (shared []*big.Int, product *big.Int) {
	// Product tree: leaves are the values, the root is their product P.
	// A level's nodes are independent of each other, in this tree and in
	// the next, so each level runs across the cores.
	levels := [][]*big.Int{values}
	for len(levels[len(levels)-1]) > 1 {
		prev := levels[len(levels)-1]
		next := make([]*big.Int, (len(prev)+1)/2)
		forEach(len(next), func(i int) {
			if 2*i+1 < len(prev) {
				next[i] = new(big.Int).Mul(prev[2*i], prev[2*i+1])
			} else {
				next[i] = prev[2*i]
			}
		})
		levels = append(levels, next)
	}
	root := levels[len(levels)-1][0]

	// Cofactor tree: node v holds (P/v) mod v. For a child c of v with
	// sibling s, P/c = (P/v)·s, so c holds ((P/v) mod v mod c)·(s mod c)
	// mod c; a child without a sibling is v itself. The numbers stay the
	// size of the node, where the classic remainder tree of P mod v²
	// works at twice that.
	cof := []*big.Int{new(big.Int).Mod(one, root)}
	for li := len(levels) - 2; li >= 0; li-- {
		level := levels[li]
		next := make([]*big.Int, len(level))
		up := cof
		forEach(len(level), func(i int) {
			v := level[i]
			if i^1 >= len(level) {
				next[i] = up[i/2]
				return
			}
			c := new(big.Int).Mod(up[i/2], v)
			c.Mul(c, new(big.Int).Mod(level[i^1], v))
			next[i] = c.Mod(c, v)
		})
		cof = next
	}

	// (P/v) mod v shares with v exactly the primes v shares with the
	// other values: g = gcd(v, (P/v) mod v).
	shared = make([]*big.Int, len(values))
	forEach(len(values), func(i int) {
		v := values[i]
		g := new(big.Int).GCD(nil, nil, cof[i], v)
		if g.Cmp(one) <= 0 {
			return
		}
		if g.Cmp(v) == 0 {
			// Every prime of v divides the others' product — both primes
			// shared, each with a different modulus — so the batch gives
			// v itself. Recover a factor pairwise, as Heninger et al.
			// ("Mining Your Ps and Qs", USENIX Security 2012) do.
			g = pairwiseFactor(values, i)
		}
		shared[i] = g
	})
	return shared, root
}

// forEach runs f(0) … f(n-1) on up to GOMAXPROCS goroutines, each
// taking the lowest index left, and returns when all have run.
func forEach(n int, f func(i int)) {
	workers := min(n, runtime.GOMAXPROCS(0))
	if workers <= 1 {
		for i := range n {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// pairwiseFactor returns the first proper factor values[i] shares with
// another value, or values[i] itself when it shares only by dividing
// another value.
func pairwiseFactor(values []*big.Int, i int) *big.Int {
	v := values[i]
	for j, w := range values {
		if j == i {
			continue
		}
		if g := new(big.Int).GCD(nil, nil, v, w); g.Cmp(one) > 0 && g.Cmp(v) < 0 {
			return g
		}
	}
	return new(big.Int).Set(v)
}

// Index is one campaign's weak-key index. It holds U, the distinct
// modulus values counted so far; F ⊆ U, the values that share a prime
// with another member of U; and P, the product of U. Memory is
// O(distinct moduli), like the longitudinal fold's certificate set.
//
// An Index is not safe for concurrent use.
type Index struct {
	pos     map[string]int // value bytes → position in values
	values  []*big.Int     // U, in the order first counted
	weak    []bool         // parallel to values: membership in F
	product *big.Int       // P
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{pos: map[string]int{}, product: big.NewInt(1)}
}

// Count adds the values of moduli to the index and returns
// len(BatchGCD(moduli)). It is exact: a value outside F is coprime to
// every other value of U, which holds all of moduli, so BatchGCD over
// the moduli in F flags what BatchGCD over all of them flags. A call
// whose values are all known costs map lookups, and one adding k new
// values a k-leaf batch GCD and one gcd with P. The index keeps the
// moduli it adds; callers must not modify them afterwards.
func (ix *Index) Count(moduli []*big.Int) int {
	keys := make([]string, len(moduli))
	start := len(ix.values)
	for i, m := range moduli {
		if m == nil || m.Sign() <= 0 {
			continue
		}
		keys[i] = string(m.Bytes())
		if _, ok := ix.pos[keys[i]]; !ok {
			ix.pos[keys[i]] = len(ix.values)
			ix.values = append(ix.values, m)
			ix.weak = append(ix.weak, false)
		}
	}
	if len(ix.values) > start {
		ix.add(start)
	}

	var inF []*big.Int
	for i, m := range moduli {
		if keys[i] != "" && ix.weak[ix.pos[keys[i]]] {
			inF = append(inF, m)
		}
	}
	return len(BatchGCD(inF))
}

// add folds the new values N = ix.values[start:] into F and P: the
// batch GCD over N marks the pairs inside N, and g = gcd(P, ∏N) marks
// every value of U ∪ N that shares a prime across the two.
func (ix *Index) add(start int) {
	shared, product := sharedFactors(ix.values[start:])
	for i, f := range shared {
		if f != nil {
			ix.weak[start+i] = true
		}
	}
	if start > 0 {
		if g := new(big.Int).GCD(nil, nil, ix.product, product); g.Cmp(one) > 0 {
			for i, v := range ix.values {
				if !ix.weak[i] && new(big.Int).GCD(nil, nil, v, g).Cmp(one) > 0 {
					ix.weak[i] = true
				}
			}
		}
	}
	ix.product.Mul(ix.product, product)
}

// PairwiseGCD is the O(n²) reference implementation used to validate
// BatchGCD in tests and to mirror the paper's description ("pairwise
// checking the keys of all received certificates for shared primes").
// Like BatchGCD it skips nil and non-positive moduli and never flags
// identical moduli against each other.
//
//studyvet:api — the reference BatchGCD's tests compare against
func PairwiseGCD(moduli []*big.Int) []Finding {
	var findings []Finding
	seen := make(map[int]*big.Int)
	valid := func(m *big.Int) bool { return m != nil && m.Sign() > 0 }
	for i := 0; i < len(moduli); i++ {
		for j := i + 1; j < len(moduli); j++ {
			if !valid(moduli[i]) || !valid(moduli[j]) {
				continue
			}
			if moduli[i].Cmp(moduli[j]) == 0 {
				continue // identical modulus, not a shared-prime weakness
			}
			g := new(big.Int).GCD(nil, nil, moduli[i], moduli[j])
			if g.Cmp(one) > 0 {
				if seen[i] == nil {
					seen[i] = g
					findings = append(findings, Finding{Index: i, Factor: g})
				}
				if seen[j] == nil {
					seen[j] = g
					findings = append(findings, Finding{Index: j, Factor: g})
				}
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].Index < findings[j].Index })
	return findings
}
