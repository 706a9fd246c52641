// Package weakkeys detects RSA moduli that share a prime factor, the
// classic "Mining your Ps and Qs" weakness. The paper (§5.3) pairwise
// checks all collected certificate keys for shared primes and finds none;
// this package implements the scalable batch-GCD algorithm (product tree
// followed by a remainder tree) so the same check runs in
// O(n log n · M(log N)) instead of O(n²) big-number GCDs.
package weakkeys

import (
	"math/big"
	"sort"
)

// Finding reports a modulus with a recovered prime factor.
type Finding struct {
	// Index identifies the modulus in the input slice.
	Index int
	// Factor is a non-trivial factor shared with at least one other
	// modulus.
	Factor *big.Int
}

// BatchGCD returns a Finding for every modulus that shares a prime with
// another modulus in the input. Duplicate moduli (byte-identical) are
// reported against each other only if reportDuplicates is true: identical
// moduli are expected when hosts share a full certificate, which the
// study accounts for separately.
func BatchGCD(moduli []*big.Int, reportDuplicates bool) []Finding {
	n := len(moduli)
	if n < 2 {
		return nil
	}

	// Collapse duplicates so that copies of the same certificate key do
	// not flag each other: GCD(N, N) = N is not a factoring weakness.
	type group struct {
		value   *big.Int
		indexes []int
	}
	byKey := make(map[string]*group, n)
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

	var findings []Finding
	if reportDuplicates {
		for _, g := range groups {
			if len(g.indexes) > 1 {
				for _, idx := range g.indexes {
					findings = append(findings, Finding{Index: idx, Factor: new(big.Int).Set(g.value)})
				}
			}
		}
	}

	if len(groups) >= 2 {
		values := make([]*big.Int, len(groups))
		for i, g := range groups {
			values[i] = g.value
		}
		shared := batchSharedFactors(values)
		for gi, f := range shared {
			if f == nil {
				continue
			}
			for _, idx := range groups[gi].indexes {
				findings = append(findings, Finding{Index: idx, Factor: f})
			}
		}
	}

	sort.Slice(findings, func(i, j int) bool { return findings[i].Index < findings[j].Index })
	return findings
}

// batchSharedFactors returns, for each distinct modulus, a shared factor
// with the product of all other moduli, or nil.
func batchSharedFactors(values []*big.Int) []*big.Int {
	// Product tree: leaves are the moduli, the root is their product.
	levels := [][]*big.Int{values}
	for len(levels[len(levels)-1]) > 1 {
		prev := levels[len(levels)-1]
		next := make([]*big.Int, (len(prev)+1)/2)
		for i := range next {
			if 2*i+1 < len(prev) {
				next[i] = new(big.Int).Mul(prev[2*i], prev[2*i+1])
			} else {
				next[i] = prev[2*i]
			}
		}
		levels = append(levels, next)
	}

	// Remainder tree: push root mod leaf² down the tree.
	rems := []*big.Int{levels[len(levels)-1][0]}
	for li := len(levels) - 2; li >= 0; li-- {
		level := levels[li]
		next := make([]*big.Int, len(level))
		for i, v := range level {
			sq := new(big.Int).Mul(v, v)
			next[i] = new(big.Int).Mod(rems[i/2], sq)
		}
		rems = next
	}

	out := make([]*big.Int, len(values))
	for i, v := range values {
		q := new(big.Int).Div(rems[i], v)
		g := new(big.Int).GCD(nil, nil, q, v)
		if g.Cmp(big.NewInt(1)) > 0 && g.Cmp(v) < 0 {
			out[i] = g
		}
	}
	return out
}

// PairwiseGCD is the O(n²) reference implementation used to validate
// BatchGCD in tests and to mirror the paper's description ("pairwise
// checking the keys of all received certificates for shared primes").
//
//studyvet:api — the reference BatchGCD's tests compare against
func PairwiseGCD(moduli []*big.Int) []Finding {
	var findings []Finding
	one := big.NewInt(1)
	seen := make(map[int]*big.Int)
	for i := 0; i < len(moduli); i++ {
		for j := i + 1; j < len(moduli); j++ {
			if moduli[i] == nil || moduli[j] == nil {
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
