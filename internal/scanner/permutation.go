// Package scanner implements the measurement instrument of the study:
// a zmap-style randomized port scan over the simulated IPv4 universe, a
// zgrab2-style application-layer grab module for OPC UA, and the weekly
// campaign orchestration with follow-up targets (endpoints on other
// hosts/ports, discovery-server references).
package scanner

import (
	"math/bits"

	"repro/internal/simnet"
)

// fnvMix folds the eight little-endian bytes of v into an FNV-1a state
// (parameters shared with the noise model via simnet; the Feistel round
// below inlines the hash so the per-probe path performs zero heap
// allocations, and TestPermutationRoundMatchesFNV pins the arithmetic
// against the stdlib implementation byte for byte).
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * simnet.FNVPrime64
		v >>= 8
	}
	return h
}

// maxTableHalfBits is the widest Feistel half whose round function is
// tabulated: 16 bits covers every IPv4 universe (N <= 2^32) in 1 MiB.
// Wider permutations evaluate round directly.
const maxTableHalfBits = 16

// Permutation is a bijection over [0, N) used to visit scan targets in a
// pseudorandom order, like zmap's cyclic-group iteration: probes spread
// across the whole address space so no network sees a burst
// (Appendix A.2 "rely on zmap's address randomization").
//
// The implementation is a 4-round Feistel network over the smallest even
// bit-width covering N, with cycle-walking to stay inside [0, N).
type Permutation struct {
	n        uint64
	halfBits uint
	halfMask uint64
	seed     uint64
	// tab[r][h] == round(h, r) for every half h <= halfMask: the round
	// input is only halfBits wide, so a Feistel pass is four indexed
	// loads instead of 68 dependent multiplies. Written once by
	// NewPermutation, read-only afterwards; nil when
	// halfBits > maxTableHalfBits.
	tab [4][]uint32
}

// NewPermutation builds a permutation of [0, n) from a seed. Building
// evaluates round 4 << halfBits times: ~0.12 ms for the 2.6 M-address
// study universe (halfBits 11), ~4 ms at n = 2^32 (halfBits 16).
func NewPermutation(n uint64, seed uint64) *Permutation {
	if n == 0 {
		return &Permutation{n: 0}
	}
	width := uint(bits.Len64(n - 1))
	if width == 0 {
		width = 1
	}
	if width%2 == 1 {
		width++
	}
	p := &Permutation{
		n:        n,
		halfBits: width / 2,
		halfMask: (1 << (width / 2)) - 1,
		seed:     seed,
	}
	if p.halfBits <= maxTableHalfBits {
		flat := make([]uint32, 4<<p.halfBits)
		for r := range p.tab {
			p.tab[r] = flat[r<<p.halfBits : (r+1)<<p.halfBits]
			for h := range p.tab[r] {
				p.tab[r][h] = uint32(p.round(uint64(h), uint(r)))
			}
		}
	}
	return p
}

// round hashes (half, seed, round) with an inlined FNV-1a over the same
// 17 bytes the previous hash/fnv-based implementation fed the hasher:
// 8 LE bytes of half, 8 LE bytes of the seed, then the round byte. The
// output is bit-identical, so permutations are stable across the
// rewrite. It generates the round tables, is the reference
// TestPermutationRoundMatchesFNV pins against hash/fnv, and is the
// per-pass path for halves too wide to tabulate.
func (p *Permutation) round(half uint64, round uint) uint64 {
	h := fnvMix(fnvMix(uint64(simnet.FNVOffset64), half), p.seed)
	h = (h ^ uint64(byte(round))) * simnet.FNVPrime64
	return h & p.halfMask
}

//studyvet:hotpath — At's inner loop body
func (p *Permutation) feistel(x uint64) uint64 {
	l := x >> p.halfBits
	r := x & p.halfMask
	if p.tab[0] == nil {
		for round := uint(0); round < 4; round++ {
			l, r = r, l^p.round(r, round)
		}
		return l<<p.halfBits | r
	}
	// The same four rounds with the swaps unrolled away: each half is
	// updated in place from the other.
	l ^= uint64(p.tab[0][r])
	r ^= uint64(p.tab[1][l])
	l ^= uint64(p.tab[2][r])
	r ^= uint64(p.tab[3][l])
	return l<<p.halfBits | r
}

// At maps index i to its permuted position. i must be < N. At performs
// no heap allocations (the port-scan probe path relies on this;
// TestPermutationAtAllocFree gates it).
//
//studyvet:hotpath — called once per probed address
func (p *Permutation) At(i uint64) uint64 {
	if p.n == 0 {
		return 0
	}
	x := p.feistel(i)
	// Cycle-walk until the value lands inside [0, n). Termination is
	// guaranteed because feistel is a bijection on the covering domain.
	for x >= p.n {
		x = p.feistel(x)
	}
	return x
}
