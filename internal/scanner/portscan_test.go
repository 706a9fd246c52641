package scanner

import (
	"context"
	"fmt"
	mrand "math/rand"
	"net/netip"
	"slices"
	"testing"

	"repro/internal/deploy"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/worldview"
)

// probeSweep is the sweep as a probe loop, the reference PortScanRange
// is held to: every scan index in [lo, hi) in order, mapped through the
// permutation to a linear index and probed on the scan port by address.
// An address two overlapping prefixes share is probed, and reported,
// once per linear index it occupies.
func probeSweep(nw simnet.View, lo, hi uint64) []netip.Addr {
	u := nw.Universe()
	hi = min(hi, u.Size())
	lo = min(lo, hi)
	perm := NewPermutation(u.Size(), sweepSeed)
	var open []netip.Addr
	for i := lo; i < hi; i++ {
		prefix, off := u.Locate(perm.at(i))
		if addr := u.Prefix(prefix).AddrAt(off); nw.OpenPort(addr, simnet.ScanPort) {
			open = append(open, addr)
		}
	}
	return open
}

// checkSweep compares PortScanRange with probeSweep over [lo, hi), and
// scan_probes with the width of the clamped range.
func checkSweep(t *testing.T, name string, nw simnet.View, lo, hi uint64) []netip.Addr {
	t.Helper()
	reg := telemetry.New()
	got, err := PortScanRange(context.Background(), nw, PortScanConfig{Metrics: reg}, lo, hi)
	if err != nil {
		t.Fatalf("%s [%d, %d): %v", name, lo, hi, err)
	}
	want := probeSweep(nw, lo, hi)
	if !slices.Equal(got, want) {
		t.Fatalf("%s [%d, %d): indexed sweep returned %d addresses, probe loop %d (first difference at %d)",
			name, lo, hi, len(got), len(want), firstDiff(got, want))
	}
	size := nw.Universe().Size()
	wantProbes := min(hi, size) - min(lo, hi, size)
	if probes := reg.Snapshot().CounterTotal("scan_probes"); probes != wantProbes {
		t.Fatalf("%s [%d, %d): scan_probes = %d, want %d", name, lo, hi, probes, wantProbes)
	}
	return got
}

func firstDiff(a, b []netip.Addr) int {
	for k := range min(len(a), len(b)) {
		if a[k] != b[k] {
			return k
		}
	}
	return min(len(a), len(b))
}

// sweepUniverses are the universe shapes simnet's Locate test covers: a
// uniform and a mixed set of power-of-two prefixes, prefixes whose sizes
// are no power of two, a /24 inside a /16, an empty prefix, and prefix
// sizes that share no factor.
func sweepUniverses(t *testing.T) map[string]*simnet.Universe {
	t.Helper()
	pfx := func(base string, bits int) simnet.Prefix {
		p, err := simnet.NewPrefix(base, bits)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	hundred := simnet.Prefix{Base: netip.MustParseAddr("10.1.0.0"), Size: 100}
	return map[string]*simnet.Universe{
		"uniform":          simnet.NewUniverse(pfx("100.64.0.0", 16), pfx("100.65.0.0", 16), pfx("100.70.0.0", 16)),
		"mixed /16 + /24":  simnet.NewUniverse(pfx("10.0.0.0", 24), pfx("100.64.0.0", 16), pfx("10.0.9.0", 24)),
		"non-power-of-two": simnet.NewUniverse(hundred, pfx("10.2.0.0", 28), hundred),
		"overlapping":      simnet.NewUniverse(pfx("100.64.0.0", 16), pfx("100.64.128.0", 24)),
		"empty prefix":     simnet.NewUniverse(pfx("10.0.0.0", 24), simnet.Prefix{Base: hundred.Base}, pfx("10.0.1.0", 24)),
		"no common factor": simnet.NewUniverse(pfx("100.64.0.0", 16), simnet.Prefix{Base: hundred.Base, Size: 1}, pfx("10.0.0.0", 24)),
	}
}

// TestPortScanMatchesProbeSweep holds the indexed sweep to the probe
// loop it replaced, element for element and in order: over every
// universe shape, at noise 0, 0.001 and 1, with hosts on the scan port
// (one added twice) and on 4841 (some addresses on both), on random
// ranges plus the empty
// and full ones, and over every ShardPlan of a few shard counts, whose
// ranges must concatenate to the full sweep. Then all eight waves of the
// seed-2020 study world.
func TestPortScanMatchesProbeSweep(t *testing.T) {
	rng := mrand.New(mrand.NewSource(2020))
	for _, name := range []string{"uniform", "mixed /16 + /24", "non-power-of-two", "overlapping", "empty prefix", "no common factor"} {
		u := sweepUniverses(t)[name]
		for _, noise := range []float64{0, 0.001, 1} {
			b, err := worldview.NewBuilder(worldview.Config{Universe: u, Noise: simnet.NewNoise(noise, 0x9E3779B97F4A7C15)})
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < u.NumPrefixes(); k++ {
				p := u.Prefix(k)
				for off := uint32(3); off < p.Size; off += 97 {
					b.AddHost(p.AddrAt(off), simnet.ScanPort, 64512, nil)
				}
				if p.Size > 3 {
					// Re-adding a host replaces it; it must not answer twice.
					b.AddHost(p.AddrAt(3), simnet.ScanPort, 64512, nil)
				}
				for off := uint32(5); off < p.Size; off += 89 {
					b.AddHost(p.AddrAt(off), 4841, 64512, nil)
				}
			}
			nw := b.Build()
			n := u.Size()
			label := fmt.Sprintf("%s noise=%v", name, noise)

			full := checkSweep(t, label, nw, 0, n)
			if name == "overlapping" && len(full) == len(distinct(full)) {
				t.Fatalf("%s: no address reported twice; the shared /24 was not swept twice", label)
			}
			checkSweep(t, label, nw, 0, 0)
			checkSweep(t, label, nw, n, n)
			checkSweep(t, label, nw, n-1, n+100)
			checkSweep(t, label, nw, n/2, n/3)
			for range 3 {
				lo, hi := uint64(rng.Int63n(int64(n))), uint64(rng.Int63n(int64(n)))
				checkSweep(t, label, nw, min(lo, hi), max(lo, hi))
			}

			shardCounts := []int{1, 3, 16, 1024}
			if noise == 1 {
				// Every index answers, and each shard maps all of them.
				shardCounts = shardCounts[:3]
			}
			for _, shards := range shardCounts {
				plan := PlanWaveShards(nw, shards)
				var merged []netip.Addr
				for s := 0; s < plan.Shards; s++ {
					lo, hi := plan.Range(s)
					open, err := PortScanRange(context.Background(), nw, PortScanConfig{}, lo, hi)
					if err != nil {
						t.Fatal(err)
					}
					merged = append(merged, open...)
				}
				if !slices.Equal(merged, full) {
					t.Fatalf("%s: %d shards return %d addresses, the full sweep %d", label, shards, len(merged), len(full))
				}
			}
		}
	}

	if testing.Short() {
		t.Skip("the seed-2020 study world takes seconds to materialize")
	}
	spec, err := deploy.BuildSpec(2020)
	if err != nil {
		t.Fatal(err)
	}
	world, err := deploy.Materialize(spec, deploy.Options{TestKeySizes: true, NoiseProb: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	for wave := range deploy.WaveDates {
		view, err := world.SnapshotWave(wave)
		if err != nil {
			t.Fatal(err)
		}
		open := checkSweep(t, fmt.Sprintf("study wave %d", wave), view, 0, view.Universe().Size())
		if len(open) < 4000 {
			t.Fatalf("study wave %d: %d responsive addresses, want thousands", wave, len(open))
		}
	}
}

// distinct returns the distinct addresses of a.
func distinct(a []netip.Addr) []netip.Addr {
	c := slices.Clone(a)
	slices.SortFunc(c, func(x, y netip.Addr) int { return x.Compare(y) })
	return slices.Compact(c)
}

// TestPermutationIndexInvertsAt checks Index against at: at every index
// of the study universe for the sweep seed and a second seed, at every
// index of small odd-width universes, and by sampling at 2^40, whose
// halves are too wide to tabulate, so the inverse runs on round alone.
func TestPermutationIndexInvertsAt(t *testing.T) {
	for _, c := range []struct{ n, seed uint64 }{
		{1, 7}, {2, 7}, {3, 7}, {5, 7}, {300, 7}, {2621440, sweepSeed}, {2621440, 2020},
	} {
		p := NewPermutation(c.n, c.seed)
		for i := uint64(0); i < c.n; i++ {
			if got := p.Index(p.at(i)); got != i {
				t.Fatalf("n=%d seed=%d: Index(at(%d)) = %d", c.n, c.seed, i, got)
			}
		}
	}
	rng := mrand.New(mrand.NewSource(40))
	p := NewPermutation(1<<40, 2020)
	if p.tab[0] != nil {
		t.Fatal("a 2^40 permutation tabulated its rounds")
	}
	for range 20000 {
		i := rng.Uint64() % (1 << 40)
		if got := p.Index(p.at(i)); got != i {
			t.Fatalf("n=2^40: Index(at(%d)) = %d", i, got)
		}
		if got := p.at(p.Index(i)); got != i {
			t.Fatalf("n=2^40: at(Index(%d)) = %d", i, got)
		}
	}
}
