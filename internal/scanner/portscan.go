package scanner

import (
	"cmp"
	"context"
	"net/netip"
	"slices"

	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// PortScanConfig tunes the zmap-style discovery stage.
type PortScanConfig struct {
	// Metrics receives the scan_probes and scan_open_ports counters; nil
	// disables telemetry at zero cost.
	Metrics *telemetry.Registry
}

// sweepSeed seeds the permutation every sweep visits the universe in,
// so the scan order is a function of the universe size alone.
const sweepSeed = 0

// PortScan sweeps every address of the view's universe on
// simnet.ScanPort and returns the responsive ones in permuted scan
// order. It only reads the view.
func PortScan(ctx context.Context, nw simnet.View, cfg PortScanConfig) ([]netip.Addr, error) {
	return PortScanRange(ctx, nw, cfg, 0, nw.Universe().Size())
}

// PortScanRange sweeps only the scan indexes in [lo, hi): one shard's
// contiguous slice of the permutation PortScan walks, so the shards of
// a ShardPlan partition the universe exactly and their union covers
// every address once. hi is clamped to the universe size; the full
// range reproduces PortScan.
//
// The sweep is a range query on the view, O(responsive) rather than
// O(universe): each linear index of View.Responsive (≈ 7,000 of the
// study universe's 2.6 M) maps through Permutation.Index to the scan
// index a zmap-style probe loop would have reached it at; those inside
// [lo, hi) are returned in scan-index order. That is the probe loop's
// result, element for element (TestPortScanMatchesProbeSweep), without
// touching an unresponsive address. scan_probes counts the hi − lo
// addresses the sweep covered, scan_open_ports the ones it returns.
func PortScanRange(ctx context.Context, nw simnet.View, cfg PortScanConfig, lo, hi uint64) ([]netip.Addr, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	u := nw.Universe()
	hi = min(hi, u.Size())
	lo = min(lo, hi)
	// The permutation always spans the full universe: a shard owns a
	// slice of the permuted index space, not a slice of the address
	// space, preserving zmap's no-burst property inside every shard.
	perm := NewPermutation(u.Size(), sweepSeed)
	type hit struct{ index, pos uint64 }
	responsive := nw.Responsive()
	hits := make([]hit, 0, len(responsive))
	for _, pos := range responsive {
		if i := perm.Index(pos); lo <= i && i < hi {
			hits = append(hits, hit{i, pos})
		}
	}
	slices.SortFunc(hits, func(a, b hit) int { return cmp.Compare(a.index, b.index) })
	open := make([]netip.Addr, len(hits))
	for k, h := range hits {
		prefix, off := u.Locate(h.pos)
		open[k] = u.Prefix(prefix).AddrAt(off)
	}
	cfg.Metrics.Counter("scan_probes").Add(hi - lo)
	cfg.Metrics.Counter("scan_open_ports").Add(uint64(len(open)))
	return open, nil
}
