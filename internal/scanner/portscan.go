package scanner

import (
	"context"
	"net/netip"
	"sync"
	"time"

	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// PortScanConfig tunes the zmap-style discovery stage.
type PortScanConfig struct {
	Port int
	// Rate limits probes per second; zero means unlimited (the simulated
	// network has no operators to bother, but the limiter is exercised
	// in tests because the real study depends on it).
	Rate    int
	Workers int
	Seed    uint64
	// Metrics receives probe/open-port counters (scan_probes,
	// scan_open_ports); nil disables telemetry at zero cost. Workers
	// batch counts locally and flush at the existing context-check
	// cadence, so the probe loop itself stays allocation-free either
	// way.
	Metrics *telemetry.Registry
}

// ctxCheckInterval bounds how many unlimited-rate probes a shard worker
// runs between context checks; probes are sub-microsecond, so
// cancellation latency stays well under a millisecond.
const ctxCheckInterval = 1024

// PortScan probes every address of the view's universe on the given
// port in permuted order and returns the responsive addresses. The
// view may be the live mutable Network or an immutable per-wave
// worldview snapshot; either way PortScan only reads.
//
// The permuted index space [0, N) is statically sharded into one
// contiguous range per worker: a probe is a pure function call chain
// (Permutation.At, Universe.Locate, View.OpenPortAt — a handful of table
// lookups on a snapshot) with no channel traffic and no heap
// allocations; only a responsive address becomes a netip.Addr, and each
// shard batches those locally. Shards are concatenated in worker
// order, so the result order is deterministic for a given
// (universe, seed, workers) triple — though callers must not rely on
// it beyond set equality, which is what the grab stage's deterministic
// sort consumes.
func PortScan(ctx context.Context, nw simnet.View, cfg PortScanConfig) ([]netip.Addr, error) {
	return PortScanRange(ctx, nw, cfg, 0, nw.Universe().Size())
}

// PortScanRange probes only the permuted indexes in [lo, hi) — one
// shard's contiguous slice of the same permutation PortScan walks, so
// the shards of a ShardPlan partition the address space exactly and
// their union visits every address exactly once. hi is clamped to the
// universe size; the full range reproduces PortScan.
func PortScanRange(ctx context.Context, nw simnet.View, cfg PortScanConfig, lo, hi uint64) ([]netip.Addr, error) {
	if cfg.Port == 0 {
		cfg.Port = 4840
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 64
	}
	u := nw.Universe()
	total := u.Size()
	if hi > total {
		hi = total
	}
	if lo > hi {
		lo = hi
	}
	n := hi - lo
	// The permutation always spans the full universe: a shard owns a
	// slice of the permuted index space, not a slice of the address
	// space, preserving zmap's no-burst property inside every shard.
	perm := NewPermutation(total, cfg.Seed)

	var limiter *time.Ticker
	if cfg.Rate > 0 {
		// time.Second / Rate truncates to zero for Rate > 1e9, and
		// NewTicker panics on non-positive intervals; clamp to 1ns
		// (effectively unlimited — no simulated probe is that fast).
		interval := time.Second / time.Duration(cfg.Rate)
		if interval <= 0 {
			interval = time.Nanosecond
		}
		limiter = time.NewTicker(interval)
		defer limiter.Stop()
	}

	workers := cfg.Workers
	if uint64(workers) > n {
		workers = int(n)
	}
	if workers == 0 {
		return nil, ctx.Err()
	}
	// Instrument handles resolve once here, never inside the probe loop;
	// on a nil registry they are nil and every flush is one pointer check.
	probesC := cfg.Metrics.Counter("scan_probes")
	openC := cfg.Metrics.Counter("scan_open_ports")
	shards := make([][]netip.Addr, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		// Static sharding: worker w owns the contiguous index range
		// [lo + n*w/workers, lo + n*(w+1)/workers) of the assigned
		// slice. The permutation spreads each range across the whole
		// address space, preserving zmap's no-burst property per shard.
		wlo := lo + n*uint64(w)/uint64(workers)
		whi := lo + n*uint64(w+1)/uint64(workers)
		wg.Add(1)
		go func(w int, lo, hi uint64) {
			defer wg.Done()
			var open []netip.Addr
			// Probe counts batch in a local and flush at the context-check
			// cadence plus once at exit, keeping the loop free of atomics.
			var probed uint64
			defer func() {
				shards[w] = open
				probesC.Add(probed)
				openC.Add(uint64(len(open)))
			}()
			for i := lo; i < hi; i++ {
				if limiter != nil {
					// The ticker is shared: the aggregate probe rate
					// across all shards matches cfg.Rate.
					select {
					case <-ctx.Done():
						return
					case <-limiter.C:
					}
				} else if i%ctxCheckInterval == 0 {
					if ctx.Err() != nil {
						return
					}
					probesC.Add(probed)
					probed = 0
				}
				probed++
				prefix, off := u.Locate(perm.At(i))
				if nw.OpenPortAt(prefix, off, cfg.Port) {
					open = append(open, u.Prefix(prefix).AddrAt(off))
				}
			}
		}(w, wlo, whi)
	}
	wg.Wait()
	count := 0
	for _, s := range shards {
		count += len(s)
	}
	open := make([]netip.Addr, 0, count)
	for _, s := range shards {
		open = append(open, s...)
	}
	return open, ctx.Err()
}
