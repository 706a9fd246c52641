package scanner

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/simnet"
)

// ShardPlan deterministically partitions a wave's permuted probe space
// [0, N) — N the universe size — into Shards contiguous index ranges.
// The plan is a pure function of (N, Shards): every process planning
// the same wave computes the same ranges, which is what lets shard i of
// N run on any machine and still merge byte-identically (DESIGN.md §5).
//
// Sharding the *permuted* index space rather than the address space
// keeps zmap's properties per shard: each shard's probes spread over
// the whole universe (no prefix sees a burst even from a single
// worker process), and shard sizes are equal to within one probe.
type ShardPlan struct {
	Universe uint64
	Shards   int
}

// PlanWaveShards builds the shard plan for a wave scanned over nw.
func PlanWaveShards(nw simnet.View, shards int) ShardPlan {
	if shards < 1 {
		shards = 1
	}
	return ShardPlan{Universe: nw.Universe().Size(), Shards: shards}
}

// Range returns shard i's permuted index range [lo, hi).
func (p ShardPlan) Range(i int) (lo, hi uint64) {
	n, s := p.Universe, uint64(p.Shards)
	return n * uint64(i) / s, n * uint64(i+1) / s
}

// RunWaveShard executes shard `shard` of a wave: the port scan
// restricted to the shard's slice of the permuted index space, then the
// full grab stage — including follow-up references, which may leave the
// shard's slice of the address space — seeded from the shard's own
// discoveries. A target referenced from two shards is grabbed by both;
// MergeWaveShards deduplicates, preferring the owning shard's port-scan
// grab, so the merged wave is the unsharded wave record for record.
//
// The cancellation contract matches RunWave's, per shard: a cancelled
// shard returns its partial wave (completed grabs, Partial set) with
// ctx's error, and a cancellation during the shard's port scan returns
// an empty partial wave. Partial shards merge cleanly — their finished
// grabs are kept, the merged wave is marked Partial (see
// MergeWaveShards) — so one cancelled worker never poisons the others.
func RunWaveShard(ctx context.Context, nw simnet.View, sc *Scanner, cfg WaveConfig, plan ShardPlan, shard int) (*Wave, error) {
	if shard < 0 || shard >= plan.Shards {
		return nil, fmt.Errorf("scanner: shard %d out of range [0, %d)", shard, plan.Shards)
	}
	lo, hi := plan.Range(shard)
	return runWaveRange(ctx, nw, sc, cfg, lo, hi)
}

// runWaveRange is the shared wave body: port scan over the permuted
// index range, then grabs with follow-ups. RunWave passes the full
// range; RunWaveShard passes its plan slice.
func runWaveRange(ctx context.Context, nw simnet.View, sc *Scanner, cfg WaveConfig, lo, hi uint64) (*Wave, error) {
	if cfg.GrabWorkers <= 0 {
		cfg.GrabWorkers = 32
	}
	if cfg.PortScan.Metrics == nil {
		// The discovery stage reports under the same scope as the grab
		// stage unless the caller split them deliberately.
		cfg.PortScan.Metrics = cfg.Metrics
	}
	open, err := PortScanRange(ctx, nw, cfg.PortScan, lo, hi)
	if err != nil {
		return &Wave{Date: cfg.Date, OpenPorts: len(open), Partial: true},
			fmt.Errorf("scanner: port scan: %w", err)
	}
	wave := &Wave{Date: cfg.Date, OpenPorts: len(open)}

	targets := make([]Target, 0, len(open))
	for _, addr := range open {
		t := Target{
			Address: fmt.Sprintf("%s:%d", addr, simnet.ScanPort),
			Via:     ViaPortScan,
		}
		if cfg.Delta != nil && cfg.Delta.Skip(t.Address) {
			// Provably unchanged since the prior wave: the campaign
			// clones the prior record; no channel is opened. The port
			// scan above still swept the address, so OpenPorts is the
			// full wave's count.
			continue
		}
		targets = append(targets, t)
	}

	wave.Results = runStreaming(ctx, sc, targets, cfg)
	sortResults(wave.Results)
	err = ctx.Err()
	wave.Partial = err != nil
	return wave, err
}

// MergeWaveShards folds per-shard waves into the wave an unsharded run
// would have produced. Determinism rules (DESIGN.md §5):
//
//   - Open-port counts sum: the plan's ranges partition the permuted
//     index space, so every address was probed by exactly one shard.
//   - Results are deduplicated by target address. A port-scan grab
//     always wins over a follow-reference grab of the same address
//     (mirroring the unsharded dedup, where every port-scan target is
//     enqueued before any reference); among reference-only duplicates
//     the lowest shard index wins — the grabs are replays of the same
//     deterministic exchange, so every copy is the same record.
//   - The merged results get the standard deterministic sort, making
//     the merge independent of shard count.
//
// Cancellation: a nil shard entry is tolerated (a worker that never
// produced a wave); any missing or Partial shard marks the merged wave
// Partial, but completed grabs from every shard are still merged — a
// cancelled shard narrows the wave, it never poisons the merge.
func MergeWaveShards(shards ...*Wave) *Wave {
	merged := &Wave{}
	batches := make([][]*Result, 0, len(shards))
	for _, w := range shards {
		if w == nil {
			merged.Partial = true
			continue
		}
		merged.Date = w.Date
		merged.OpenPorts += w.OpenPorts
		merged.Partial = merged.Partial || w.Partial
		batches = append(batches, w.Results)
	}
	merged.Results = MergeShardItems(batches,
		func(r *Result) string { return r.Address },
		func(r *Result) bool { return r.Via == ViaPortScan })
	return merged
}

// MergeShardItems implements the shard-merge determinism rules once,
// for any record representation — scanner Results here, dataset
// records in pipeline.MergeShardStreams; the byte-identity guarantee
// depends on both merges applying exactly the same rules. Items fold
// in shard order, deduplicated by address (a port-scan grab wins over
// a follow-reference grab of the same address, the earliest shard
// breaks reference-only ties), then sorted into the standard
// deterministic wave order: port-scan items first, then by address.
func MergeShardItems[T any](shards [][]T, address func(T) string, isPortScan func(T) bool) []T {
	var merged []T
	index := map[string]int{} // address → position in merged
	for _, items := range shards {
		for _, it := range items {
			at, seen := index[address(it)]
			switch {
			case !seen:
				index[address(it)] = len(merged)
				merged = append(merged, it)
			case isPortScan(it) && !isPortScan(merged[at]):
				merged[at] = it
			}
		}
	}
	SortShardItems(merged, address, isPortScan)
	return merged
}

// SortShardItems applies the standard deterministic wave order in
// place: port-scan items first, then by address. sortResults and the
// record-level merge both delegate here, so the order cannot drift
// between representations.
func SortShardItems[T any](items []T, address func(T) string, isPortScan func(T) bool) {
	slices.SortFunc(items, func(a, b T) int {
		if isPortScan(a) != isPortScan(b) {
			if isPortScan(a) {
				return -1
			}
			return 1
		}
		return strings.Compare(address(a), address(b))
	})
}
