package scanner

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestShardPlanPartitionsIndexSpace pins the plan arithmetic: ranges
// are contiguous, cover [0, N) exactly, and are deterministic.
func TestShardPlanPartitionsIndexSpace(t *testing.T) {
	for _, tc := range []struct {
		n      uint64
		shards int
	}{{100, 1}, {100, 3}, {7, 5}, {3, 8}, {65536, 4}} {
		plan := ShardPlan{Universe: tc.n, Shards: tc.shards}
		var next uint64
		for i := 0; i < tc.shards; i++ {
			lo, hi := plan.Range(i)
			if lo != next {
				t.Errorf("n=%d shards=%d: shard %d starts at %d, want %d",
					tc.n, tc.shards, i, lo, next)
			}
			if hi < lo {
				t.Errorf("n=%d shards=%d: shard %d inverted range [%d, %d)",
					tc.n, tc.shards, i, lo, hi)
			}
			next = hi
		}
		if next != tc.n {
			t.Errorf("n=%d shards=%d: ranges end at %d", tc.n, tc.shards, next)
		}
	}
}

// runShardedWave executes every shard of a plan and merges.
func runShardedWave(t *testing.T, shards int) (*Wave, *Wave) {
	t.Helper()
	nw, _ := buildWorld(t)
	sc := newScanner(t, nw)
	cfg := WaveConfig{
		Date:             time.Date(2020, 5, 4, 0, 0, 0, 0, time.UTC),
		FollowReferences: true,
		GrabWorkers:      4,
	}
	full, err := RunWave(context.Background(), nw, sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := PlanWaveShards(nw, shards)
	waves := make([]*Wave, shards)
	for i := range waves {
		if waves[i], err = RunWaveShard(context.Background(), nw, sc, cfg, plan, i); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	return MergeWaveShards(waves...), full
}

// TestRunWaveShardMergeMatchesUnsharded is the scanner-level shard
// acceptance gate: for several shard counts, executing every shard and
// merging reproduces the unsharded wave — same open-port count, same
// results in the same deterministic order, no duplicates.
func TestRunWaveShardMergeMatchesUnsharded(t *testing.T) {
	for _, shards := range []int{1, 2, 5} {
		merged, full := runShardedWave(t, shards)
		if merged.Partial {
			t.Errorf("shards=%d: uncancelled merge marked partial", shards)
		}
		if merged.OpenPorts != full.OpenPorts {
			t.Errorf("shards=%d: open ports %d, want %d", shards, merged.OpenPorts, full.OpenPorts)
		}
		if len(merged.Results) != len(full.Results) {
			t.Fatalf("shards=%d: %d results, want %d", shards, len(merged.Results), len(full.Results))
		}
		for i, r := range merged.Results {
			f := full.Results[i]
			if r.Address != f.Address || r.Via != f.Via || r.ReachedOPCUA != f.ReachedOPCUA {
				t.Errorf("shards=%d result %d: %s/%s/%v, want %s/%s/%v",
					shards, i, r.Address, r.Via, r.ReachedOPCUA, f.Address, f.Via, f.ReachedOPCUA)
			}
		}
	}
}

// TestRunWaveShardOutOfRange pins the plan bounds check.
func TestRunWaveShardOutOfRange(t *testing.T) {
	nw, _ := buildWorld(t)
	sc := newScanner(t, nw)
	plan := PlanWaveShards(nw, 2)
	if _, err := RunWaveShard(context.Background(), nw, sc, WaveConfig{}, plan, 2); err == nil {
		t.Error("shard index == Shards accepted")
	}
	if _, err := RunWaveShard(context.Background(), nw, sc, WaveConfig{}, plan, -1); err == nil {
		t.Error("negative shard index accepted")
	}
}

// TestMergeWaveShardsPartialCancellation is the shard extension of
// RunWave's partial-cancellation contract: a shard cancelled mid-grab
// reports Partial and merges cleanly — its completed grabs are kept,
// the merged wave is marked Partial, and the surviving shards' results
// are untouched. A worker that never produced a wave (nil entry) also
// only narrows the merge.
func TestMergeWaveShardsPartialCancellation(t *testing.T) {
	nw, _ := buildWorld(t)
	sc := newScanner(t, nw)
	cfg := WaveConfig{
		Date:             time.Date(2020, 5, 4, 0, 0, 0, 0, time.UTC),
		FollowReferences: true,
		GrabWorkers:      1,
	}
	plan := PlanWaveShards(nw, 2)

	healthy, err := RunWaveShard(context.Background(), nw, sc, cfg, plan, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel shard 1 after its first grab dials, so it returns a
	// partial wave rather than a complete one.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wrapped := &cancelAfterDials{View: nw, cancel: cancel}
	wrapped.left.Store(1)
	cancelledSc := *sc
	cancelledSc.Dialer = wrapped
	partial, err := RunWaveShard(ctx, nw, &cancelledSc, cfg, plan, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if partial == nil || !partial.Partial {
		t.Fatalf("cancelled shard: wave = %+v, want non-nil partial", partial)
	}

	merged := MergeWaveShards(healthy, partial)
	if !merged.Partial {
		t.Error("merge of a partial shard not marked Partial")
	}
	if merged.OpenPorts != healthy.OpenPorts+partial.OpenPorts {
		t.Errorf("merged open ports = %d, want %d",
			merged.OpenPorts, healthy.OpenPorts+partial.OpenPorts)
	}
	// Every grab the healthy shard completed must survive the merge.
	got := resultSet(t, merged)
	for _, r := range healthy.Results {
		if !got[resultKey{Address: r.Address, Via: r.Via, ReachedOPCUA: r.ReachedOPCUA}] {
			t.Errorf("healthy shard's grab of %s lost in merge", r.Address)
		}
	}

	// A worker that died before producing any wave: nil entry.
	merged = MergeWaveShards(healthy, nil)
	if !merged.Partial {
		t.Error("merge with a missing shard not marked Partial")
	}
	if len(merged.Results) != len(healthy.Results) {
		t.Errorf("missing shard changed surviving results: %d vs %d",
			len(merged.Results), len(healthy.Results))
	}
}
