package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	opcuastudy "repro"
	"repro/internal/dataset"
	"repro/internal/deploy"
	"repro/internal/pipeline"
)

// buildTimes is one timed world build, stage by stage.
type buildTimes struct {
	specS, materializeS, materializeCPUS, snapshotS float64
}

func (b buildTimes) total() float64 { return b.specS + b.materializeS + b.snapshotS }

// buildWorld runs the cold-start path of a campaign: spec, world and
// all eight per-wave snapshots (which construct every server once).
func buildWorld(cfg opcuastudy.CampaignConfig) (*deploy.World, buildTimes, error) {
	var bt buildTimes
	m := startMeter()
	spec, err := deploy.BuildSpec(cfg.Seed)
	if err != nil {
		return nil, bt, err
	}
	bt.specS, _ = m.stop()

	m = startMeter()
	world, err := deploy.Materialize(spec, deploy.Options{
		TestKeySizes: cfg.TestKeySizes,
		NoiseProb:    cfg.NoiseProb,
		MaxHosts:     cfg.MaxHosts,
	})
	if err != nil {
		return nil, bt, err
	}
	bt.materializeS, bt.materializeCPUS = m.stop()

	m = startMeter()
	for w := range deploy.WaveDates {
		if _, err := world.SnapshotWave(w); err != nil {
			return nil, bt, err
		}
	}
	bt.snapshotS, _ = m.stop()
	return world, bt, nil
}

// fixture is what set-up leaves for the workloads: the world, the
// reference campaign's records and their per-wave digests.
type fixture struct {
	world *deploy.World
	// builds holds every timed world build; the last one's world is kept.
	builds  []buildTimes
	warmupS float64
	// refRecords and refDigests come from the reference campaign: a full
	// scan of every wave a selected workload covers, one shard, no delta,
	// no RTT. It doubles as the warm-up that fills the world's caches.
	refRecords map[int][]*dataset.HostRecord
	refDigests map[int]string
}

// setupSamples is the set-up time a user pays before the first
// campaign, once per timed world build: the build plus the
// reference/warm-up campaign (run once, on the last world).
func (f *fixture) setupSamples() []float64 {
	totals := make([]float64, len(f.builds))
	for i, b := range f.builds {
		totals[i] = b.total() + f.warmupS
	}
	return totals
}

func (f *fixture) buildMedian(pick func(buildTimes) float64) float64 {
	xs := make([]float64, len(f.builds))
	for i, b := range f.builds {
		xs[i] = pick(b)
	}
	return median(xs)
}

// newFixture builds the world sizing.Setups times (the median is reported)
// and runs the reference campaign on the last one.
func newFixture(ctx context.Context, o options, refWaves []int) (*fixture, error) {
	f := &fixture{}
	base := baseConfig(o.seed, o.sizing)
	for i := 0; i < o.sizing.Setups; i++ {
		f.world = nil
		runtime.GC() // the previous world is garbage; do not bill it to this build
		world, bt, err := buildWorld(base)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		f.world, f.builds = world, append(f.builds, bt)
	}

	path := filepath.Join(o.outDir, "reference.jsonl")
	out, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer out.Close()
	sink := pipeline.NewEncoderSink(out, false)
	ref := base
	ref.Waves = refWaves
	ref.RecordSink = sink
	m := startMeter()
	c, err := opcuastudy.RunCampaignOnWorld(ctx, ref, f.world)
	if err == nil {
		err = sink.Close()
	}
	if err != nil {
		return nil, fmt.Errorf("reference campaign: %w", err)
	}
	f.warmupS, _ = m.stop()
	if o.sizing.Headlines {
		if fails := checkHeadlines(c.LastWave(), c.Long, len(refWaves)); len(fails) > 0 {
			return nil, fmt.Errorf("reference campaign misses the paper's headlines: %v", fails)
		}
	}
	f.refRecords = c.RecordsByWave
	if f.refDigests, _, err = fileDigests(path); err != nil {
		return nil, fmt.Errorf("reference campaign: %w", err)
	}
	return f, nil
}
