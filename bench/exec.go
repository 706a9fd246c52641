package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	opcuastudy "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/deploy"
	"repro/internal/fabric"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
)

// fabricHeartbeat is short because the workers live in this process:
// a missed beat would be a bug, not a slow network.
const fabricHeartbeat = 250 * time.Millisecond

// rep is one campaign's outcome, timed from the executor call to the
// dataset flushed and closed.
type rep struct {
	wallS, cpuS float64
	err         error
	last        *core.WaveAnalysis
	long        *core.Longitudinal
	// records is the dataset's record count, set by the checks.
	records int
	// streams are the committed shard streams of a fabric rep, kept by
	// the traced pass for the stage replay.
	streams [][]byte
}

// obs is what a traced rep adds; the zero value runs untraced
// (CampaignConfig.Telemetry nil, sinks unwrapped).
type obs struct {
	reg *telemetry.Registry
	t   *tracer
	// mem, when set, measures the rep's allocation (untraced reps of
	// the traced pass only: sampling the heap perturbs the timing a
	// little).
	mem *memProbe
}

// runRep executes one rep of the workload on the world and writes its
// dataset to path. Simulated RTT is installed around the rep, outside
// the timed interval.
func runRep(ctx context.Context, w *workload, world *deploy.World, path string, o obs) rep {
	world.Net.SetLatency(w.RTT)
	defer world.Net.SetLatency(0)
	out, err := os.Create(path)
	if err != nil {
		return rep{err: err}
	}
	defer out.Close()

	var r rep
	if o.mem != nil {
		o.mem.start()
		defer o.mem.finish()
	}
	root := o.t.begin(nil, -1, "campaign")
	m := startMeter()
	if w.Fabric {
		r = runFabric(ctx, w, world, out, o, root)
	} else {
		r = runCampaign(ctx, w, world, out, o, root)
	}
	if r.err == nil {
		r.err = out.Close()
	}
	r.wallS, r.cpuS = m.stop()
	root.end()
	return r
}

// runCampaign is the in-process executor: RunCampaignOnWorld streaming
// into an EncoderSink over the dataset file.
func runCampaign(ctx context.Context, w *workload, world *deploy.World, out *os.File, o obs, root *span) rep {
	var sink pipeline.RecordSink = pipeline.NewEncoderSink(out, false)
	if o.t != nil {
		sink = &tracedSink{down: sink, t: o.t, parent: root}
	}
	cfg := w.Cfg
	cfg.RecordSink = sink
	cfg.Telemetry = o.reg
	c, err := opcuastudy.RunCampaignOnWorld(ctx, cfg, world)
	if err == nil {
		err = sink.Close()
	}
	if err != nil {
		return rep{err: err}
	}
	return rep{last: c.LastWave(), long: c.Long}
}

// runFabric is the other executor: a coordinator on loopback TCP leases
// the shards to in-process workers that run RunCampaignShard on the
// shared world; the committed streams are then decoded, merged and
// folded while the merged dataset is written.
func runFabric(ctx context.Context, w *workload, world *deploy.World, out *os.File, o obs, root *span) rep {
	spec := w.Cfg.FabricSpec(fabricShards, fabricHeartbeat)
	hello, err := spec.Encode()
	if err != nil {
		return rep{err: err}
	}
	wcfg := opcuastudy.CampaignFromSpec(spec)
	wcfg.Telemetry = o.reg
	runner := func(ctx context.Context, _ []byte, shard int, sink pipeline.RecordSink) error {
		return opcuastudy.RunCampaignShard(ctx, wcfg, world, fabricShards, shard, sink)
	}
	sp := o.t.begin(root, -1, "fabric.run")
	streams, err := runCoordinator(ctx, hello, w.Cfg.Seed, o.reg, runner)
	sp.end()
	if err != nil {
		return rep{err: err}
	}

	sp = o.t.begin(root, -1, "pipeline.merge_fold")
	defer sp.end()
	decoders := make([]*dataset.Decoder, len(streams))
	for i, s := range streams {
		decoders[i] = dataset.NewDecoder(bytes.NewReader(s))
	}
	analyzer := pipeline.NewAnalyzer(pipeline.AnalyzerConfig{Retain: true, Metrics: o.reg})
	sink := pipeline.Tee(analyzer, pipeline.NewEncoderSink(out, false))
	if err := pipeline.MergeShardStreams(sink, decoders...); err != nil {
		return rep{err: err}
	}
	if err := sink.Close(); err != nil {
		return rep{err: err}
	}
	analyses, long := analyzer.Results()
	if len(analyses) == 0 {
		return rep{err: errors.New("merged streams hold no waves")}
	}
	return rep{last: analyses[len(analyses)-1], long: long, streams: streams}
}

// runCoordinator serves fabricShards leases on 127.0.0.1:0 to
// fabricWorkers in-process workers and returns the committed streams
// once every worker has returned.
func runCoordinator(ctx context.Context, hello []byte, seed int64, reg *telemetry.Registry, runner fabric.ShardRunner) ([][]byte, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	coord := fabric.NewCoordinator(ln, fabric.CoordinatorConfig{
		Shards:  fabricShards,
		Hello:   hello,
		Metrics: reg,
	})
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	workerErrs := make([]error, fabricWorkers)
	for i := 0; i < fabricWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErrs[i] = fabric.RunWorker(wctx, fabric.WorkerConfig{
				Addr:           ln.Addr().String(),
				Name:           fmt.Sprintf("bench-w%d", i),
				HeartbeatEvery: fabricHeartbeat,
				RetrySeed:      seed + int64(i),
				Metrics:        reg,
			}, runner)
		}(i)
	}
	streams, err := coord.Run(ctx)
	// Every shard is committed (or the run failed): workers that missed
	// the shutdown frame must not sit in their reconnect backoff.
	cancel()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	for _, werr := range workerErrs {
		if werr != nil && !errors.Is(werr, context.Canceled) {
			return nil, werr
		}
	}
	return streams, nil
}
