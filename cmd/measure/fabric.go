package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	opcuastudy "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/deploy"
	"repro/internal/fabric"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// parseFaultSpec maps the -fault flag onto a fabric fault injector.
// Worker side: kill=N (die abruptly at the Nth record), stall=N (wedge
// the session at the Nth record, heartbeats included), drop=N (sever
// the connection after the Nth frame). Coordinator side: dupgrant
// (lease every shard twice).
func parseFaultSpec(spec string) (fabric.FaultInjector, error) {
	if spec == "" {
		return nil, nil
	}
	kind, val, hasVal := strings.Cut(spec, "=")
	var n int64
	if hasVal {
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("invalid -fault count %q (want a positive integer)", val)
		}
		n = v
	}
	switch kind {
	case "kill", "stall", "drop":
		if !hasVal {
			return nil, fmt.Errorf("-fault %s requires a count, e.g. %s=3", kind, kind)
		}
	case "dupgrant":
		if hasVal {
			return nil, fmt.Errorf("-fault dupgrant takes no count")
		}
		return fabric.DuplicateGrants{}, nil
	default:
		return nil, fmt.Errorf("unknown -fault %q (worker: kill=N, stall=N, drop=N; coordinator: dupgrant)", spec)
	}
	switch kind {
	case "kill":
		return &fabric.KillAfterRecords{N: n}, nil
	case "stall":
		return &fabric.StallAfterRecords{N: n}, nil
	default:
		return &fabric.DropAfterFrames{N: n}, nil
	}
}

// runFabricCoordinator serves the networked shard fabric: it leases
// the campaign's shards to dialing workers, survives worker loss by
// re-queueing uncommitted shards, and merges the committed streams.
func runFabricCoordinator(cfg opcuastudy.CampaignConfig, addr string, shards int, deadAfter, heartbeat time.Duration, faultSpec, datasetPath string, csv bool, mopts metricsOptions) error {
	if shards < 1 {
		return fmt.Errorf("-listen requires -shards of at least 1, got %d", shards)
	}
	faults, err := parseFaultSpec(faultSpec)
	if err != nil {
		return err
	}
	if faults != nil {
		if _, ok := faults.(fabric.DuplicateGrants); !ok {
			return fmt.Errorf("-fault %q is worker-side; the coordinator only accepts dupgrant", faultSpec)
		}
	}
	spec := cfg.FabricSpec(shards, heartbeat)
	hello, err := spec.Encode()
	if err != nil {
		return err
	}

	reg := telemetry.New()
	if err := serveDebug(mopts.DebugAddr, reg); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fabric coordinator on %s: %d shards, workers dead after %s\n",
		ln.Addr(), shards, deadAfter)
	coord := fabric.NewCoordinator(ln, fabric.CoordinatorConfig{
		Shards:    shards,
		Hello:     hello,
		DeadAfter: deadAfter,
		Metrics:   reg,
		Faults:    faults,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	streams, err := coord.Run(context.Background())
	if err != nil {
		return err
	}

	fsnap := reg.Snapshot()
	fsnap.Shard = "fabric"
	fsnap.Final = true
	return mergeStreams(cfg, streams, datasetPath, csv, mopts, fsnap)
}

// mergeStreams merges the committed wave-ordered shard streams
// deterministically, feeds the incremental analyzer (and optionally the
// final dataset encoder), and prints the report of the merged campaign.
// The merge stage owns its own registry: its campaign_records counters
// tally the records that survive cross-shard dedup, so they equal the
// merged dataset's record count exactly (workers count the records
// they emitted, which can overlap on follow-up references). The
// coordinator's lease/retry snapshot rides along into the -metrics
// output and the summary.
func mergeStreams(cfg opcuastudy.CampaignConfig, streams [][]byte, datasetPath string, csv bool, mopts metricsOptions, fabricSnap *telemetry.Snapshot) error {
	decoders := make([]*dataset.Decoder, len(streams))
	for i, s := range streams {
		decoders[i] = dataset.NewDecoder(bytes.NewReader(s))
	}
	reg := telemetry.New()
	analyzer := pipeline.NewAnalyzer(pipeline.AnalyzerConfig{
		Retain:  true,
		Metrics: reg,
		OnWave: func(w *core.WaveAnalysis) {
			reg.Scope("wave", strconv.Itoa(w.Wave)).Counter("campaign_records").Add(uint64(len(w.Records)))
			fmt.Fprintf(os.Stderr, "merged wave %d: %d OPC UA hosts (%d servers, %d discovery), %.0f%% deficient\n",
				w.Wave, len(w.Records), len(w.Servers), w.Discovery, 100*w.DeficientFrac)
		},
	})
	sinks := []pipeline.RecordSink{analyzer}
	var out *os.File
	if datasetPath != "" {
		var err error
		if out, err = os.Create(datasetPath); err != nil {
			return err
		}
		defer out.Close()
		sinks = append(sinks, pipeline.NewEncoderSink(out, cfg.Anonymize))
	}
	sink := pipeline.Tee(sinks...)
	if err := pipeline.MergeShardStreams(sink, decoders...); err != nil {
		return err
	}
	if err := sink.Close(); err != nil {
		return err
	}
	if out != nil {
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "merged dataset written to %s\n", datasetPath)
	}

	analyses, long := analyzer.Results()
	if len(analyses) == 0 {
		return fmt.Errorf("merged streams contain no analyzable waves")
	}

	mergeSnap := reg.Snapshot()
	mergeSnap.Shard = "merge"
	mergeSnap.Final = true
	summary, err := writeSnapshots(mopts.Path, mergeSnap, fabricSnap)
	if err != nil {
		return err
	}
	printTables(append(report.All(analyses, long), summaryTable(summary)), csv)
	return nil
}

// runFabricWorker dials a fabric coordinator and executes leased
// shards until shutdown. The campaign configuration comes from the
// coordinator's hello payload — never from this process's flags — so a
// fleet cannot diverge on record-shaping knobs; the expensive world
// build happens once and is shared by every leased shard.
func runFabricWorker(cfg opcuastudy.CampaignConfig, addr, name, faultSpec string, heartbeat time.Duration, mopts metricsOptions) error {
	if name == "" {
		name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	faults, err := parseFaultSpec(faultSpec)
	if err != nil {
		return err
	}
	if _, ok := faults.(fabric.DuplicateGrants); ok {
		return fmt.Errorf("-fault dupgrant is coordinator-side")
	}
	reg := telemetry.New()
	if err := serveDebug(mopts.DebugAddr, reg); err != nil {
		return err
	}
	streamer, err := newMetricsStreamer(mopts.Path, mopts.Interval, reg, name)
	if err != nil {
		return err
	}

	var fleet struct {
		sync.Mutex
		hello  []byte
		cfg    opcuastudy.CampaignConfig
		world  *deploy.World
		shards int
	}
	prepare := func(hello []byte) (opcuastudy.CampaignConfig, *deploy.World, int, error) {
		fleet.Lock()
		defer fleet.Unlock()
		if fleet.world != nil && bytes.Equal(fleet.hello, hello) {
			return fleet.cfg, fleet.world, fleet.shards, nil
		}
		spec, err := fabric.DecodeSpec(hello)
		if err != nil {
			return opcuastudy.CampaignConfig{}, nil, 0, err
		}
		wcfg := opcuastudy.CampaignFromSpec(*spec)
		wcfg.Telemetry = reg
		wcfg.Progressf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "["+name+"] "+format+"\n", args...)
		}
		world, err := opcuastudy.BuildWorld(wcfg)
		if err != nil {
			return opcuastudy.CampaignConfig{}, nil, 0, err
		}
		fleet.hello = bytes.Clone(hello)
		fleet.cfg, fleet.world, fleet.shards = wcfg, world, spec.Shards
		return wcfg, world, spec.Shards, nil
	}

	runner := func(ctx context.Context, hello []byte, shard int, sink pipeline.RecordSink) error {
		wcfg, world, total, err := prepare(hello)
		if err != nil {
			return err
		}
		return opcuastudy.RunCampaignShard(ctx, wcfg, world, total, shard, sink)
	}

	err = fabric.RunWorker(context.Background(), fabric.WorkerConfig{
		Addr:           addr,
		Name:           name,
		HeartbeatEvery: heartbeat,
		RetrySeed:      fabricRetrySeed(cfg.Seed, name),
		Metrics:        reg,
		Faults:         faults,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}, runner)
	if serr := streamer.Stop(); err == nil {
		err = serr
	}
	return err
}

// fabricRetrySeed derives a worker's deterministic backoff seed from
// -seed's default (a worker takes no -seed) and the worker's name: every
// run of one worker replays the same retry schedule, while the fleet's
// schedules stay mutually de-synchronized.
func fabricRetrySeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ int64(h.Sum64())
}
