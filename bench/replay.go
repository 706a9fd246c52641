package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	opcuastudy "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/deploy"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/scanner"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/uacert"
	"repro/internal/uaclient"
	"repro/internal/uamsg"
	"repro/internal/uarsa"
	"repro/internal/wavediff"
	"repro/internal/worldview"
)

// memProbe measures one rep's allocation: MemStats deltas (which repeat
// within about 1 %) and a sampled heap peak (informational; it depends
// on where the collector happens to be).
type memProbe struct {
	before, after runtime.MemStats
	peakHeap      uint64
	stop          chan struct{}
	done          sync.WaitGroup
}

func (p *memProbe) start() {
	runtime.ReadMemStats(&p.before)
	p.stop = make(chan struct{})
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				p.peakHeap = max(p.peakHeap, ms.HeapAlloc)
			}
		}
	}()
}

func (p *memProbe) finish() {
	close(p.stop)
	p.done.Wait()
	runtime.ReadMemStats(&p.after)
	p.peakHeap = max(p.peakHeap, p.after.HeapAlloc)
}

// stageSum is one layer's stage-replay total over the workload's waves.
type stageSum struct{ wallS, cpuS float64 }

// ledger times the stage replay: the benchmark drives one stage at a
// time over the same world, so each stage's process CPU is its own.
type ledger struct {
	t      *tracer
	root   *span
	stages map[string]stageSum
}

func (l *ledger) time(name string, wave int, fn func() error) error {
	sp := l.t.begin(l.root, wave, name)
	m := startMeter()
	err := fn()
	wall, cpu := m.stop()
	sp.end()
	st := l.stages[name]
	l.stages[name] = stageSum{st.wallS + wall, st.cpuS + cpu}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// wall and cpu read a stage's totals; a stage that never ran reads 0.
func (l *ledger) wall(name string) float64 { return l.stages[name].wallS }
func (l *ledger) cpu(name string) float64  { return l.stages[name].cpuS }

// tracedPass produces the workload's per-layer metrics: untraced and
// traced reps alternate, two pairs unless -reps asks for one of
// everything (the difference of their fastest runs is the tracing
// overhead; the untraced ones also measure allocation), then the stage
// replay times each layer on its own.
func tracedPass(ctx context.Context, o options, w *workload, fix *fixture, wr *workloadResult, tr *tracer, stderr io.Writer) error {
	tr.workload = w.Name
	var untracedWall, tracedWall, tracedCPU []float64
	var mem *memProbe
	var snap *telemetry.Snapshot
	var last rep
	for i := 0; i < min(o.minReps, 2); i++ {
		mem = &memProbe{}
		r := checkedRep(ctx, o, w, fix, wr, obs{mem: mem})
		untracedWall = append(untracedWall, r.wallS)

		reg := telemetry.New()
		tr.rep = i
		last = checkedRep(ctx, o, w, fix, wr, obs{reg: reg, t: tr})
		tracedWall, tracedCPU = append(tracedWall, last.wallS), append(tracedCPU, last.cpuS)
		snap = reg.Snapshot()
		fmt.Fprintf(stderr, "bench: %s traced pair %d: %.3fs untraced, %.3fs traced\n", w.Name, i, r.wallS, last.wallS)
	}
	if wr.Failed > 0 {
		// The replay reads the reps' outputs; a failed rep makes its
		// numbers meaningless, and the failure is already on record.
		return errors.New("a rep failed its checks: " + wr.Failures[0])
	}

	tr.rep = -1
	l := &ledger{t: tr, stages: map[string]stageSum{}}
	l.root = tr.begin(nil, -1, "replay")
	counts, err := replay(ctx, o, w, fix, l, last.streams)
	l.root.end()
	if err != nil {
		return err
	}

	set := func(name string, v float64) {
		def, ok := findMetric(name)
		if !ok {
			panic("bench: undeclared metric " + name)
		}
		wr.Metrics[name] = metricValue{Value: v, Unit: def.Unit}
	}
	pct := func(part, whole float64) float64 {
		if whole == 0 {
			return 0
		}
		return 100 * part / whole
	}
	perS := func(amount, seconds float64) float64 {
		if seconds == 0 {
			return 0
		}
		return amount / seconds
	}

	// Set-up, the same numbers on every workload.
	set("deploy.spec_s", fix.buildMedian(func(b buildTimes) float64 { return b.specS }))
	set("deploy.materialize_s", fix.buildMedian(func(b buildTimes) float64 { return b.materializeS }))
	set("deploy.materialize_cpu_s", fix.buildMedian(func(b buildTimes) float64 { return b.materializeCPUS }))
	set("deploy.snapshot_s", fix.buildMedian(func(b buildTimes) float64 { return b.snapshotS }))
	set("bench.warmup_s", fix.warmupS)
	set("uacert.keygen_2048_ms", l.wall("uacert.keygen_2048")*1e3)

	// Delta planning and its outcome.
	set("deploy.endpoint_states_s", l.wall("deploy.endpoint_states"))
	set("wavediff.plan_s", l.wall("wavediff.plan"))
	hits, misses := float64(snap.CounterTotal("wave_delta_hits")), float64(snap.CounterTotal("wave_delta_misses"))
	set("opcuastudy.delta_hits", hits)
	set("opcuastudy.delta_misses", misses)
	set("opcuastudy.delta_hit_pct", pct(hits, hits+misses))

	// Port sweep, then the grab stage as wave scan minus sweep.
	set("scanner.sweep_s", l.wall("scanner.sweep"))
	set("scanner.sweep_cpu_s", l.cpu("scanner.sweep"))
	set("scanner.sweep_probes", float64(snap.CounterTotal("scan_probes")))
	set("scanner.sweep_mprobes_per_s", perS(counts.probes/1e6, l.wall("scanner.sweep")))
	set("scanner.wave_scan_s", l.wall("scanner.wave_scan"))
	set("scanner.grab_s", l.wall("scanner.wave_scan")-l.wall("scanner.sweep"))
	set("scanner.grab_cpu_s", l.cpu("scanner.wave_scan")-l.cpu("scanner.sweep"))
	set("scanner.grabs", float64(snap.CounterTotal("grab_done")))
	set("scanner.grab_followups", float64(snap.CounterTotal("grab_followups")))
	set("scanner.grab_failures", float64(snap.CounterTotal("grab_failures")))
	set("scanner.grab_retries", float64(snap.CounterTotal("grab_retries")))
	set("scanner.queue_wait_mean_ms", float64(snap.HistogramTotal("grab_queue_wait_ns").MeanNs())/1e6)
	set("scanner.shard_merge_s", l.wall("scanner.shard_merge"))

	hs := snap.HistogramTotal("handshake_ns")
	set("uasc.handshakes", float64(snap.CounterTotal("handshake_attempts")))
	set("uasc.handshake_failed", float64(snap.CounterTotal("handshake_failed")))
	set("uasc.handshake_mean_ms", float64(hs.MeanNs())/1e6)
	set("uasc.handshake_p50_ms", histogramP50Ms(hs))

	var rsaHits, rsaMisses float64
	for _, op := range []string{"sign", "verify", "decrypt"} {
		rsaHits += float64(snap.CounterTotal("crypto_" + op + "_hits"))
		rsaMisses += float64(snap.CounterTotal("crypto_" + op + "_misses"))
	}
	set("uarsa.hits", rsaHits)
	set("uarsa.misses", rsaMisses)
	set("uarsa.hit_pct", pct(rsaHits, rsaHits+rsaMisses))

	set("uamsg.getendpoints_encode_us", counts.encodeUs)
	set("uamsg.getendpoints_decode_us", counts.decodeUs)
	set("uamsg.getendpoints_allocs", counts.codecAllocs)
	set("opcuastudy.scanner_identity_s", l.wall("opcuastudy.scanner_identity"))

	mb := counts.datasetBytes / 1e6
	set("dataset.convert_s", l.wall("dataset.convert"))
	set("dataset.encode_s", l.wall("dataset.encode"))
	set("dataset.encode_mb_per_s", perS(mb, l.wall("dataset.encode")))
	set("dataset.bytes_mb", mb)
	set("dataset.records", float64(last.records))
	set("dataset.decode_s", l.wall("dataset.decode"))
	set("dataset.decode_mb_per_s", perS(counts.streamBytes/1e6, l.wall("dataset.decode")))
	set("pipeline.merge_s", l.wall("pipeline.merge"))
	set("pipeline.analyzer_fold_s", l.wall("pipeline.analyzer_fold"))
	set("core.fold_s", l.wall("core.fold"))
	set("core.fold_cpu_s", l.cpu("core.fold"))
	set("report.render_s", l.wall("report.render"))

	set("fabric.transport_s", l.wall("fabric.transport"))
	set("fabric.transport_mb_per_s", perS(counts.streamBytes/1e6, l.wall("fabric.transport")))
	set("fabric.leases_granted", float64(snap.CounterTotal("fabric_leases_granted")))
	set("fabric.leases_requeued", float64(snap.CounterTotal("fabric_leases_requeued")))
	set("fabric.records_received", float64(snap.CounterTotal("fabric_records_received")))

	set("opcuastudy.alloc_gb", float64(mem.after.TotalAlloc-mem.before.TotalAlloc)/1e9)
	set("opcuastudy.mallocs_m", float64(mem.after.Mallocs-mem.before.Mallocs)/1e6)
	set("opcuastudy.heap_peak_mb", float64(mem.peakHeap)/1e6)

	fastest := slices.Min(untracedWall)
	set("bench.trace_overhead_pct", pct(slices.Min(tracedWall)-fastest, fastest))
	repCPU := median(tracedCPU)
	attributed := attributedCPU(w, l)
	set("opcuastudy.unattributed_pct", pct(max(repCPU-attributed, attributed-repCPU), repCPU))
	return nil
}

// attributedCPU sums the stage CPU a campaign of this workload pays:
// each stage times how often the executor runs it. The fabric executor
// pays scanner identity, fingerprint planning and the per-wave
// snapshots once per shard lease, and replaces the in-line fold by
// transport, merge (which includes decode) and the streaming analyzer.
func attributedCPU(w *workload, l *ledger) float64 {
	perLease := l.cpu("opcuastudy.scanner_identity") + l.cpu("deploy.endpoint_states") +
		l.cpu("wavediff.plan") + l.cpu("deploy.resnapshot")
	scan := l.cpu("scanner.wave_scan") + l.cpu("scanner.shard_merge") + l.cpu("dataset.convert")
	if w.Fabric {
		return fabricShards*perLease + scan + l.cpu("fabric.transport") +
			l.cpu("pipeline.merge") + l.cpu("pipeline.analyzer_fold") + l.cpu("dataset.encode")
	}
	return perLease + scan + l.cpu("core.fold") + l.cpu("dataset.encode")
}

// histogramP50Ms is the upper bound of the bucket holding the median
// observation (the registry's histograms are a 1-3-10 ladder).
func histogramP50Ms(h *telemetry.HistogramSnapshot) float64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	var seen uint64
	for i, n := range h.Buckets {
		seen += n
		if 2*seen >= h.Count {
			return float64(h.BoundsNs[min(i, len(h.BoundsNs)-1)]) / 1e6
		}
	}
	return 0
}

// replayCounts are the amounts the stage replay measured besides time.
type replayCounts struct {
	probes                          float64
	datasetBytes, streamBytes       float64
	encodeUs, decodeUs, codecAllocs float64
}

// replay drives the layers one at a time with the workload's
// configuration: identity, delta planning, then per wave snapshot,
// sweep, wave scan and record conversion; then fold, report and encode
// over the reference records (what every executor must produce); and
// for the fabric workload decode, merge, streaming fold and transport
// over the traced rep's committed shard streams.
func replay(ctx context.Context, o options, w *workload, fix *fixture, l *ledger, streams [][]byte) (replayCounts, error) {
	var counts replayCounts
	cfg, world, waves := w.Cfg, fix.world, w.Cfg.Waves

	if err := l.time("uacert.keygen_2048", -1, func() error {
		_, err := uacert.DeterministicKey(2048, []byte("bench-keygen"))
		return err
	}); err != nil {
		return counts, err
	}

	// The scanner a campaign builds (CampaignConfig.newScannerBase): a
	// seeded identity and a cold memo engine installed on both sides.
	sc := scanner.Scanner{
		Timeout:        30 * time.Second,
		Walk:           uaclient.WalkOptions{MaxDuration: 60 * time.Minute, MaxBytes: 50 << 20, MaxNodes: 10000},
		ApplicationURI: "urn:repro:opcua:scanner",
		Crypto:         &uarsa.Suite{Engine: uarsa.NewEngine(0), Seed: cfg.Seed, Deterministic: true},
	}
	if err := l.time("opcuastudy.scanner_identity", -1, func() error {
		bits := 2048
		if cfg.TestKeySizes {
			bits = 512
		}
		key, cert, err := opcuastudy.NewScannerIdentitySeeded(bits, cfg.Seed)
		if err != nil {
			return err
		}
		sc.Key, sc.CertDER = key, cert.Raw
		return nil
	}); err != nil {
		return counts, err
	}
	world.SetCrypto(sc.Crypto.Engine, true)

	// Delta planning: fingerprint every wave from spec state, diff
	// consecutive waves. The replayed delta waves grab exactly the
	// fingerprint misses; the campaign's tracker additionally re-grabs
	// the few hosts it has no record on file for.
	diffs := make([]*wavediff.Delta, len(waves))
	if cfg.Delta {
		dctx := wavediff.Context{Seed: cfg.Seed, TestKeySizes: cfg.TestKeySizes,
			NoiseProb: cfg.NoiseProb, MaxHosts: cfg.MaxHosts, ChaosSeed: cfg.Seed}
		states := make([][]wavediff.EndpointState, len(waves))
		for i, wave := range waves {
			if err := l.time("deploy.endpoint_states", wave, func() (err error) {
				states[i], err = world.WaveEndpointStates(wave)
				return err
			}); err != nil {
				return counts, err
			}
		}
		plans := make([]*wavediff.Plan, len(waves))
		for i, wave := range waves {
			_ = l.time("wavediff.plan", wave, func() error {
				plans[i] = wavediff.NewPlan(dctx, wave, wave >= deploy.FollowReferencesFromWave, states[i])
				if i > 0 {
					diffs[i] = plans[i].DiffFrom(plans[i-1])
					diffs[i].Misses() // the diff is lazy; walk it once
				}
				return nil
			})
		}
	}

	world.Net.SetLatency(w.RTT)
	defer world.Net.SetLatency(0)
	var lastView simnet.View
	for i, wave := range waves {
		date := deploy.WaveDates[wave]
		var view *worldview.Snapshot
		if err := l.time("deploy.resnapshot", wave, func() (err error) {
			view, err = world.SnapshotWave(wave)
			return err
		}); err != nil {
			return counts, err
		}
		lastView = view
		counts.probes += float64(view.Universe().Size())

		if err := l.time("scanner.sweep", wave, func() error {
			_, err := scanner.PortScan(ctx, view, scanner.PortScanConfig{})
			return err
		}); err != nil {
			return counts, err
		}

		wsc := sc
		wsc.Dialer = view
		wcfg := scanner.WaveConfig{
			Date:             date,
			FollowReferences: wave >= deploy.FollowReferencesFromWave,
			GrabWorkers:      cfg.GrabWorkers,
		}
		if w.Fabric {
			// Replayed unsharded: the shards partition sweep and grabs,
			// so the CPU is the same; the wall clock is one process's.
			wcfg.GrabWorkers = grabsInFlight
		}
		if diffs[i] != nil {
			wcfg.Delta = &scanner.WaveDelta{Skip: diffs[i].Skip}
		}
		var scanned *scanner.Wave
		if cfg.Shards > 1 {
			plan := scanner.PlanWaveShards(view, cfg.Shards)
			shardWaves := make([]*scanner.Wave, plan.Shards)
			shardErrs := make([]error, plan.Shards)
			if err := l.time("scanner.wave_scan", wave, func() error {
				var wg sync.WaitGroup
				for s := 0; s < plan.Shards; s++ {
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						shardWaves[s], shardErrs[s] = scanner.RunWaveShard(ctx, view, &wsc, wcfg, plan, s)
					}(s)
				}
				wg.Wait()
				return errors.Join(shardErrs...)
			}); err != nil {
				return counts, err
			}
			_ = l.time("scanner.shard_merge", wave, func() error {
				scanned = scanner.MergeWaveShards(shardWaves...)
				return nil
			})
		} else if err := l.time("scanner.wave_scan", wave, func() (err error) {
			scanned, err = scanner.RunWave(ctx, view, &wsc, wcfg)
			return err
		}); err != nil {
			return counts, err
		}

		_ = l.time("dataset.convert", wave, func() error {
			for _, res := range scanned.DatasetResults() {
				asn := 0
				if ap, err := netip.ParseAddrPort(res.Address); err == nil {
					asn = view.ASOf(ap.Addr())
				}
				dataset.FromResult(res, wave, date, asn)
			}
			return nil
		})
	}
	world.Net.SetLatency(0)

	// Fold, report and encode over the reference records.
	var analyses []*core.WaveAnalysis
	var long *core.Longitudinal
	_ = l.time("core.fold", -1, func() error {
		longAcc := core.NewLongitudinalAccumulator(false)
		for _, wave := range waves {
			acc := core.NewWaveAccumulator(wave, deploy.WaveDates[wave])
			for _, rec := range fix.refRecords[wave] {
				acc.Add(rec)
			}
			a := acc.Finalize(0)
			analyses = append(analyses, a)
			longAcc.AddWave(a)
		}
		long = longAcc.Finalize()
		long.Waves = analyses
		return nil
	})
	_ = l.time("report.render", -1, func() error {
		for _, tbl := range report.All(analyses, long) {
			tbl.Render()
		}
		return nil
	})
	path := filepath.Join(o.outDir, w.Name+".replay.jsonl")
	if err := l.time("dataset.encode", -1, func() error {
		out, err := os.Create(path)
		if err != nil {
			return err
		}
		defer out.Close()
		sink := pipeline.NewEncoderSink(out, false)
		for _, wave := range waves {
			for _, rec := range fix.refRecords[wave] {
				if err := sink.Put(rec); err != nil {
					return err
				}
			}
		}
		if err := sink.Close(); err != nil {
			return err
		}
		return out.Close()
	}); err != nil {
		return counts, err
	}
	if st, err := os.Stat(path); err == nil {
		counts.datasetBytes = float64(st.Size())
	}

	if err := replayCodec(ctx, lastView, fix.refRecords[waves[len(waves)-1]], &counts); err != nil {
		return counts, err
	}
	if w.Fabric {
		if err := replayFabric(ctx, cfg.Seed, l, streams, &counts); err != nil {
			return counts, err
		}
	}
	return counts, nil
}

// replayFabric times the coordinator's serial tail and the transport on
// the traced rep's committed shard streams: decode alone, merge (decode
// plus k-way merge) into a slice, the streaming analyzer over the
// merged records, and the streams pushed once more through a
// coordinator and two workers whose runner only Puts.
func replayFabric(ctx context.Context, seed int64, l *ledger, streams [][]byte, counts *replayCounts) error {
	shardRecs := make([][]*dataset.HostRecord, len(streams))
	if err := l.time("dataset.decode", -1, func() error {
		for i, s := range streams {
			counts.streamBytes += float64(len(s))
			dec := dataset.NewDecoder(bytes.NewReader(s))
			for {
				rec, err := dec.Decode()
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
				shardRecs[i] = append(shardRecs[i], rec)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	var merged pipeline.SliceSink
	if err := l.time("pipeline.merge", -1, func() error {
		decoders := make([]*dataset.Decoder, len(streams))
		for i, s := range streams {
			decoders[i] = dataset.NewDecoder(bytes.NewReader(s))
		}
		return pipeline.MergeShardStreams(&merged, decoders...)
	}); err != nil {
		return err
	}
	if err := l.time("pipeline.analyzer_fold", -1, func() error {
		a := pipeline.NewAnalyzer(pipeline.AnalyzerConfig{Retain: true})
		for _, rec := range merged.Records {
			if err := a.Put(rec); err != nil {
				return err
			}
		}
		return a.Close()
	}); err != nil {
		return err
	}
	return l.time("fabric.transport", -1, func() error {
		runner := func(_ context.Context, _ []byte, shard int, sink pipeline.RecordSink) error {
			for _, rec := range shardRecs[shard] {
				if err := sink.Put(rec); err != nil {
					return err
				}
			}
			return nil
		}
		_, err := runCoordinator(ctx, nil, seed, nil, runner)
		return err
	})
}

// replayCodec times the message codec on one representative
// GetEndpoints response: the first server of the final wave, asked over
// an insecure channel like the scanner's discovery step.
func replayCodec(ctx context.Context, view simnet.View, recs []*dataset.HostRecord, counts *replayCounts) error {
	i := slices.IndexFunc(recs, func(r *dataset.HostRecord) bool {
		return r.ReachedOPCUA && r.ApplicationType == "Server" && len(r.Endpoints) > 0
	})
	if i < 0 {
		return errors.New("uamsg: no server with endpoints in the final wave")
	}
	c, err := uaclient.Dial(ctx, "opc.tcp://"+recs[i].Address, uaclient.Options{Dialer: view, Timeout: 30 * time.Second})
	if err != nil {
		return fmt.Errorf("uamsg: %w", err)
	}
	defer c.Close()
	if err := c.OpenInsecureChannel(); err != nil {
		return fmt.Errorf("uamsg: %w", err)
	}
	eps, err := c.GetEndpoints()
	if err != nil {
		return fmt.Errorf("uamsg: %w", err)
	}
	msg := &uamsg.GetEndpointsResponse{Endpoints: eps}
	wire := uamsg.Encode(msg)

	const n = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for k := 0; k < n; k++ {
		uamsg.Encode(msg)
	}
	counts.encodeUs = float64(time.Since(start).Nanoseconds()) / 1e3 / n
	start = time.Now()
	for k := 0; k < n; k++ {
		if _, err := uamsg.Decode(wire); err != nil {
			return fmt.Errorf("uamsg: %w", err)
		}
	}
	counts.decodeUs = float64(time.Since(start).Nanoseconds()) / 1e3 / n
	runtime.ReadMemStats(&after)
	counts.codecAllocs = float64(after.Mallocs-before.Mallocs) / n
	return nil
}
