// Package opcuastudy reproduces "Easing the Conscience with OPC UA: An
// Internet-Wide Study on Insecure Deployments" (IMC '20). It wires the
// simulated IPv4 Internet of OPC UA deployments, the zmap/zgrab2-style
// scanner, and the security-configuration assessment into a campaign
// API that regenerates every figure and table of the paper.
//
// Quick start:
//
//	c, err := opcuastudy.RunCampaign(ctx, opcuastudy.CampaignConfig{
//	    Seed:  2020,
//	    Waves: []int{7}, // just the paper's final measurement
//	})
//	for _, tbl := range c.Report() {
//	    fmt.Println(tbl.Render())
//	}
package opcuastudy

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/deploy"
	"repro/internal/fabric"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/scanner"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/uacert"
	"repro/internal/uaclient"
	"repro/internal/uarsa"
	"repro/internal/worldview"
)

// Re-exported types for the public API.
type (
	// WaveAnalysis is one measurement's full assessment.
	WaveAnalysis = core.WaveAnalysis
	// Longitudinal aggregates across waves (§5.5).
	Longitudinal = core.Longitudinal
	// HostRecord is one scanned host in the dataset.
	HostRecord = dataset.HostRecord
	// Table is a renderable report table.
	Table = report.Table
	// World is the materialized simulated Internet.
	World = deploy.World
)

// CampaignConfig tunes a measurement campaign.
type CampaignConfig struct {
	// Seed drives the deterministic world generation.
	Seed int64
	// Waves selects wave indexes (0..7); nil runs all eight.
	Waves []int
	// TestKeySizes shrinks all RSA keys to 512 bits. World construction
	// becomes fast, but certificate key-length analysis (Figure 4) is
	// then meaningless; use only in tests.
	TestKeySizes bool
	// NoiseProb overrides the open-port noise probability.
	NoiseProb float64
	// MaxHosts truncates the simulated population (0 = all); paper
	// fidelity needs the full world, tests can run small ones.
	MaxHosts int
	// GrabWorkers parallelizes the application-layer scan.
	GrabWorkers int
	// WaveWorkers bounds how many waves scan concurrently (0 or 1 =
	// one wave at a time). Each wave scans its own immutable worldview
	// snapshot, so any value is safe; the output is identical to the
	// sequential run regardless (records and analyses are merged in
	// wave order). Ignored when Sequential is set.
	WaveWorkers int
	// AnalyzeWorkers parallelizes per-host assessment inside
	// core.AnalyzeWave (0 = GOMAXPROCS, 1 = serial).
	AnalyzeWorkers int
	// QueueSize caps the scanner's grab-queue channel buffer
	// (0 = derived from GrabWorkers).
	QueueSize int
	// CryptoCache bounds the campaign's memoized asymmetric-crypto
	// engine (cached RSA sign/verify/decrypt results across all waves;
	// 0 = uarsa.DefaultMaxEntries). A negative value disables the
	// engine AND the deterministic handshakes that make it hit across
	// waves — every handshake then draws fresh randomness and recomputes
	// its RSA operations, the pre-cache behavior kept as the benchmark
	// baseline and equivalence gate. See DESIGN.md §4.
	CryptoCache int
	// Delta enables delta-wave execution (DESIGN.md §10): before each
	// wave after the first selected one, every endpoint's wave state is
	// fingerprinted from spec state alone (internal/wavediff) and
	// diffed against the prior selected wave; provably-unchanged hosts
	// get the prior wave's record cloned and re-stamped with zero
	// channels opened, while any fingerprint miss — and the entire
	// first wave — falls back to a real grab. The dataset is
	// byte-identical to a full scan and the analyses DeepEqual it, with
	// or without chaos, at any shard count (the byte-identity gates pin
	// this). Requires at least two selected waves; forces one wave in
	// flight at a time (the diff is a wave-to-wave dependency), so
	// WaveWorkers is ignored. Telemetry: wave_delta_hits /
	// wave_delta_misses / wave_delta_fallbacks per wave scope.
	Delta bool
	// Barrier selects the legacy depth-synchronized grab scheduling
	// instead of the streaming work queue (benchmark baseline).
	Barrier bool
	// Sequential disables the cross-wave overlap: record conversion and
	// analysis run inline after each wave instead of concurrently with
	// the next wave's scan (benchmark baseline).
	Sequential bool
	// Shards splits every wave's permuted probe space into this many
	// deterministic shards executed concurrently in-process (0 or 1 =
	// unsharded). Each shard runs its own port-scan slice and grab pool
	// of GrabWorkers workers — the single-process model of one worker
	// machine per shard — and the merged wave is record-for-record
	// identical to the unsharded run (scanner.MergeWaveShards). For the
	// multi-process version of the same plan, see RunCampaignShard and
	// cmd/measure's -shards/-shard/-merge flags.
	Shards int
	// RecordSink, if set, receives every record of the campaign in
	// deterministic dataset order (wave by wave, as each wave is
	// analyzed). The sink stays open: the caller owns it and closes it
	// after the campaign returns. A sink error aborts the campaign —
	// in-flight waves are cancelled (they surface in Campaign.Scans as
	// Partial, per the cancellation contract) and the sink's error is
	// returned.
	RecordSink pipeline.RecordSink
	// DiscardRecords skips retaining Campaign.RecordsByWave, the
	// streaming-memory configuration for long campaigns: records flow
	// to RecordSink (and through each wave's analysis) and are dropped.
	// WriteDataset then has nothing to write — attach an EncoderSink
	// instead. Note the retained Analyses still reference each wave's
	// records; a fully flat consumer is pipeline.Analyzer with
	// Retain=false.
	DiscardRecords bool
	// Anonymize applies the release anonymization to the stored records
	// (the analysis runs before anonymization, like the paper's).
	Anonymize bool
	// Quiet suppresses progress output; otherwise Progressf receives
	// status lines. The campaign runtime serializes the callback
	// (telemetry.SerializedProgressf) before any fan-out, so even with
	// concurrent waves and shards the callback never runs concurrently
	// with itself and status lines cannot tear.
	Progressf func(format string, args ...any)
	// Telemetry, when non-nil, receives the campaign's operational
	// metrics: port-scan probe counts, grab-queue depth/wait, handshake
	// latency and outcomes per (policy, mode), the uarsa engine's
	// hit/miss/evict counters, and per-wave record counts — all under a
	// wave="<n>" scope per wave. Telemetry is strictly observational:
	// the dataset of a campaign with Telemetry set is byte-identical to
	// one without (gated under -race by the equivalence tests). Nil
	// disables every instrument at the cost of one pointer check.
	// Lifecycle: the registry is caller-owned and campaign-scoped — one
	// registry per RunCampaignOnWorld call; multi-process shard workers
	// each own a process-scoped registry whose final snapshot the
	// coordinator merges (cmd/measure -shards -metrics).
	Telemetry *telemetry.Registry
	// Trace, when non-nil, records one span-style exchange per grab
	// (open→handshake→session→close) under deterministic IDs derived
	// from (Seed, wave, address), into the tracer's bounded ring.
	Trace *telemetry.Tracer
	// ChaosProfile, when non-empty, names an adversarial-host profile
	// (chaos.Profiles: tarpit, reset, flap, truncate, corrupt,
	// oversize, garbage, mixed) installed on the world for the
	// campaign. Chaos arms the scanner's resilience layer — per-stage
	// deadlines, bounded seeded retries, the grab watchdog and the
	// failure taxonomy — and classified failures enter the dataset as
	// failure records (DESIGN.md §9). Empty disables chaos and
	// reproduces the baseline dataset byte for byte.
	ChaosProfile string
	// ChaosSeed seeds the chaos behavior decisions and the retry
	// backoff jitter (0 = derive from Seed), so chaos campaigns replay
	// bit-identically across runs and shard layouts.
	ChaosSeed int64
	// resilienceOverride replaces the derived armor, letting tests use
	// sub-second stage deadlines so tarpit campaigns finish in CI time
	// (nil = defaultResilience when chaos is on).
	resilienceOverride *scanner.Resilience
}

// chaosSeed resolves the effective chaos seed.
func (cfg CampaignConfig) chaosSeed() int64 {
	if cfg.ChaosSeed != 0 {
		return cfg.ChaosSeed
	}
	return cfg.Seed
}

// Campaign is a completed (or running) measurement campaign.
type Campaign struct {
	Config CampaignConfig
	World  *deploy.World

	// RecordsByWave holds the dataset (analysis-grade; anonymized copies
	// are produced on export if requested).
	RecordsByWave map[int][]*dataset.HostRecord
	Analyses      []*core.WaveAnalysis
	Long          *core.Longitudinal

	// Scans holds each executed wave's raw scan outcome. After a
	// cancelled campaign it is the forensic record: waves that finished
	// before cancellation appear complete, waves in flight when the
	// context was cancelled appear with Wave.Partial set, and waves
	// never started are absent.
	Scans map[int]*scanner.Wave

	// CryptoStats is the final hit/miss/eviction snapshot of the
	// campaign's RSA memoization engine (nil when CryptoCache < 0
	// disabled it).
	CryptoStats *uarsa.Stats
}

func (cfg CampaignConfig) progressf(format string, args ...any) {
	if cfg.Progressf != nil {
		cfg.Progressf(format, args...)
	}
}

// selectedWaves expands the wave selection (nil = all eight).
func (cfg CampaignConfig) selectedWaves() []int {
	if len(cfg.Waves) > 0 {
		return cfg.Waves
	}
	waves := make([]int, len(deploy.WaveDates))
	for i := range waves {
		waves[i] = i
	}
	return waves
}

// newScannerBase builds the campaign's scanner template and installs
// the campaign-scoped crypto suite on the world — the setup shared by
// the single-process campaign and the multi-process shard workers.
//
// Campaign-scoped crypto reuse: one memoization engine for every wave
// and every worker, installed on both sides of the simulated wire (the
// scanner's clients here, the world's servers below), with
// deterministic handshakes so unchanged hosts replay bit-identical
// exchanges across waves and the engine actually hits (DESIGN.md §4).
// The install is deliberately not undone at campaign end: concurrent
// campaigns may share a world (last install wins), and uninstalling
// here would yank another run's engine mid-flight. The engine stays
// reachable from the world's servers until the next campaign replaces
// it — a few MB at most; callers who keep a world alive without
// further campaigns can release it with SetCrypto(nil, false).
func (cfg CampaignConfig) newScannerBase(world *deploy.World) (scanner.Scanner, *uarsa.Suite, error) {
	scanBits := 2048
	if cfg.TestKeySizes {
		scanBits = 512
	}
	// The identity is seeded: shard workers in other processes derive
	// the same certificate, and reruns with one seed replay the same
	// grab transcripts byte for byte.
	key, cert, err := NewScannerIdentitySeeded(scanBits, cfg.Seed)
	if err != nil {
		return scanner.Scanner{}, nil, err
	}

	var suite *uarsa.Suite
	if cfg.CryptoCache >= 0 {
		suite = &uarsa.Suite{
			Engine:        uarsa.NewEngine(cfg.CryptoCache),
			Seed:          cfg.Seed,
			Deterministic: true,
		}
	}
	world.SetCrypto(suite.EngineOrNil(), suite != nil)
	// Re-export the engine's counters through the campaign registry so
	// telemetry snapshots carry crypto_* alongside everything else.
	suite.EngineOrNil().PublishTo(cfg.Telemetry)

	// Chaos ownership mirrors SetCrypto: every campaign installs its
	// model — the zero model when chaos is off — so two campaigns
	// sharing a world never inherit each other's adversarial layer.
	var resilience scanner.Resilience
	chaosModel := chaos.Model{}
	if cfg.ChaosProfile != "" {
		m, err := chaos.ModelForProfile(cfg.ChaosProfile, cfg.chaosSeed())
		if err != nil {
			return scanner.Scanner{}, nil, err
		}
		chaosModel = m
		resilience = defaultResilience(cfg.chaosSeed())
		if cfg.resilienceOverride != nil {
			resilience = *cfg.resilienceOverride
		}
	}
	world.SetChaos(chaosModel)

	return scanner.Scanner{
		Key:     key,
		CertDER: cert.Raw,
		Crypto:  suite,
		Timeout: 30 * time.Second,
		Walk: uaclient.WalkOptions{
			// The paper's politeness limits with the inter-request delay
			// zeroed (no real operators to protect in the simulation).
			Delay:       0,
			MaxDuration: 60 * time.Minute,
			MaxBytes:    50 << 20,
			MaxNodes:    10000,
		},
		ApplicationURI: "urn:repro:opcua:scanner",
		Resilience:     resilience,
	}, suite, nil
}

// defaultResilience is the armor a chaos campaign scans with: stage
// deadlines small enough that a tarpit costs seconds rather than the
// whole 30s connection budget, two seeded retries (enough to recover
// every flap host whose refusal count is ≤ 2; param-3 flaps exercise
// the retries-exhausted class), and a watchdog far above any healthy
// grab — it bounds adversarial stalls only, because a watchdog that
// fired mid-walk on a healthy host would truncate record content.
func defaultResilience(seed int64) scanner.Resilience {
	return scanner.Resilience{
		Classify:       true,
		Retries:        2,
		Seed:           seed,
		BackoffBase:    50 * time.Millisecond,
		BackoffCap:     400 * time.Millisecond,
		ConnectTimeout: 2 * time.Second,
		HelloTimeout:   2 * time.Second,
		OpenTimeout:    5 * time.Second,
		RequestTimeout: 10 * time.Second,
		GrabTimeout:    10 * time.Minute,
	}
}

// NewScannerIdentity generates the scanner's self-signed certificate,
// with contact information in the subject as the paper recommends.
func NewScannerIdentity(bits int) (*rsa.PrivateKey, *uacert.Certificate, error) {
	key, err := rsa.GenerateKey(rand.Reader, bits)
	if err != nil {
		return nil, nil, fmt.Errorf("opcuastudy: scanner key: %w", err)
	}
	return scannerCert(key)
}

// NewScannerIdentitySeeded derives the scanner identity as a pure
// function of (bits, seed): every rerun with one seed — and every
// worker process of a sharded campaign — presents the identical
// certificate, so grab transcripts and byte counts agree across
// processes. Campaigns use this; NewScannerIdentity remains for callers
// that want a fresh random identity.
func NewScannerIdentitySeeded(bits int, seed int64) (*rsa.PrivateKey, *uacert.Certificate, error) {
	var sb [8]byte
	binary.LittleEndian.PutUint64(sb[:], uint64(seed))
	key, err := uacert.DeterministicKey(bits, []byte("opcuastudy-scanner"), sb[:])
	if err != nil {
		return nil, nil, fmt.Errorf("opcuastudy: scanner key: %w", err)
	}
	return scannerCert(key)
}

func scannerCert(key *rsa.PrivateKey) (*rsa.PrivateKey, *uacert.Certificate, error) {
	cert, err := uacert.Generate(key, uacert.Options{
		CommonName:     "research scanner - opt out at https://example.org/opcua-study",
		Organization:   "Internet Measurement Research",
		ApplicationURI: "urn:repro:opcua:scanner",
		SignatureHash:  uacert.HashSHA256,
		// The serial is derived from the public key, so a seeded
		// identity yields one certificate byte for byte.
		SerialNumber: uacert.DeterministicSerial([]byte("opcuastudy-scanner-serial"), key.N.Bytes()),
	})
	if err != nil {
		return nil, nil, fmt.Errorf("opcuastudy: scanner cert: %w", err)
	}
	return key, cert, nil
}

// BuildWorld generates and materializes the simulated Internet.
func BuildWorld(cfg CampaignConfig) (*deploy.World, error) {
	spec, err := deploy.BuildSpec(cfg.Seed)
	if err != nil {
		return nil, err
	}
	world, err := deploy.Materialize(spec, deploy.Options{
		TestKeySizes: cfg.TestKeySizes,
		NoiseProb:    cfg.NoiseProb,
		MaxHosts:     cfg.MaxHosts,
	})
	if err != nil {
		return nil, err
	}
	// The stage split: one progress line, and world_build_*{stage} counters.
	line := ""
	for _, st := range world.Build {
		line += fmt.Sprintf(", %s %d in %.2fs", st.Stage, st.Count, st.Wall.Seconds())
		reg := cfg.Telemetry.Scope("stage", st.Stage)
		reg.Counter("world_build_count").Add(uint64(st.Count))
		reg.Counter("world_build_wall_ns").Add(uint64(st.Wall))
		reg.Counter("world_build_busy_ns").Add(uint64(st.Busy))
	}
	cfg.progressf("world built: %s", line[2:])
	return world, nil
}

// RunCampaign builds the world and executes the selected waves.
func RunCampaign(ctx context.Context, cfg CampaignConfig) (*Campaign, error) {
	cfg.progressf("building world (seed %d)...", cfg.Seed)
	world, err := BuildWorld(cfg)
	if err != nil {
		return nil, err
	}
	return RunCampaignOnWorld(ctx, cfg, world)
}

// RunCampaignOnWorld executes waves against an existing world, allowing
// reuse of the expensive materialization.
//
// Execution model: the campaign never mutates the shared network.
// Instead it materializes an immutable worldview snapshot per selected
// wave up front and scans the snapshots on a pool of
// cfg.WaveWorkers goroutines — waves pull their own frozen view of the
// Internet rather than serializing on one mutable world, so any number
// of waves can be in flight at once. Record conversion and analysis
// run on the caller's goroutine in wave order as scans complete, which
// keeps the dataset and every analysis byte-identical to a sequential
// run (and, with WaveWorkers=1, preserves the scan/analysis overlap of
// the streaming pipeline).
//
// Cancellation contract: if ctx is cancelled mid-campaign, the partial
// Campaign is returned together with the first wave's error. Waves
// finished before cancellation are fully analyzed; waves in flight
// appear in Campaign.Scans with Wave.Partial set; waves never started
// are absent from Scans. Campaign.Long is only computed on full
// success.
func RunCampaignOnWorld(ctx context.Context, cfg CampaignConfig, world *deploy.World) (*Campaign, error) {
	// Serialize the progress callback once, before any fan-out: waves,
	// shards, and workers then share one mutex-guarded writer and status
	// lines never interleave mid-line.
	cfg.Progressf = telemetry.SerializedProgressf(cfg.Progressf)
	base, suite, err := cfg.newScannerBase(world)
	if err != nil {
		return nil, err
	}
	waves := cfg.selectedWaves()
	// abort lets a record-sink failure cancel the rest of the campaign
	// without waiting for every remaining wave to scan into a void.
	ctx, abort := context.WithCancel(ctx)
	defer abort()

	c := &Campaign{
		Config:        cfg,
		World:         world,
		RecordsByWave: make(map[int][]*dataset.HostRecord),
		Scans:         make(map[int]*scanner.Wave),
	}
	// Snapshot the engine counters into Campaign.CryptoStats on every
	// exit path; consumers (cmd/measure, the benchmarks) surface them —
	// no progress line here, so callers don't get the summary twice.
	defer func() {
		if suite == nil {
			return
		}
		st := suite.Engine.Stats()
		c.CryptoStats = &st
	}()
	workers := cfg.GrabWorkers
	if workers <= 0 {
		workers = 32
	}

	// Materialize the immutable per-wave views up front. Server
	// construction is cached on the world, so this is cheap after the
	// first wave touching each host state.
	views := make([]*worldview.Snapshot, len(waves))
	for i, w := range waves {
		if views[i], err = world.SnapshotWave(w); err != nil {
			return nil, err
		}
	}
	cfg.progressf("materialized %d immutable wave views", len(views))

	// Delta mode: fingerprint every selected wave up front (spec state
	// only, no dialing) and thread one deltaWave per position from the
	// scan side to the analysis side. dws[i] is written by the single
	// scan worker before close(done[i]) and read by the merge loop
	// after it, so the hand-off is ordered without a lock.
	var tracker *deltaTracker
	var dws []*deltaWave
	if cfg.Delta {
		if tracker, err = newDeltaTracker(cfg, world, waves); err != nil {
			return nil, err
		}
		dws = make([]*deltaWave, len(waves))
	}

	// The analysis side is a streaming fold: each wave's records stream
	// through a WaveAccumulator (and into cfg.RecordSink, in dataset
	// order) as they are converted, and every finalized WaveAnalysis is
	// folded into the longitudinal accumulator immediately — the
	// campaign never needs more than the in-flight waves in memory
	// (with DiscardRecords, not even the past waves' records).
	longAcc := core.NewLongitudinalAccumulator(false)
	var sinkErr error
	analyze := func(i int, wave *scanner.Wave) {
		w, date := waves[i], deploy.WaveDates[waves[i]]
		acc := core.NewWaveAccumulator(w, date)
		// campaign_records{wave=w} is the accounting counter: its total
		// across waves must equal the dataset's record count exactly —
		// the invariant the metrics-accounting tests pin.
		recordsC := cfg.Telemetry.Scope("wave", strconv.Itoa(w)).Counter("campaign_records")
		results := wave.DatasetResults()
		all := make([]*dataset.HostRecord, 0, len(results))
		for _, res := range results {
			all = append(all, dataset.FromResult(res, w, date, asnOf(views[i], res.Address)))
		}
		if cfg.Delta {
			// Skipped hosts' re-stamped clones fold in and the combined
			// set takes the standard deterministic order — exactly
			// where a full scan's grabs would have streamed them.
			dw := dws[i]
			all = mergeDeltaRecords(all, dw)
			if dw.delta() {
				cfg.Telemetry.Scope("wave", strconv.Itoa(w)).
					Counter("wave_delta_hits").Add(uint64(len(dw.clones)))
			}
		}
		var recs []*dataset.HostRecord
		for _, rec := range all {
			acc.Add(rec)
			recordsC.Inc()
			if !cfg.DiscardRecords {
				recs = append(recs, rec)
			}
			if cfg.RecordSink != nil && sinkErr == nil {
				if sinkErr = cfg.RecordSink.Put(rec); sinkErr != nil {
					abort()
				}
			}
		}
		if !cfg.DiscardRecords {
			c.RecordsByWave[w] = recs
		}
		analysis := acc.Finalize(cfg.AnalyzeWorkers)
		c.Analyses = append(c.Analyses, analysis)
		longAcc.AddWave(analysis)
		cfg.progressf("wave %d: %d open ports, %d OPC UA hosts (%d servers, %d discovery), %.0f%% deficient",
			w, wave.OpenPorts, acc.Len(), len(analysis.Servers), analysis.Discovery,
			100*analysis.DeficientFrac)
	}
	finish := func() (*Campaign, error) {
		if sinkErr != nil {
			return c, fmt.Errorf("opcuastudy: record sink: %w", sinkErr)
		}
		long := longAcc.Finalize()
		long.Waves = c.Analyses
		c.Long = long
		return c, nil
	}
	scanOne := func(i int) (*scanner.Wave, error) {
		w, date := waves[i], deploy.WaveDates[waves[i]]
		cfg.progressf("wave %d (%s): scanning...", w, date.Format("2006-01-02"))
		waveScope := cfg.Telemetry.Scope("wave", strconv.Itoa(w))
		sc := base
		sc.Dialer = views[i]
		sc.Metrics = waveScope
		sc.Trace = cfg.Trace
		sc.TraceSeed = cfg.Seed
		sc.TraceWave = w
		wcfg := scanner.WaveConfig{
			Date:             date,
			FollowReferences: w >= deploy.FollowReferencesFromWave,
			GrabWorkers:      workers,
			QueueSize:        cfg.QueueSize,
			Barrier:          cfg.Barrier,
			Metrics:          waveScope,
		}
		var dw *deltaWave
		if cfg.Delta {
			// Waves run one at a time in delta mode, so the tracker's
			// plan→scan→observe sequence is serial across waves; the
			// Skip closure is read concurrently by shard goroutines but
			// only ever reads.
			dw = tracker.planWave(i)
			dws[i] = dw
			wcfg.Delta = dw.sd
		}
		// finishScan folds a successfully scanned wave back into the
		// delta tracker and counts the wave's delta outcome. Errored or
		// cancelled waves are never observed — a partial wave must not
		// become the campaign's memory.
		finishScan := func(wave *scanner.Wave, err error) (*scanner.Wave, error) {
			if err != nil || wave == nil || !cfg.Delta {
				return wave, err
			}
			tracker.observeWave(i, dw, wave, views[i])
			if dw.delta() {
				waveScope.Counter("wave_delta_misses").Add(uint64(len(wave.Results)))
			} else {
				waveScope.Counter("wave_delta_fallbacks").Inc()
			}
			return wave, nil
		}
		if cfg.Shards <= 1 {
			return finishScan(scanner.RunWave(ctx, views[i], &sc, wcfg))
		}
		// In-process sharding: every shard of the wave's plan runs
		// concurrently against the shared immutable view, then the
		// deterministic merge reassembles the unsharded wave. A
		// cancelled shard yields a partial wave that merges cleanly;
		// the first shard error is the wave's error.
		plan := scanner.PlanWaveShards(views[i], cfg.Shards)
		shardWaves := make([]*scanner.Wave, plan.Shards)
		shardErrs := make([]error, plan.Shards)
		var swg sync.WaitGroup
		for s := 0; s < plan.Shards; s++ {
			swg.Add(1)
			go func(s int) {
				defer swg.Done()
				shardWaves[s], shardErrs[s] = scanner.RunWaveShard(ctx, views[i], &sc, wcfg, plan, s)
			}(s)
		}
		swg.Wait()
		merged := scanner.MergeWaveShards(shardWaves...)
		for _, serr := range shardErrs {
			if serr != nil {
				return merged, serr
			}
		}
		return finishScan(merged, nil)
	}

	if cfg.Sequential {
		// Benchmark baseline: scan and analyze strictly in turn on one
		// goroutine, no overlap of any kind.
		for i, w := range waves {
			wave, err := scanOne(i)
			if wave != nil {
				c.Scans[w] = wave
			}
			if err != nil {
				if sinkErr != nil {
					break // the cancellation was the sink abort
				}
				return c, fmt.Errorf("opcuastudy: wave %d: %w", w, err)
			}
			analyze(i, wave)
			if sinkErr != nil {
				break
			}
		}
		return finish()
	}

	waveWorkers := cfg.WaveWorkers
	if waveWorkers < 1 {
		waveWorkers = 1
	}
	if cfg.Delta {
		// The fingerprint diff (and the carried record/reference
		// knowledge behind it) is a wave-to-wave serial dependency:
		// wave i+1's plan reads the state wave i's scan observed. One
		// wave in flight at a time; the scan/analysis overlap remains.
		waveWorkers = 1
	}
	if waveWorkers > len(waves) {
		waveWorkers = len(waves)
	}

	// Scan workers pull wave indexes in order; the caller's goroutine
	// merges outcomes in that same order, analyzing each completed wave
	// while later waves are still scanning. After cancellation the
	// remaining RunWave calls observe the dead context inside their
	// port scan and return immediately with no wave, so the merge loop
	// always terminates.
	type outcome struct {
		wave *scanner.Wave
		err  error
	}
	outcomes := make([]outcome, len(waves))
	done := make([]chan struct{}, len(waves))
	for i := range done {
		done[i] = make(chan struct{})
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < waveWorkers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				// A wave whose turn comes after cancellation never
				// starts; it must not surface as a partial scan.
				if err := ctx.Err(); err != nil {
					outcomes[i] = outcome{err: err}
					close(done[i])
					continue
				}
				wave, err := scanOne(i)
				outcomes[i] = outcome{wave: wave, err: err}
				close(done[i])
			}
		}()
	}
	go func() {
		defer close(jobs)
		for i := range waves {
			jobs <- i
		}
	}()

	var firstErr error
	for i, w := range waves {
		<-done[i]
		out := outcomes[i]
		if out.wave != nil {
			c.Scans[w] = out.wave
		}
		if out.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("opcuastudy: wave %d: %w", w, out.err)
			}
			continue
		}
		// Waves that completed before the cancellation landed are fully
		// analyzed even when an earlier wave in the merge order errored;
		// only Campaign.Long requires the whole campaign.
		analyze(i, out.wave)
	}
	wg.Wait()
	if sinkErr != nil {
		// The sink failure is the root cause; later waves' cancellation
		// errors are its consequence.
		return finish()
	}
	if firstErr != nil {
		return c, firstErr
	}
	return finish()
}

// RunCampaignShard is the worker half of a multi-process campaign: it
// executes shard `shard` of the deterministic per-wave plan
// (scanner.PlanWaveShards with `shards` shards) for every selected
// wave, in wave order, and streams the shard's records into sink —
// no analysis, no retention. The coordinator merges the N workers'
// wave-ordered streams (pipeline.MergeShardStreams) back into the
// deterministic dataset order and analyzes the merged stream; world
// materialization is deterministic per seed (deploy.Materialize), so
// workers in separate processes observe the identical Internet and the
// merged campaign is record-for-record the unsharded one.
//
// The sink stays open — the caller owns and closes it. On context
// cancellation the in-flight wave's records are not emitted (a partial
// wave must not masquerade as a complete shard stream); the error is
// returned after whole waves already streamed.
//
// Two semantics differ from the single-process Campaign by design:
// waves always stream in ascending wave order regardless of how
// cfg.Waves is arranged (the merge requires wave-ordered streams, and
// a longitudinal fold is only meaningful ascending), and a scanned
// wave that yields zero OPC UA records is simply absent from the
// stream — the merged analysis then skips it, exactly like
// AnalyzeRecords/AnalyzeDataset skip empty waves when reproducing
// figures from a released dataset.
func RunCampaignShard(ctx context.Context, cfg CampaignConfig, world *deploy.World, shards, shard int, sink pipeline.RecordSink) error {
	cfg.Progressf = telemetry.SerializedProgressf(cfg.Progressf)
	base, _, err := cfg.newScannerBase(world)
	if err != nil {
		return err
	}
	workers := cfg.GrabWorkers
	if workers <= 0 {
		workers = 32
	}
	waves := slices.Clone(cfg.selectedWaves())
	slices.Sort(waves)
	// Delta mode per worker: the tracker runs over this worker's own
	// shard stream. By induction over waves, a worker's delta stream is
	// record-for-record its full-scan shard stream (its observations
	// cover exactly the referrers and records it would re-grab), so the
	// coordinator's MergeShardStreams yields the identical merged
	// dataset at any shard count.
	var tracker *deltaTracker
	if cfg.Delta {
		var terr error
		if tracker, terr = newDeltaTracker(cfg, world, waves); terr != nil {
			return terr
		}
	}
	for wi, w := range waves {
		date := deploy.WaveDates[w]
		view, err := world.SnapshotWave(w)
		if err != nil {
			return err
		}
		plan := scanner.PlanWaveShards(view, shards)
		cfg.progressf("wave %d (%s): scanning shard %d/%d...",
			w, date.Format("2006-01-02"), shard, plan.Shards)
		// The worker's registry is process-scoped: wave labels here match
		// the coordinator's, the shard identity rides on Snapshot.Shard,
		// so per-shard finals merge key-aligned into the campaign total.
		waveScope := cfg.Telemetry.Scope("wave", strconv.Itoa(w))
		recordsC := waveScope.Counter("campaign_records")
		sc := base
		sc.Dialer = view
		sc.Metrics = waveScope
		sc.Trace = cfg.Trace
		sc.TraceSeed = cfg.Seed
		sc.TraceWave = w
		wcfg := scanner.WaveConfig{
			Date:             date,
			FollowReferences: w >= deploy.FollowReferencesFromWave,
			GrabWorkers:      workers,
			QueueSize:        cfg.QueueSize,
			Barrier:          cfg.Barrier,
			Metrics:          waveScope,
		}
		var dw *deltaWave
		if cfg.Delta {
			dw = tracker.planWave(wi)
			wcfg.Delta = dw.sd
		}
		wave, err := scanner.RunWaveShard(ctx, view, &sc, wcfg, plan, shard)
		if err != nil {
			return fmt.Errorf("opcuastudy: wave %d shard %d: %w", w, shard, err)
		}
		results := wave.DatasetResults()
		all := make([]*dataset.HostRecord, 0, len(results))
		for _, res := range results {
			all = append(all, dataset.FromResult(res, w, date, asnOf(view, res.Address)))
		}
		if cfg.Delta {
			tracker.observeWave(wi, dw, wave, view)
			all = mergeDeltaRecords(all, dw)
			if dw.delta() {
				waveScope.Counter("wave_delta_misses").Add(uint64(len(wave.Results)))
				waveScope.Counter("wave_delta_hits").Add(uint64(len(dw.clones)))
			} else {
				waveScope.Counter("wave_delta_fallbacks").Inc()
			}
		}
		for _, rec := range all {
			if err := sink.Put(rec); err != nil {
				return fmt.Errorf("opcuastudy: wave %d shard %d: sink: %w", w, shard, err)
			}
			recordsC.Inc()
		}
	}
	return nil
}

func asnOf(view simnet.View, address string) int {
	ap, err := netip.ParseAddrPort(address)
	if err != nil {
		return 0
	}
	return view.ASOf(ap.Addr())
}

// Report renders every figure and table of the paper's evaluation.
func (c *Campaign) Report() []*Table {
	return report.All(c.Analyses, c.Long)
}

// LastWave returns the analysis of the final executed wave.
func (c *Campaign) LastWave() *core.WaveAnalysis {
	if len(c.Analyses) == 0 {
		return nil
	}
	return c.Analyses[len(c.Analyses)-1]
}

// WriteDataset streams the retained records as JSONL in deterministic
// wave order, anonymized if configured, one record at a time through a
// pipeline.EncoderSink (no intermediate slice). A campaign run with
// DiscardRecords retains nothing to write — attach an EncoderSink to
// CampaignConfig.RecordSink instead.
//
//studyvet:sink-exempt — synchronous in-memory replay of already-retained records; there is no upstream producer to cancel
func (c *Campaign) WriteDataset(w io.Writer) error {
	sink := pipeline.NewEncoderSink(w, c.Config.Anonymize)
	for wi := 0; wi < len(deploy.WaveDates); wi++ {
		for _, rec := range c.RecordsByWave[wi] {
			if err := sink.Put(rec); err != nil {
				return err
			}
		}
	}
	return sink.Close()
}

// FabricSpec derives the networked campaign description a fabric
// coordinator hands to every joining worker: exactly the CampaignConfig
// fields that shape record bytes, plus the fleet's shard count and
// heartbeat cadence. Workers reconstruct their configuration with
// CampaignFromSpec, so a fleet cannot diverge on flags.
func (cfg CampaignConfig) FabricSpec(shards int, heartbeat time.Duration) fabric.CampaignSpec {
	return fabric.CampaignSpec{
		Seed:         cfg.Seed,
		Waves:        cfg.Waves,
		TestKeySizes: cfg.TestKeySizes,
		NoiseProb:    cfg.NoiseProb,
		MaxHosts:     cfg.MaxHosts,
		GrabWorkers:  cfg.GrabWorkers,
		QueueSize:    cfg.QueueSize,
		CryptoCache:  cfg.CryptoCache,
		ChaosProfile: cfg.ChaosProfile,
		ChaosSeed:    cfg.ChaosSeed,
		Delta:        cfg.Delta,
		Shards:       shards,
		HeartbeatMs:  heartbeat.Milliseconds(),
	}
}

// CampaignFromSpec is the worker-side inverse of FabricSpec. Process-
// local concerns (Telemetry, Progressf, sinks) stay zero for the
// caller to fill in.
func CampaignFromSpec(spec fabric.CampaignSpec) CampaignConfig {
	return CampaignConfig{
		Seed:         spec.Seed,
		Waves:        spec.Waves,
		TestKeySizes: spec.TestKeySizes,
		NoiseProb:    spec.NoiseProb,
		MaxHosts:     spec.MaxHosts,
		GrabWorkers:  spec.GrabWorkers,
		QueueSize:    spec.QueueSize,
		CryptoCache:  spec.CryptoCache,
		ChaosProfile: spec.ChaosProfile,
		ChaosSeed:    spec.ChaosSeed,
		Delta:        spec.Delta,
	}
}

// AnalyzeRecords rebuilds per-wave analyses from a loaded dataset
// (cmd/reportgen's path: reproduce the figures from released data). It
// folds each record into its wave's incremental accumulator — records
// may arrive in any order — then finalizes the waves in order; for a
// wave-ordered stream, pipeline.Analyzer does the same without holding
// more than one wave.
func AnalyzeRecords(recs []*dataset.HostRecord) ([]*core.WaveAnalysis, *core.Longitudinal) {
	fold := newRecordFold()
	for _, r := range recs {
		fold.add(r)
	}
	return fold.finish()
}

// AnalyzeDataset streams a JSONL dataset through the incremental
// accumulators record by record, never materializing the record slice.
// Records may arrive in any order (released datasets are wave-ordered,
// but nothing here depends on it).
func AnalyzeDataset(r io.Reader) ([]*core.WaveAnalysis, *core.Longitudinal, error) {
	fold := newRecordFold()
	dec := dataset.NewDecoder(r)
	for {
		rec, err := dec.Decode()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		fold.add(rec)
	}
	analyses, long := fold.finish()
	return analyses, long, nil
}

// recordFold is the order-tolerant accumulator map behind
// AnalyzeRecords and AnalyzeDataset.
type recordFold struct {
	accs    map[int]*core.WaveAccumulator
	maxWave int
}

func newRecordFold() *recordFold {
	return &recordFold{accs: map[int]*core.WaveAccumulator{}}
}

func (f *recordFold) add(r *dataset.HostRecord) {
	acc := f.accs[r.Wave]
	if acc == nil {
		acc = core.NewWaveAccumulator(r.Wave, r.Date)
		f.accs[r.Wave] = acc
	}
	acc.Add(r)
	if r.Wave > f.maxWave {
		f.maxWave = r.Wave
	}
}

func (f *recordFold) finish() ([]*core.WaveAnalysis, *core.Longitudinal) {
	long := core.NewLongitudinalAccumulator(true)
	var analyses []*core.WaveAnalysis
	for w := 0; w <= f.maxWave; w++ {
		if f.accs[w] == nil {
			continue
		}
		a := f.accs[w].Finalize(0)
		analyses = append(analyses, a)
		long.AddWave(a)
	}
	return analyses, long.Finalize()
}
