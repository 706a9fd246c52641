// Package opcuastudy reproduces "Easing the Conscience with OPC UA: An
// Internet-Wide Study on Insecure Deployments" (IMC '20). It wires the
// simulated IPv4 Internet of OPC UA deployments, the zmap/zgrab2-style
// scanner, and the security-configuration assessment into a campaign
// API that regenerates every figure and table of the paper.
//
// Quick start: ExampleRunCampaign runs the paper's final measurement
// wave and prints its headline counts; Campaign.Report renders every
// figure and table of the waves a campaign ran.
package opcuastudy

import (
	"context"
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
	"repro/internal/study"
	"repro/internal/telemetry"
	"repro/internal/uacert"
	"repro/internal/uaclient"
	"repro/internal/uarsa"
	"repro/internal/uaserver"
)

// Re-exported types for the public API.
type (
	// Table is a renderable report table.
	Table = report.Table
	// World is the materialized simulated Internet.
	World = deploy.World
)

// CampaignConfig tunes a measurement campaign. The fields Study projects
// decide what is measured; every other field only how it runs.
type CampaignConfig struct {
	// Seed drives the deterministic world generation.
	Seed int64
	// Waves selects wave indexes (0..7); nil runs all eight. The
	// selection runs in ascending wave order however it is arranged; an
	// out-of-range or repeated index is an error.
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
	// Delta enables delta-wave execution (DESIGN.md §10): before each
	// wave after the first selected one, every endpoint's wave state is
	// fingerprinted from spec state alone (internal/wavediff) and
	// diffed against the prior selected wave; provably-unchanged hosts
	// get the prior wave's record cloned and re-stamped with zero
	// channels opened, while any fingerprint miss — and the entire
	// first wave — falls back to a real grab. The dataset is
	// byte-identical to a full scan and the analyses DeepEqual it, with
	// or without chaos, at any shard count (the byte-identity gates pin
	// this). Requires at least two selected waves. Telemetry:
	// wave_delta_hits / wave_delta_misses / wave_delta_fallbacks per
	// wave scope.
	Delta bool
	// Shards splits every wave's permuted probe space into this many
	// deterministic shards executed concurrently in-process (0 or 1 =
	// unsharded). Each shard runs its own port-scan slice and grab pool
	// of GrabWorkers workers — the single-process model of one worker
	// machine per shard — and the merged wave is record-for-record
	// identical to the unsharded run (scanner.MergeWaveShards);
	// cmd/measure -shards N sets it. For the same plan across processes
	// and machines, see RunCampaignShard and the fabric (cmd/measure
	// -listen/-connect).
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
	// Progressf, if set, receives status lines (nil = silent). The
	// campaign runtime serializes the callback
	// (telemetry.SerializedProgressf) before any fan-out, so even with
	// the scan running ahead of the fold and concurrent shards the
	// callback never runs concurrently with itself and status lines
	// cannot tear.
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
	// registry per RunCampaignOnWorld call; fabric workers each own a
	// process-scoped registry (cmd/measure -connect -metrics).
	Telemetry *telemetry.Registry
	// Trace, when non-nil, records one span-style exchange per grab
	// (open→handshake→session→close) under deterministic IDs derived
	// from (Seed, wave, address), into the tracer's bounded ring.
	Trace *telemetry.Tracer
	// ChaosProfile, when non-empty, names an adversarial-host profile
	// (chaos.Profiles: tarpit, reset, flap, truncate, corrupt,
	// oversize, garbage, mixed) every snapshot of the campaign is built
	// with; the world is never changed. Chaos arms the scanner's
	// resilience layer — per-stage deadlines, bounded seeded retries,
	// the grab watchdog and the failure taxonomy — and classified
	// failures enter the dataset as failure records (DESIGN.md §9). Empty disables chaos and
	// reproduces the baseline dataset byte for byte.
	ChaosProfile string
	// ChaosSeed seeds the chaos behavior decisions and the retry
	// backoff jitter (0 = derive from Seed), so chaos campaigns replay
	// bit-identically across runs and shard layouts.
	ChaosSeed int64
	// reference runs the campaign unoptimised: no memo engine, fresh
	// randomness in every exchange (every RSA operation recomputed), and
	// every GetEndpoints/FindServers response encoded structurally — the
	// zero uaserver.ConnOptions on both ends of the wire. It is what the
	// differential oracle, TestExecInvariance, compares every execution
	// against (DESIGN.md §4).
	reference bool
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
	// campaign's RSA memoization engine.
	CryptoStats *uarsa.Stats
}

func (cfg CampaignConfig) progressf(format string, args ...any) {
	if cfg.Progressf != nil {
		cfg.Progressf(format, args...)
	}
}

// Study projects the configuration onto what it measures: the fields
// that can change a record byte (internal/study). It is the one place
// the two equal spellings resolve — nil Waves is all eight waves and any
// selection comes back ascending (a descending one would fold the
// longitudinal analysis backwards and break the wave-ordered streams
// MergeShardStreams requires), and ChaosSeed 0 is Seed under a chaos
// profile, while without one the chaos seed is unused and zeroed.
func (cfg CampaignConfig) Study() study.Study {
	waves := slices.Clone(cfg.Waves)
	if len(waves) == 0 {
		waves = make([]int, len(deploy.WaveDates))
		for i := range waves {
			waves[i] = i
		}
	}
	slices.Sort(waves)
	chaosSeed := cfg.ChaosSeed
	if cfg.ChaosProfile == "" {
		chaosSeed = 0
	} else if chaosSeed == 0 {
		chaosSeed = cfg.Seed
	}
	return study.Study{Seed: cfg.Seed, Waves: waves, TestKeySizes: cfg.TestKeySizes, NoiseProb: cfg.NoiseProb,
		MaxHosts: cfg.MaxHosts, ChaosProfile: cfg.ChaosProfile, ChaosSeed: chaosSeed}
}

// studyConfig is Study's one inverse: the configuration that measures s
// and sets nothing else.
func studyConfig(s study.Study) CampaignConfig {
	return CampaignConfig{Seed: s.Seed, Waves: s.Waves, TestKeySizes: s.TestKeySizes, NoiseProb: s.NoiseProb,
		MaxHosts: s.MaxHosts, ChaosProfile: s.ChaosProfile, ChaosSeed: s.ChaosSeed}
}

// newScannerBase builds the scanner template of study st with its
// campaign-scoped crypto suite.
//
// Campaign-scoped crypto reuse: one memoization engine for every wave
// and every worker, on both sides of the simulated wire — the scanner's
// clients here, the servers through the snapshots scanWave takes with
// the same suite — with deterministic handshakes so unchanged hosts
// replay bit-identical exchanges across waves and the engine actually
// hits (DESIGN.md §4). Nothing is installed on the world's shared
// servers, so campaigns sharing a world, such as a fabric's concurrent
// leases, each keep their own engine, and the engine dies with the
// campaign.
func (cfg CampaignConfig) newScannerBase(st study.Study) (scanner.Scanner, *uarsa.Suite, error) {
	scanBits := 2048
	if st.TestKeySizes {
		scanBits = 512
	}
	// The identity is seeded: shard workers in other processes derive
	// the same certificate, and reruns with one seed replay the same
	// grab transcripts byte for byte.
	key, cert, err := NewScannerIdentitySeeded(scanBits, st.Seed)
	if err != nil {
		return scanner.Scanner{}, nil, err
	}

	var suite *uarsa.Suite
	if !cfg.reference {
		suite = &uarsa.Suite{
			Engine:        uarsa.NewEngine(0),
			Seed:          st.Seed,
			Deterministic: true,
		}
	}
	// Re-export the engine's counters through the campaign registry so
	// telemetry snapshots carry crypto_* alongside everything else.
	suite.EngineOrNil().PublishTo(cfg.Telemetry)

	// Chaos arms the resilience layer; a polite study scans without it.
	var resilience scanner.Resilience
	if st.ChaosProfile != "" {
		resilience = scanner.DefaultResilience(st.ChaosSeed)
	}

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

// NewScannerIdentitySeeded derives the scanner identity as a pure
// function of (bits, seed): every rerun with one seed — and every
// worker process of a sharded campaign — presents the identical
// certificate, so grab transcripts and byte counts agree across
// processes.
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

// campaignRun is one campaign's resolved execution state — what
// RunCampaignOnWorld and RunCampaignShard share. Its scanWave method is
// the one place that knows how a wave runs; the two entry points differ
// only in what they do with the records it returns.
type campaignRun struct {
	cfg   CampaignConfig // Progressf serialized
	world *deploy.World
	base  scanner.Scanner // template; each wave scans with its own copy
	suite *uarsa.Suite    // nil under the reference hook
	study study.Study     // what the campaign measures; Waves in range, no repeats
	// serve and chaos are what every snapshot the campaign takes is
	// built with: the server end of the suite, and the study's chaos
	// model (zero when polite).
	serve uaserver.ConnOptions
	chaos chaos.Model
	// tracker is non-nil under cfg.Delta. It is single-owner: both entry
	// points call scanWave from one goroutine, wave after wave, so its
	// plan → scan → observe sequence is serial across waves.
	tracker *deltaTracker
}

// newCampaignRun validates the configuration and builds the campaign's
// crypto suite and chaos model. It changes nothing on the world.
func newCampaignRun(cfg CampaignConfig, world *deploy.World) (*campaignRun, error) {
	// A repeated wave would scan twice, fold into the longitudinal
	// analysis twice and reach the record sink twice.
	st := cfg.Study()
	for i, w := range st.Waves {
		if w < 0 || w >= len(deploy.WaveDates) {
			return nil, fmt.Errorf("opcuastudy: wave %d out of range [0, %d) (waves %v)",
				w, len(deploy.WaveDates), cfg.Waves)
		}
		if i > 0 && w == st.Waves[i-1] {
			return nil, fmt.Errorf("opcuastudy: wave %d selected more than once (waves %v)", w, cfg.Waves)
		}
	}
	// Serialize the progress callback once, before any fan-out: waves,
	// shards, and workers then share one mutex-guarded writer and status
	// lines never interleave mid-line.
	cfg.Progressf = telemetry.SerializedProgressf(cfg.Progressf)
	var chaosModel chaos.Model
	if st.ChaosProfile != "" {
		m, err := chaos.ModelForProfile(st.ChaosProfile, st.ChaosSeed)
		if err != nil {
			return nil, err
		}
		chaosModel = m
	}
	base, suite, err := cfg.newScannerBase(st)
	if err != nil {
		return nil, err
	}
	r := &campaignRun{cfg: cfg, world: world, base: base, suite: suite, study: st, chaos: chaosModel}
	if suite != nil {
		r.serve = uaserver.ConnOptions{Engine: suite.Engine, Deterministic: suite.Deterministic, CachedResponses: true}
	}
	if cfg.Delta {
		if r.tracker, err = newDeltaTracker(st, world); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// allShards as scanWave's shard argument scans every shard of the plan.
const allShards = -1

// scanWave runs wave position i — one shard of its plan, or with
// allShards every shard concurrently, merged into the wave an unsharded
// scan produces — and returns the scanned wave with its records in
// dataset order. The wave scans its own immutable snapshot of the
// world; under Delta, wave i's plan reads what wave i-1's scan
// observed, so the calls for one campaign run in wave order.
//
// Error contract: scanner.RunWave's. A cancelled wave comes back Partial
// together with ctx's error and without records; it is never observed
// by the delta tracker — a partial wave must not become the campaign's
// memory.
func (r *campaignRun) scanWave(ctx context.Context, i, shards, shard int) (*scanner.Wave, []*dataset.HostRecord, error) {
	cfg := r.cfg
	w, date := r.study.Waves[i], deploy.WaveDates[r.study.Waves[i]]
	// The snapshot's servers handshake through the engine this campaign's
	// scanner uses and its hosts behave as this campaign's chaos model
	// says, never as another campaign's (DESIGN.md §4).
	view, err := r.world.SnapshotWaveFor(w, r.serve, r.chaos)
	if err != nil {
		return nil, nil, err
	}
	plan := scanner.PlanWaveShards(view, shards)
	lo, hi := shard, shard+1 // the shards this call scans
	if shard == allShards {
		lo, hi = 0, plan.Shards
		cfg.progressf("wave %d (%s): scanning...", w, date.Format("2006-01-02"))
	} else {
		cfg.progressf("wave %d (%s): scanning shard %d/%d...",
			w, date.Format("2006-01-02"), shard, plan.Shards)
	}
	// Wave labels are the same in every process of a sharded campaign
	// (the shard identity rides on Snapshot.Shard), so per-worker
	// snapshots merge key-aligned.
	waveScope := cfg.Telemetry.Scope("wave", strconv.Itoa(w))
	sc := r.base
	sc.Dialer = view
	sc.Metrics = waveScope
	sc.Trace = cfg.Trace
	sc.TraceSeed = cfg.Seed
	sc.TraceWave = w
	wcfg := scanner.WaveConfig{
		Date:             date,
		FollowReferences: w >= deploy.FollowReferencesFromWave,
		GrabWorkers:      cfg.GrabWorkers,
		Metrics:          waveScope,
	}
	var dw *deltaWave
	if r.tracker != nil {
		// The Skip closure is read concurrently by the shard goroutines
		// below, but only ever reads.
		dw = r.tracker.planWave(i)
		wcfg.Delta = dw.sd
	}

	// Each shard runs its own port-scan slice and grab pool against the
	// shared view. A cancelled shard yields a partial wave that merges
	// cleanly; the first shard error is the wave's error.
	shardWaves := make([]*scanner.Wave, hi-lo)
	shardErrs := make([]error, hi-lo)
	var wg sync.WaitGroup
	for s := lo; s < hi; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shardWaves[s-lo], shardErrs[s-lo] = scanner.RunWaveShard(ctx, view, &sc, wcfg, plan, s)
		}()
	}
	wg.Wait()
	wave := shardWaves[0]
	if hi-lo > 1 {
		wave = scanner.MergeWaveShards(shardWaves...)
	}
	for _, serr := range shardErrs {
		if serr != nil {
			return wave, nil, serr
		}
	}

	results := wave.DatasetResults()
	recs := make([]*dataset.HostRecord, len(results))
	for k, res := range results {
		recs[k] = dataset.FromResult(res, w, date, asnOf(view, res.Address))
	}
	if dw != nil {
		// Skipped hosts' re-stamped clones fold in and the combined set
		// takes the standard deterministic order — exactly where a full
		// scan's grabs would have streamed them.
		r.tracker.observeWave(i, dw, wave, recs)
		recs = mergeDeltaRecords(recs, dw)
		if dw.delta() {
			waveScope.Counter("wave_delta_misses").Add(uint64(len(wave.Results)))
			waveScope.Counter("wave_delta_hits").Add(uint64(len(dw.clones)))
		} else {
			waveScope.Counter("wave_delta_fallbacks").Inc()
		}
	}
	return wave, recs, nil
}

// RunCampaignOnWorld executes waves against an existing world, allowing
// reuse of the expensive materialization.
//
// Execution model: the campaign never mutates the shared network. One
// scan goroutine walks the waves in order, each against its own
// immutable worldview snapshot (scanWave), and hands every wave's
// outcome to a buffer of its own; the analysis fold runs on the
// caller's goroutine in wave order. The scan never waits for the fold,
// so wave w+1 scans while wave w folds, and the output is the one a
// wave-at-a-time run produces.
//
// Cancellation contract: if ctx is cancelled mid-campaign, the partial
// Campaign is returned together with the first wave's error. Waves
// scanned before cancellation are fully analyzed; the wave in flight
// appears in Campaign.Scans with Wave.Partial set; waves never started
// are absent from Scans. Campaign.Long is only computed on full
// success.
func RunCampaignOnWorld(ctx context.Context, cfg CampaignConfig, world *deploy.World) (*Campaign, error) {
	run, err := newCampaignRun(cfg, world)
	if err != nil {
		return nil, err
	}
	cfg = run.cfg
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
		if run.suite == nil {
			return
		}
		st := run.suite.Engine.Stats()
		c.CryptoStats = &st
	}()

	// The scan goroutine walks the wave positions in order; each wave's
	// outcome waits in its own one-slot channel, so the scan never blocks
	// on the fold. After cancellation the remaining waves are answered
	// with the context's error unscanned, so the fold below always
	// terminates.
	type outcome struct {
		wave *scanner.Wave
		recs []*dataset.HostRecord
		err  error
	}
	outcomes := make([]chan outcome, len(run.study.Waves))
	for i := range outcomes {
		outcomes[i] = make(chan outcome, 1)
	}
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		for i := range run.study.Waves {
			// A wave whose turn comes after cancellation never starts;
			// it must not surface as a partial scan.
			if err := ctx.Err(); err != nil {
				outcomes[i] <- outcome{err: err}
				continue
			}
			wave, recs, err := run.scanWave(ctx, i, cfg.Shards, allShards)
			outcomes[i] <- outcome{wave, recs, err}
		}
	}()

	// The analysis side is a streaming fold in wave order: each wave's
	// records stream through a WaveAccumulator (and into cfg.RecordSink,
	// in dataset order), and every finalized WaveAnalysis is folded into
	// the longitudinal accumulator immediately, while later waves are
	// still scanning — the campaign never needs more than the in-flight
	// waves in memory (with DiscardRecords, not even the past waves'
	// records).
	longAcc := core.NewLongitudinalAccumulator(false)
	var sinkErr, firstErr error
	for i, w := range run.study.Waves {
		out := <-outcomes[i]
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
		// analyzed even when an earlier wave in the fold order errored;
		// only Campaign.Long requires the whole campaign.
		acc := longAcc.NewWave(w, deploy.WaveDates[w])
		// campaign_records{wave=w} is the accounting counter: its total
		// across waves must equal the dataset's record count exactly —
		// the invariant the metrics-accounting tests pin.
		recordsC := cfg.Telemetry.Scope("wave", strconv.Itoa(w)).Counter("campaign_records")
		for _, rec := range out.recs {
			acc.Add(rec)
			recordsC.Inc()
			if cfg.RecordSink != nil && sinkErr == nil {
				if sinkErr = cfg.RecordSink.Put(rec); sinkErr != nil {
					abort()
				}
			}
		}
		if !cfg.DiscardRecords {
			c.RecordsByWave[w] = out.recs
		}
		analysis := acc.Finalize(0)
		c.Analyses = append(c.Analyses, analysis)
		longAcc.AddWave(analysis)
		cfg.progressf("wave %d: %d open ports, %d OPC UA hosts (%d servers, %d discovery), %.0f%% deficient",
			w, out.wave.OpenPorts, acc.Len(), len(analysis.Servers), analysis.Discovery,
			100*analysis.DeficientFrac)
	}
	<-scanned
	if sinkErr != nil {
		// The sink failure is the root cause; later waves' cancellation
		// errors are its consequence.
		return c, fmt.Errorf("opcuastudy: record sink: %w", sinkErr)
	}
	if firstErr != nil {
		return c, firstErr
	}
	long := longAcc.Finalize()
	long.Waves = c.Analyses
	c.Long = long
	return c, nil
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
// Under cfg.Delta the tracker runs over this worker's own shard stream.
// By induction over waves, a worker's delta stream is record-for-record
// its full-scan shard stream (its observations cover exactly the
// referrers and records it would re-grab), so the merge yields the
// identical dataset at any shard count.
//
// The sink stays open — the caller owns and closes it. On context
// cancellation the in-flight wave's records are not emitted (a partial
// wave must not masquerade as a complete shard stream); the error is
// returned after whole waves already streamed.
//
// One semantic differs from the single-process Campaign: a scanned wave
// that yields zero OPC UA records is simply absent from the stream —
// the merged analysis then skips it, exactly like AnalyzeDataset skips
// empty waves when reproducing figures from a released dataset.
func RunCampaignShard(ctx context.Context, cfg CampaignConfig, world *deploy.World, shards, shard int, sink pipeline.RecordSink) error {
	if shard < 0 {
		// The lease's shard index arrives from the network; a negative
		// one must not read as allShards.
		return fmt.Errorf("opcuastudy: shard %d out of range [0, %d)", shard, shards)
	}
	run, err := newCampaignRun(cfg, world)
	if err != nil {
		return err
	}
	for i, w := range run.study.Waves {
		_, recs, err := run.scanWave(ctx, i, shards, shard)
		if err != nil {
			return fmt.Errorf("opcuastudy: wave %d shard %d: %w", w, shard, err)
		}
		recordsC := run.cfg.Telemetry.Scope("wave", strconv.Itoa(w)).Counter("campaign_records")
		for _, rec := range recs {
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
				sink.Close() // stops the encoding goroutine; the Put error is the one to report
				return err
			}
		}
	}
	return sink.Close()
}

// FabricSpec derives the networked campaign description a fabric
// coordinator hands to every joining worker: the study, the two
// execution values a worker runs with, and the fleet's shard count and
// heartbeat cadence. Workers reconstruct their configuration with
// CampaignFromSpec, so a fleet cannot diverge on flags.
func (cfg CampaignConfig) FabricSpec(shards int, heartbeat time.Duration) fabric.CampaignSpec {
	return fabric.CampaignSpec{
		Study:       cfg.Study(),
		GrabWorkers: cfg.GrabWorkers,
		Delta:       cfg.Delta,
		Shards:      shards,
		HeartbeatMs: heartbeat.Milliseconds(),
	}
}

// CampaignFromSpec is the worker-side inverse of FabricSpec. Process-
// local concerns (Telemetry, Progressf, sinks) stay zero for the
// caller to fill in.
func CampaignFromSpec(spec fabric.CampaignSpec) CampaignConfig {
	cfg := studyConfig(spec.Study)
	cfg.GrabWorkers, cfg.Delta = spec.GrabWorkers, spec.Delta
	return cfg
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
// AnalyzeDataset; its waves are one campaign's (long.NewWave).
type recordFold struct {
	accs    map[int]*core.WaveAccumulator
	long    *core.LongitudinalAccumulator
	maxWave int
}

func newRecordFold() *recordFold {
	return &recordFold{
		accs: map[int]*core.WaveAccumulator{},
		long: core.NewLongitudinalAccumulator(true),
	}
}

func (f *recordFold) add(r *dataset.HostRecord) {
	acc := f.accs[r.Wave]
	if acc == nil {
		acc = f.long.NewWave(r.Wave, r.Date)
		f.accs[r.Wave] = acc
	}
	acc.Add(r)
	if r.Wave > f.maxWave {
		f.maxWave = r.Wave
	}
}

func (f *recordFold) finish() ([]*core.WaveAnalysis, *core.Longitudinal) {
	var analyses []*core.WaveAnalysis
	for w := 0; w <= f.maxWave; w++ {
		if f.accs[w] == nil {
			continue
		}
		a := f.accs[w].Finalize(0)
		analyses = append(analyses, a)
		f.long.AddWave(a)
	}
	return analyses, f.long.Finalize()
}
