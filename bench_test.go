package opcuastudy

// The benchmark harness regenerates every table and figure of the
// paper's evaluation at full fidelity: the complete 1114-server world
// with real key sizes, all eight measurement waves. The expensive
// campaign runs once (shared fixture); each benchmark then measures the
// analysis that produces its figure and reports the headline numbers as
// custom metrics, so `go test -bench` output documents paper-vs-measured
// directly (see EXPERIMENTS.md).

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/report"
	"repro/internal/telemetry"
	"repro/internal/uapolicy"
)

var (
	benchOnce sync.Once
	benchCamp *Campaign
	benchErr  error
)

// benchCampaign runs the full-fidelity campaign once per test binary —
// with the telemetry registry live, so the benchmark numbers measure
// the instrumented configuration (the one CI ships). When
// OPCUA_METRICS_OUT names a file, the closing snapshot is written there
// as NDJSON for the CI bench artifacts.
func benchCampaign(b *testing.B) *Campaign {
	b.Helper()
	benchOnce.Do(func() {
		reg := telemetry.New()
		benchCamp, benchErr = RunCampaign(context.Background(), CampaignConfig{
			Seed:        2020,
			NoiseProb:   0.002,
			GrabWorkers: 32,
			Telemetry:   reg,
			Progressf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "[campaign] "+format+"\n", args...)
			},
		})
		if benchErr != nil {
			return
		}
		if path := os.Getenv("OPCUA_METRICS_OUT"); path != "" {
			snap := reg.Snapshot()
			snap.Final = true
			f, err := os.Create(path)
			if err == nil {
				err = telemetry.WriteSnapshot(f, snap)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "[campaign] metrics dump: %v\n", err)
			}
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchCamp
}

func lastWaveRecords(b *testing.B, c *Campaign) []*dataset.HostRecord {
	b.Helper()
	recs := c.RecordsByWave[7]
	if len(recs) == 0 {
		b.Fatal("no records for the final wave")
	}
	return recs
}

// reanalyze measures the assessment engine on the final wave.
func reanalyze(b *testing.B, c *Campaign) *core.WaveAnalysis {
	recs := lastWaveRecords(b, c)
	var w *core.WaveAnalysis
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := core.NewWaveAccumulator(7, c.Analyses[len(c.Analyses)-1].Date)
		for _, r := range recs {
			acc.Add(r)
		}
		w = acc.Finalize(0)
	}
	b.StopTimer()
	return w
}

func BenchmarkTable1(b *testing.B) {
	var t *Table
	for i := 0; i < b.N; i++ {
		t = report.Table1()
	}
	if len(t.Rows) != 6 {
		b.Fatalf("Table 1 rows = %d", len(t.Rows))
	}
}

func BenchmarkFigure2HostsOverTime(b *testing.B) {
	c := benchCampaign(b)
	var t *Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t = report.Figure2(c.Analyses)
	}
	b.StopTimer()
	if len(t.Rows) != 8 {
		b.Fatalf("Figure 2 waves = %d", len(t.Rows))
	}
	last := c.LastWave()
	b.ReportMetric(float64(len(last.Servers)), "servers")
	b.ReportMetric(float64(last.Discovery), "discovery")
	b.ReportMetric(float64(last.ByVendor["Bachmann"]), "bachmann")
}

func BenchmarkFigure3ModesPolicies(b *testing.B) {
	c := benchCampaign(b)
	w := reanalyze(b, c)
	if w.ModeSupport["None"] != 1035 || w.PolicySupport["D1"] != 715 {
		b.Fatalf("Figure 3 shape off: %v %v", w.ModeSupport, w.PolicySupport)
	}
	b.ReportMetric(float64(w.NoneOnly), "none_only")
	b.ReportMetric(float64(w.DeprecatedBest), "deprecated_best")
	b.ReportMetric(float64(w.EnforceSecure), "enforce_secure")
}

func BenchmarkFigure4CertConformance(b *testing.B) {
	c := benchCampaign(b)
	w := reanalyze(b, c)
	s2 := w.Conformance["S2"]
	d1 := w.Conformance["D1"]
	d2 := w.Conformance["D2"]
	// Full-fidelity check: these depend on real key sizes.
	if s2[uapolicy.CertTooWeak] != 409 {
		b.Fatalf("S2 too-weak = %d, want 409", s2[uapolicy.CertTooWeak])
	}
	if d1[uapolicy.CertTooStrong] != 75 || d1[uapolicy.CertTooWeak] != 7 {
		b.Fatalf("D1 = %v", d1)
	}
	if d2[uapolicy.CertTooStrong] != 5 {
		b.Fatalf("D2 too-strong = %d, want 5", d2[uapolicy.CertTooStrong])
	}
	b.ReportMetric(float64(s2[uapolicy.CertTooWeak]), "s2_too_weak")
	b.ReportMetric(float64(d1[uapolicy.CertTooStrong]), "d1_too_strong")
	b.ReportMetric(float64(d2[uapolicy.CertTooStrong]), "d2_too_strong")
}

func BenchmarkFigure5CertReuse(b *testing.B) {
	c := benchCampaign(b)
	w := reanalyze(b, c)
	clusters := w.ReuseClustersAtLeast(3)
	if len(clusters) != 9 || clusters[0].Hosts != 385 || clusters[0].ASes != 24 {
		b.Fatalf("Figure 5 clusters off: %+v", clusters)
	}
	if w.WeakKeyFindings != 0 {
		b.Fatalf("weak keys = %d, want 0", w.WeakKeyFindings)
	}
	b.ReportMetric(float64(len(clusters)), "reused_certs")
	b.ReportMetric(float64(clusters[0].Hosts), "biggest_cluster")
	b.ReportMetric(float64(clusters[0].ASes), "biggest_cluster_ases")
}

func BenchmarkFigure6Authentication(b *testing.B) {
	c := benchCampaign(b)
	w := reanalyze(b, c)
	if w.Anonymous != 572 || w.AnonSCOK != 563 || w.Accessible != 493 {
		b.Fatalf("Figure 6 off: %d/%d/%d", w.Anonymous, w.AnonSCOK, w.Accessible)
	}
	b.ReportMetric(float64(w.AnonSCOK), "anonymous")
	b.ReportMetric(float64(w.Accessible), "accessible")
	b.ReportMetric(float64(w.RejectedSC), "cert_rejected")
}

func BenchmarkFigure7Exposure(b *testing.B) {
	c := benchCampaign(b)
	w := reanalyze(b, c)
	read, write, exec := w.ExposureCDFs()
	b.ReportMetric(read.Survival(0.97), "read_gt97")
	b.ReportMetric(write.Survival(0.10), "write_gt10")
	b.ReportMetric(exec.Survival(0.86), "exec_gt86")
	if s := read.Survival(0.97); s < 0.85 || s > 0.95 {
		b.Fatalf("read survival = %.2f", s)
	}
}

func BenchmarkTable2AuthMatrix(b *testing.B) {
	c := benchCampaign(b)
	w := reanalyze(b, c)
	cell := w.AuthMatrix["Anonymous+UserName"]
	if cell == nil || cell.Production != 168 || cell.Unclassified != 134 {
		b.Fatalf("Table 2 row off: %+v", cell)
	}
	var tbl *Table
	for i := 0; i < 10; i++ {
		tbl = report.Table2(w)
	}
	if len(tbl.Rows) < 8 {
		b.Fatalf("Table 2 rows = %d", len(tbl.Rows))
	}
	b.ReportMetric(float64(cell.Production), "anon_cred_production")
}

func BenchmarkFigure8DeficitSplits(b *testing.B) {
	c := benchCampaign(b)
	w := reanalyze(b, c)
	if w.DeficientFrac < 0.91 || w.DeficientFrac > 0.94 {
		b.Fatalf("deficient fraction = %.3f", w.DeficientFrac)
	}
	b.ReportMetric(100*w.DeficientFrac, "deficient_pct")
	b.ReportMetric(float64(w.DeficitByVendor[core.DeficitNone]["SigmaPLC"]), "sigmaplc_none_only")
	b.ReportMetric(float64(w.DeficitByVendor[core.DeficitCertReuse]["Bachmann"]), "bachmann_reuse")
}

func BenchmarkSection55Longitudinal(b *testing.B) {
	c := benchCampaign(b)
	var l *core.Longitudinal
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		la := core.NewLongitudinalAccumulator(true)
		for _, w := range c.Analyses {
			la.AddWave(w)
		}
		l = la.Finalize()
	}
	b.StopTimer()
	if len(l.Renewals) != 84 {
		b.Fatalf("renewals = %d, want 84", len(l.Renewals))
	}
	if l.UpgradedSHA1 != 7 || l.Downgraded != 1 || l.SoftwareUpdates != 9 {
		b.Fatalf("renewal mix = %d/%d/%d", l.UpgradedSHA1, l.Downgraded, l.SoftwareUpdates)
	}
	b.ReportMetric(100*l.DeficientSummary.Mean, "deficient_mean_pct")
	b.ReportMetric(100*l.DeficientSummary.Std, "deficient_std_pct")
	b.ReportMetric(float64(l.SHA1Post2017), "sha1_post2017")
	b.ReportMetric(float64(l.ReuseGrowth[0]), "reuse_wave0")
	b.ReportMetric(float64(l.ReuseGrowth[len(l.ReuseGrowth)-1]), "reuse_wave7")
}

// BenchmarkCampaignWave measures one complete measurement wave (port
// scan, grabs, follow-ups) against the materialized world. The
// sub-benchmark keeps the name BENCH_3/BENCH_4 recorded it under.
func BenchmarkCampaignWave(b *testing.B) {
	c := benchCampaign(b)
	b.Run("streaming", func(b *testing.B) {
		cfg := c.Config
		cfg.Waves = []int{7}
		for i := 0; i < b.N; i++ {
			if _, err := RunCampaignOnWorld(context.Background(), cfg, c.World); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCampaign8Waves is the PR 4 headline: the complete
// longitudinal campaign — all eight weekly waves against the
// full-fidelity 1,114-server world — with the memoized
// asymmetric-crypto engine and deterministic handshakes on ("cached",
// the production default) versus the same campaign recomputing every
// RSA operation with fresh randomness ("uncached", the PR 3 baseline).
// The paper's cross-wave structure is exactly what the engine exploits:
// only 84 certificates renew across the eight waves and one key is
// shared by 385 hosts, so nearly every OPN exchange after wave 0 is a
// bit-identical replay served from cache. Paper assertions (1,114
// servers, 385-host/24-AS reuse cluster, 493 accessible, 84 renewals)
// run inside the loop for both modes, so the speedup cannot come at the
// cost of fidelity; cache hit counters are reported as custom metrics
// for cmd/benchjson.
func BenchmarkCampaign8Waves(b *testing.B) {
	c := benchCampaign(b)
	for _, mode := range []struct {
		name     string
		uncached bool
	}{
		{"cached", false},
		{"uncached", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := c.Config
			cfg.Waves = nil // all eight
			cfg.uncachedCrypto = mode.uncached
			for i := 0; i < b.N; i++ {
				run, err := RunCampaignOnWorld(context.Background(), cfg, c.World)
				if err != nil {
					b.Fatal(err)
				}
				assertPaperHeadlines(b, run)
				if st := run.CryptoStats; st != nil {
					tot := cryptoTotal(st)
					b.ReportMetric(float64(tot.Hits), "rsa_hits")
					b.ReportMetric(float64(tot.Misses), "rsa_misses")
					b.ReportMetric(100*tot.HitRate(), "rsa_hit_pct")
				}
			}
		})
	}
}

// BenchmarkCampaign8WavesSharded is the PR 5 headline: the complete
// eight-wave full-fidelity campaign with every wave's permuted probe
// space sharded N ways, each shard running its own fixed grab pool of 8
// workers — the single-process model of one worker machine per shard
// (the multi-process twin is cmd/measure -shards). A small artificial
// RTT is injected into all variants: real measurement waves are
// network-bound, and that idle dial time is exactly what additional
// shards' worker pools reclaim — on a multi-core box the shards'
// protocol CPU also spreads across cores. Paper assertions run inside
// the loop for every shard count, so the speedup cannot come at the
// cost of fidelity; the shard merge is byte-exact
// (TestShardedCampaignByteIdentical pins it).
func BenchmarkCampaign8WavesSharded(b *testing.B) {
	c := benchCampaign(b)
	c.World.Net.SetLatency(5 * time.Millisecond)
	defer c.World.Net.SetLatency(0)
	for _, shards := range []int{1, 4} {
		// The underscore keeps benchjson's GOMAXPROCS-suffix stripping
		// away from the shard count.
		b.Run(fmt.Sprintf("shards_%d", shards), func(b *testing.B) {
			cfg := c.Config
			cfg.Waves = nil // all eight
			cfg.Shards = shards
			cfg.GrabWorkers = 8 // per shard: one machine's worth
			for i := 0; i < b.N; i++ {
				run, err := RunCampaignOnWorld(context.Background(), cfg, c.World)
				if err != nil {
					b.Fatal(err)
				}
				assertPaperHeadlines(b, run)
				b.ReportMetric(float64(shards), "shards")
				b.ReportMetric(float64(len(run.LastWave().Servers)), "servers")
			}
		})
	}
}

// BenchmarkCampaign8WavesDelta is the PR 10 headline: the complete
// eight-wave full-fidelity campaign sharded 4 ways ("full", exactly the
// BenchmarkCampaign8WavesSharded/shards_4 configuration) versus the
// same campaign in delta mode ("delta"), where every wave after the
// first diffs per-host fingerprints against its predecessor and clones
// the prior wave's records for unchanged hosts without opening a single
// channel. The paper's longitudinal structure is what delta mode
// exploits: only 84 certificates renew and a handful of hosts churn
// across the eight waves, so the steady-state wave is almost entirely
// skips. Paper assertions run inside the loop for both modes — the
// speedup cannot come at the cost of fidelity (the byte-identity twin
// is TestDeltaCampaignByteIdentical) — and the delta hit/miss/fallback
// counters are reported as custom metrics for cmd/benchjson.
func BenchmarkCampaign8WavesDelta(b *testing.B) {
	c := benchCampaign(b)
	c.World.Net.SetLatency(5 * time.Millisecond)
	defer c.World.Net.SetLatency(0)
	for _, mode := range []struct {
		name  string
		delta bool
	}{
		{"full", false},
		{"delta", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := c.Config
			cfg.Waves = nil // all eight
			cfg.Shards = 4
			cfg.GrabWorkers = 8 // per shard: one machine's worth
			cfg.Delta = mode.delta
			for i := 0; i < b.N; i++ {
				reg := telemetry.New()
				cfg.Telemetry = reg
				run, err := RunCampaignOnWorld(context.Background(), cfg, c.World)
				if err != nil {
					b.Fatal(err)
				}
				assertPaperHeadlines(b, run)
				if mode.delta {
					snap := reg.Snapshot()
					hits := float64(snap.CounterTotal("wave_delta_hits"))
					misses := float64(snap.CounterTotal("wave_delta_misses"))
					b.ReportMetric(hits, "delta_hits")
					b.ReportMetric(misses, "delta_misses")
					b.ReportMetric(float64(snap.CounterTotal("wave_delta_fallbacks")), "delta_fallbacks")
					if hits+misses > 0 {
						b.ReportMetric(100*hits/(hits+misses), "delta_hit_pct")
					}
				}
			}
		})
	}
}

// BenchmarkDatasetWrite measures dataset serialization.
func BenchmarkDatasetWrite(b *testing.B) {
	c := benchCampaign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteDataset(discard{}); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
