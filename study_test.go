package opcuastudy

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
	"repro/internal/uarsa"
)

// The end-to-end fixture runs the paper's final measurement (wave 7)
// once against the full 1114-server world with 512-bit test keys. All
// figure-level assertions share it; key-length-dependent numbers
// (Figure 4) are validated at spec level in internal/deploy and at full
// fidelity by the benchmark harness.
var (
	e2eOnce sync.Once
	e2eCamp *Campaign
	e2eErr  error
)

func lastWaveCampaign(t *testing.T) *Campaign {
	t.Helper()
	if testing.Short() {
		t.Skip("end-to-end campaign skipped in -short mode")
	}
	e2eOnce.Do(func() {
		e2eCamp, e2eErr = RunCampaign(context.Background(), CampaignConfig{
			Seed:         2020,
			Waves:        []int{7},
			TestKeySizes: true,
			NoiseProb:    0.001,
			GrabWorkers:  16,
		})
	})
	if e2eErr != nil {
		t.Fatal(e2eErr)
	}
	return e2eCamp
}

func datasetBytes(t *testing.T, c *Campaign) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteDataset(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// putFunc is a RecordSink that hands every record to a function.
type putFunc func(*dataset.HostRecord) error

func (f putFunc) Put(rec *dataset.HostRecord) error { return f(rec) }
func (f putFunc) Close() error                      { return nil }

// TestCampaignConcurrentWavesMatchSequential pins the two promises of
// the campaign's scan goroutine (DESIGN.md §2): wave w+1 scans while
// wave w folds, and scanning ahead never changes a byte. The scan-ahead
// run's sink holds wave 6's first record until wave 7's scanning line
// arrives, which happens only if the scan runs ahead of the fold. Its
// dataset and analyses must equal a lock-step run's, whose wave w+1
// starts scanning only once the fold has taken every record of wave w.
// The world is shared, so even certificate thumbprints must agree.
func TestCampaignConcurrentWavesMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign equivalence skipped in -short mode")
	}
	cfg := deltaTestConfig("")
	cfg.Waves = []int{5, 6, 7}
	world, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const patience = 30 * time.Second
	scanning := func(format string, args []any, wave int) bool {
		return strings.Contains(format, "scanning") && args[0] == wave
	}

	aheadCfg := cfg
	wave7 := make(chan struct{})
	aheadCfg.Progressf = func(format string, args ...any) {
		if scanning(format, args, 7) {
			close(wave7)
		}
	}
	held := false
	aheadCfg.RecordSink = putFunc(func(rec *dataset.HostRecord) error {
		if rec.Wave == 6 && !held {
			held = true
			select {
			case <-wave7:
			case <-time.After(patience):
				t.Errorf("wave 7 did not start scanning within %s while wave 6 folded", patience)
			}
		}
		return nil
	})
	ahead, err := RunCampaignOnWorld(context.Background(), aheadCfg, world)
	if err != nil {
		t.Fatal(err)
	}

	stepCfg := cfg
	want := map[int]int{}
	folded := map[int]chan struct{}{}
	for _, w := range cfg.Waves {
		if want[w] = len(ahead.RecordsByWave[w]); want[w] == 0 {
			t.Fatalf("wave %d has no records to hold", w)
		}
		folded[w] = make(chan struct{})
	}
	got := map[int]int{}
	stepCfg.RecordSink = putFunc(func(rec *dataset.HostRecord) error {
		if got[rec.Wave]++; got[rec.Wave] == want[rec.Wave] {
			close(folded[rec.Wave])
		}
		return nil
	})
	stepCfg.Progressf = func(format string, args ...any) {
		for _, w := range cfg.Waves[1:] {
			if scanning(format, args, w) {
				select {
				case <-folded[w-1]:
				case <-time.After(patience):
					t.Errorf("wave %d's records did not reach the sink within %s", w-1, patience)
				}
			}
		}
	}
	step, err := RunCampaignOnWorld(context.Background(), stepCfg, world)
	if err != nil {
		t.Fatal(err)
	}

	requireSame(t, cfg.Seed, outcomeOf(ahead), outcomeOf(step))
	for _, w := range cfg.Waves {
		as, ss := ahead.Scans[w], step.Scans[w]
		if as == nil || ss == nil {
			t.Fatalf("wave %d scan missing: %v / %v", w, as != nil, ss != nil)
		}
		if as.Partial || ss.Partial {
			t.Errorf("wave %d marked partial on an uncancelled run", w)
		}
		if as.OpenPorts != ss.OpenPorts || len(as.Results) != len(ss.Results) {
			t.Errorf("wave %d scans differ: %d/%d open, %d/%d results",
				w, as.OpenPorts, ss.OpenPorts, len(as.Results), len(ss.Results))
		}
	}
}

// TestCampaignConcurrentCachedMatchesUncached is the response-cache
// equivalence gate in the order TestExecInvariance does not run: the
// production campaign first, so every server this study touches is
// built and has pre-encoded its GetEndpoints/FindServers responses,
// then the reference run on the same world, which must still encode
// each response structurally and land on the same dataset bytes. The
// 60 hosts are all mode-None-only, so no RSA runs and a difference
// points at the response cache. Two concurrent shards exercise the
// pooled codec buffers and the memoized certificate parses under -race
// (the name matches the CI race-run pattern 'TestCampaignConcurrent').
func TestCampaignConcurrentCachedMatchesUncached(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign equivalence skipped in -short mode")
	}
	cfg := deltaTestConfig("")
	cfg.Waves, cfg.Shards = []int{6, 7}, 2
	productionThenReference(t, cfg)
}

// TestCampaignConcurrentCryptoCacheMatchesUncached is the memo
// engine's equivalence gate across certificate renewals: waves 5–7
// renew certificates, so renewed hosts derive fresh exchanges while
// unchanged hosts replay memoized ones, and both paths must land in
// the reference run's dataset bytes. Two concurrent shards exercise
// the engine's sharded maps under -race. MaxHosts must reach past
// index 270: the spec's first 270 hosts are mode-None-only and do no
// RSA at all.
func TestCampaignConcurrentCryptoCacheMatchesUncached(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign equivalence skipped in -short mode")
	}
	cfg := execFixture("")
	cfg.Waves, cfg.Shards = []int{5, 6, 7}, 2
	cached, uncached := productionThenReference(t, cfg)
	if cached.CryptoStats == nil || cryptoTotal(cached.CryptoStats).Hits == 0 {
		t.Errorf("the memo engine never hit across three waves: %+v", cached.CryptoStats)
	}
	if uncached.CryptoStats != nil {
		t.Error("the reference run reports crypto stats")
	}
}

// productionThenReference runs cfg in production mode and then as the
// reference run on the same world, and requires the two to agree on
// dataset bytes, wave analyses and the longitudinal analysis.
func productionThenReference(t *testing.T, cfg CampaignConfig) (prod, ref *Campaign) {
	t.Helper()
	world, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prod, err = RunCampaignOnWorld(context.Background(), cfg, world)
	if err != nil {
		t.Fatal(err)
	}
	refCfg := cfg
	refCfg.reference = true
	ref, err = RunCampaignOnWorld(context.Background(), refCfg, world)
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, cfg.Seed, outcomeOf(prod), outcomeOf(ref))
	return prod, ref
}

// TestFullFidelityPaperAssertions re-runs the complete eight-wave
// campaign at full fidelity (real key sizes, crypto cache on — the
// production configuration) and checks the paper's headline numbers.
// The 2048-bit world takes minutes to materialize, so it only runs when
// OPCUA_FULL_FIDELITY is set; CI runs it under -race (see
// .github/workflows/ci.yml), which is the "paper assertions under
// -race" acceptance gate for the crypto engine.
func TestFullFidelityPaperAssertions(t *testing.T) {
	if os.Getenv("OPCUA_FULL_FIDELITY") == "" {
		t.Skip("set OPCUA_FULL_FIDELITY=1 to run the full-fidelity campaign")
	}
	reg := telemetry.New()
	c, err := RunCampaign(context.Background(), CampaignConfig{
		Seed:        2020,
		NoiseProb:   0.002,
		GrabWorkers: 32,
		Telemetry:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertPaperHeadlines(t, c)
	if c.CryptoStats == nil || cryptoTotal(c.CryptoStats).HitRate() < 0.5 {
		t.Errorf("crypto cache underperformed: %+v", c.CryptoStats)
	}
	var total uint64
	for _, recs := range c.RecordsByWave {
		total += uint64(len(recs))
	}
	if got := reg.Snapshot().CounterTotal("campaign_records"); got != total {
		t.Errorf("campaign_records = %d, want %d (full-fidelity accounting)", got, total)
	}
}

// assertPaperHeadlines checks the paper's four headline numbers on a
// completed full-fidelity campaign: 1,114 servers in the final wave,
// the 385-host/24-AS certificate-reuse cluster (of 9 clusters ≥3
// hosts), 493 accessible address spaces, and 84 certificate renewals
// across the waves. The canonical benchmark (bench/) checks the same
// numbers on every rep of its full-fidelity workloads.
func assertPaperHeadlines(tb testing.TB, c *Campaign) {
	tb.Helper()
	w := c.LastWave()
	if len(w.Servers) != 1114 {
		tb.Errorf("servers = %d, want 1114", len(w.Servers))
	}
	clusters := w.ReuseClustersAtLeast(3)
	if len(clusters) != 9 || clusters[0].Hosts != 385 || clusters[0].ASes != 24 {
		tb.Errorf("reuse clusters = %+v, want 9 with 385 hosts / 24 ASes leading", clusters)
	}
	if w.Accessible != 493 {
		tb.Errorf("accessible = %d, want 493", w.Accessible)
	}
	if c.Long == nil || len(c.Long.Renewals) != 84 {
		tb.Errorf("renewals missing or wrong, want 84 (long=%v)", c.Long != nil)
	}
}

func TestEndToEndPopulation(t *testing.T) {
	c := lastWaveCampaign(t)
	w := c.LastWave()
	if len(w.Servers) != 1114 {
		t.Errorf("servers = %d, want 1114", len(w.Servers))
	}
	total := len(w.Records)
	if total < 1761 || total > 2069 {
		t.Errorf("total OPC UA hosts = %d, outside 1761–2069", total)
	}
	if w.Discovery != 807 {
		t.Errorf("discovery servers = %d, want 807", w.Discovery)
	}
	// Manufacturer attribution (Figure 2).
	if w.ByVendor["Bachmann"] != 406 || w.ByVendor["Beckhoff"] != 112 || w.ByVendor["Wago"] != 78 {
		t.Errorf("manufacturers = %v", w.ByVendor)
	}
	// Follow-reference and non-default-port discoveries exist.
	if w.ViaCounts["follow-reference"] == 0 {
		t.Error("no hosts found via references")
	}
	if w.NonDefault == 0 {
		t.Error("no hosts on non-default ports")
	}
}

func TestEndToEndFigure3(t *testing.T) {
	c := lastWaveCampaign(t)
	w := c.LastWave()
	if w.ModeSupport["None"] != 1035 || w.ModeSupport["Sign"] != 588 || w.ModeSupport["SignAndEncrypt"] != 843 {
		t.Errorf("mode support = %v", w.ModeSupport)
	}
	if w.ModeLeast["None"] != 1035 || w.ModeLeast["Sign"] != 28 || w.ModeLeast["SignAndEncrypt"] != 51 {
		t.Errorf("mode least = %v", w.ModeLeast)
	}
	if w.ModeMost["None"] != 270 || w.ModeMost["Sign"] != 1 || w.ModeMost["SignAndEncrypt"] != 843 {
		t.Errorf("mode most = %v", w.ModeMost)
	}
	wantSupport := map[string]int{"N": 1035, "D1": 715, "D2": 762, "S1": 10, "S2": 564, "S3": 8}
	for k, v := range wantSupport {
		if w.PolicySupport[k] != v {
			t.Errorf("policy support %s = %d, want %d", k, w.PolicySupport[k], v)
		}
	}
	wantMost := map[string]int{"N": 270, "D1": 24, "D2": 256, "S1": 0, "S2": 556, "S3": 8}
	for k, v := range wantMost {
		if w.PolicyMost[k] != v {
			t.Errorf("policy most %s = %d, want %d", k, w.PolicyMost[k], v)
		}
	}
	if w.NoneOnly != 270 {
		t.Errorf("None-only servers = %d, want 270", w.NoneOnly)
	}
	if w.DeprecatedBest != 280 {
		t.Errorf("deprecated-best servers = %d, want 280", w.DeprecatedBest)
	}
	if w.SecureBest != 564 {
		t.Errorf("secure-best servers = %d, want 564", w.SecureBest)
	}
	if w.EnforceSecure != 16 {
		t.Errorf("enforcing servers = %d, want 16", w.EnforceSecure)
	}
}

func TestEndToEndFigure5Reuse(t *testing.T) {
	c := lastWaveCampaign(t)
	w := c.LastWave()
	clusters := w.ReuseClustersAtLeast(3)
	if len(clusters) != 9 {
		t.Fatalf("reuse clusters = %d, want 9", len(clusters))
	}
	wantSizes := []int{385, 32, 12, 9, 6, 5, 4, 3, 3}
	for i, want := range wantSizes {
		if clusters[i].Hosts != want {
			t.Errorf("cluster %d hosts = %d, want %d", i, clusters[i].Hosts, want)
		}
	}
	if clusters[0].ASes != 24 {
		t.Errorf("big cluster ASes = %d, want 24", clusters[0].ASes)
	}
	// No shared primes among distinct keys (§5.3).
	if w.WeakKeyFindings != 0 {
		t.Errorf("weak key findings = %d, want 0", w.WeakKeyFindings)
	}
}

func TestEndToEndTable2(t *testing.T) {
	c := lastWaveCampaign(t)
	w := c.LastWave()
	check := func(combo string, want [5]int) {
		t.Helper()
		cell := w.AuthMatrix[combo]
		if cell == nil {
			t.Errorf("missing auth combo %q", combo)
			return
		}
		got := [5]int{cell.Production, cell.Test, cell.Unclassified, cell.RejectedAuth, cell.RejectedSC}
		if got != want {
			t.Errorf("combo %q = %v, want %v", combo, got, want)
		}
	}
	check("Anonymous", [5]int{116, 8, 5, 9, 1})
	check("UserName", [5]int{0, 0, 0, 464, 21})
	check("Anonymous+UserName", [5]int{168, 20, 134, 38, 5})
	check("UserName+Certificate", [5]int{0, 0, 0, 4, 7})
	check("Anonymous+UserName+Certificate", [5]int{11, 14, 17, 17, 3})
	check("UserName+Certificate+IssuedToken", [5]int{0, 0, 0, 0, 43})
	check("Anonymous+UserName+Certificate+IssuedToken", [5]int{0, 0, 0, 6, 0})

	if w.Accessible != 493 {
		t.Errorf("accessible = %d, want 493", w.Accessible)
	}
	if w.RejectedSC != 80 {
		t.Errorf("SC-rejected = %d, want 80", w.RejectedSC)
	}
	if w.Anonymous != 572 || w.AnonSCOK != 563 {
		t.Errorf("anonymous = %d/%d, want 572/563", w.Anonymous, w.AnonSCOK)
	}
}

func TestEndToEndFigure7(t *testing.T) {
	c := lastWaveCampaign(t)
	w := c.LastWave()
	read, write, exec := w.ExposureCDFs()
	if read.Len() != 493 {
		t.Errorf("exposure sample = %d hosts, want 493", read.Len())
	}
	if s := read.Survival(0.97); s < 0.85 || s > 0.95 {
		t.Errorf("frac hosts reading >97%% = %.2f, want ≈0.90", s)
	}
	if s := write.Survival(0.10); s < 0.28 || s > 0.38 {
		t.Errorf("frac hosts writing >10%% = %.2f, want ≈0.33", s)
	}
	if s := exec.Survival(0.86); s < 0.56 || s > 0.66 {
		t.Errorf("frac hosts executing >86%% = %.2f, want ≈0.61", s)
	}
}

func TestEndToEndClassification(t *testing.T) {
	c := lastWaveCampaign(t)
	w := c.LastWave()
	var prod, test, uncl int
	for _, h := range w.Servers {
		if !h.Record.Accessible() || h.Record.CertRejected {
			continue
		}
		switch h.Classification.String() {
		case "production":
			prod++
		case "test":
			test++
		default:
			uncl++
		}
	}
	if prod != 295 || test != 42 || uncl != 156 {
		t.Errorf("classification = %d/%d/%d, want 295/42/156", prod, test, uncl)
	}
}

func TestEndToEndDeficitsByVendor(t *testing.T) {
	c := lastWaveCampaign(t)
	w := c.LastWave()
	// §B.1.1: one manufacturer has all devices on mode/policy None.
	sigma := w.DeficitByVendor[core.DeficitNone]["SigmaPLC"]
	if sigma != 15 {
		t.Errorf("SigmaPLC None-only devices = %d, want 15", sigma)
	}
	// Certificate reuse concentrates on Bachmann (§5.3).
	reuseBachmann := w.DeficitByVendor[core.DeficitCertReuse]["Bachmann"]
	if reuseBachmann < 400 {
		t.Errorf("Bachmann reused-cert devices = %d, want >= 400", reuseBachmann)
	}
}

func TestEndToEndDatasetRoundTrip(t *testing.T) {
	c := lastWaveCampaign(t)
	// The serialized dataset gives back the live records and, folded,
	// the live analyses.
	recs := decodeDataset(t, datasetBytes(t, c))
	waves, long := analyzeRecords(recs)
	requireSame(t, c.Config.Seed, &reference{nil, recs, analyses{waves, long}}, outcomeOf(c))
}

func TestEndToEndAnonymizedDataset(t *testing.T) {
	c := lastWaveCampaign(t)
	anonCfg := *c
	anonCfg.Config.Anonymize = true
	var buf bytes.Buffer
	if err := anonCfg.WriteDataset(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "100.6") || strings.Contains(out, "100.7") {
		t.Error("anonymized dataset leaks IP addresses")
	}
	if !strings.Contains(out, "host-1:") {
		t.Error("anonymized dataset missing sequence addresses")
	}
	if strings.Contains(out, `"subject_org":"Bachmann"`) {
		t.Error("anonymized dataset leaks certificate organizations")
	}
	recs, err := dataset.Read(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	// Reuse clusters must survive anonymization (thumbprints stay).
	analyses, _ := analyzeRecords(recs)
	clusters := analyses[len(analyses)-1].ReuseClustersAtLeast(3)
	if len(clusters) != 9 || clusters[0].Hosts != 385 {
		t.Errorf("anonymized reuse clusters = %v", clusters)
	}
}

func TestEndToEndReportRenders(t *testing.T) {
	c := lastWaveCampaign(t)
	tables := c.Report()
	if len(tables) != 11 {
		t.Fatalf("tables = %d, want 11", len(tables))
	}
	for _, tbl := range tables {
		text := tbl.Render()
		if len(text) == 0 || !strings.Contains(text, tbl.Title) {
			t.Errorf("table %q renders empty", tbl.Title)
		}
		if csv := tbl.CSV(); !strings.Contains(csv, ",") {
			t.Errorf("table %q CSV empty", tbl.Title)
		}
	}
}

func decodeDataset(t *testing.T, raw []byte) []*dataset.HostRecord {
	t.Helper()
	recs, err := dataset.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// recordBytes encodes records as a dataset.
func recordBytes(t *testing.T, recs []*dataset.HostRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dataset.Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCampaignWaveSelection pins the one place the wave selection is
// resolved (newCampaignRun), through both entry points: the selection
// runs ascending however it is arranged, and an out-of-range or
// repeated wave is an error before anything scans.
func TestCampaignWaveSelection(t *testing.T) {
	cfg := deltaTestConfig("")
	cfg.MaxHosts = 20
	world, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		waves   []int
		want    []int  // executed order
		wantErr string // substring; empty = success
	}{
		{waves: []int{7, 5, 6}, want: []int{5, 6, 7}},
		{waves: []int{9}, wantErr: "wave 9 out of range"},
		{waves: []int{3, -1}, wantErr: "wave -1 out of range"},
		{waves: []int{7, 7}, wantErr: "wave 7 selected more than once"},
		{waves: []int{6, 7, 6}, wantErr: "wave 6 selected more than once"},
	} {
		cfg.Waves = tc.waves
		c, err := RunCampaignOnWorld(context.Background(), cfg, world)
		var sink pipeline.SliceSink
		serr := RunCampaignShard(context.Background(), cfg, world, 1, 0, &sink)
		if tc.wantErr != "" {
			for _, e := range []error{err, serr} {
				if e == nil || !strings.Contains(e.Error(), tc.wantErr) {
					t.Errorf("waves %v: err = %v, want %q", tc.waves, e, tc.wantErr)
				}
			}
			if len(sink.Records) != 0 {
				t.Errorf("waves %v: %d records streamed despite the invalid selection", tc.waves, len(sink.Records))
			}
			continue
		}
		if err != nil || serr != nil {
			t.Fatalf("waves %v: %v / %v", tc.waves, err, serr)
		}
		var folded, streamed []int
		for _, a := range c.Long.Waves {
			folded = append(folded, a.Wave)
		}
		for _, r := range sink.Records {
			if len(streamed) == 0 || streamed[len(streamed)-1] != r.Wave {
				streamed = append(streamed, r.Wave)
			}
		}
		if !reflect.DeepEqual(folded, tc.want) || !reflect.DeepEqual(streamed, tc.want) {
			t.Errorf("waves %v: folded %v, streamed %v, want %v", tc.waves, folded, streamed, tc.want)
		}
	}
}

// TestCampaignRejectsOutOfRangeStudy: a noise probability outside
// [0, 1], NaN included, and a negative host count are errors through
// both entry points before anything scans; a NaN would otherwise run
// without noise and fail only in a fabric Hello.
func TestCampaignRejectsOutOfRangeStudy(t *testing.T) {
	cfg := deltaTestConfig("")
	cfg.MaxHosts = 20
	world, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		set  func(*CampaignConfig)
		want string
	}{
		{func(c *CampaignConfig) { c.NoiseProb = math.NaN() }, "noise probability NaN outside [0, 1]"},
		{func(c *CampaignConfig) { c.NoiseProb = -1e-5 }, "noise probability -1e-05 outside [0, 1]"},
		{func(c *CampaignConfig) { c.NoiseProb = 1.5 }, "noise probability 1.5 outside [0, 1]"},
		{func(c *CampaignConfig) { c.MaxHosts = -1 }, "MaxHosts -1 is negative"},
	} {
		bad := cfg
		tc.set(&bad)
		_, err := RunCampaignOnWorld(context.Background(), bad, world)
		var sink pipeline.SliceSink
		serr := RunCampaignShard(context.Background(), bad, world, 1, 0, &sink)
		for _, e := range []error{err, serr} {
			if e == nil || !strings.Contains(e.Error(), tc.want) {
				t.Errorf("err = %v, want %q", e, tc.want)
			}
		}
		if len(sink.Records) != 0 {
			t.Errorf("%d records streamed despite %q", len(sink.Records), tc.want)
		}
	}
}

// TestBadStudyBuildsNoWorld: RunCampaign and BuildWorld refuse a study no
// campaign can measure before they build anything — no "building world"
// line, no key image written — and return Study.Validate's error.
func TestBadStudyBuildsNoWorld(t *testing.T) {
	cache := t.TempDir()
	t.Setenv("XDG_CACHE_HOME", cache)
	for _, tc := range []struct {
		set  func(*CampaignConfig)
		want string
	}{
		{func(c *CampaignConfig) { c.Waves = []int{9} }, "wave 9 out of range"},
		{func(c *CampaignConfig) { c.Waves = []int{7, 7} }, "wave 7 selected more than once"},
		{func(c *CampaignConfig) { c.NoiseProb = math.NaN() }, "noise probability NaN outside [0, 1]"},
		{func(c *CampaignConfig) { c.MaxHosts = -1 }, "MaxHosts -1 is negative"},
	} {
		cfg := deltaTestConfig("")
		tc.set(&cfg)
		var lines []string
		cfg.Progressf = func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
		_, err := RunCampaign(context.Background(), cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("RunCampaign: err %v, want %q", err, tc.want)
		}
		if _, err := BuildWorld(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("BuildWorld: err %v, want %q", err, tc.want)
		}
		if len(lines) != 0 {
			t.Errorf("%q: a refused study printed %q", tc.want, lines)
		}
	}
	if entries, err := os.ReadDir(cache); err != nil || len(entries) != 0 {
		t.Errorf("refused studies left %v in the cache directory (%v)", entries, err)
	}
}

// TestCampaignRecordSinkStreamsDataset pins the streaming sink contract:
// records arrive at CampaignConfig.RecordSink in deterministic dataset
// order (identical to WriteDataset), and DiscardRecords leaves the
// compatibility view empty without changing the stream or the analyses.
func TestCampaignRecordSinkStreamsDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign sink test skipped in -short mode")
	}
	cfg := deltaTestConfig("")
	cfg.Waves = []int{6, 7}
	world := deltaFix.worldOf(t)
	var streamed bytes.Buffer
	sink := pipeline.NewEncoderSink(&streamed, false)
	withSink := cfg
	withSink.RecordSink = sink
	c, err := RunCampaignOnWorld(context.Background(), withSink, world)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	var written bytes.Buffer
	if err := c.WriteDataset(&written); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), written.Bytes()) {
		t.Errorf("sink stream (%d bytes) differs from WriteDataset (%d bytes)",
			streamed.Len(), written.Len())
	}

	discard := cfg
	discard.DiscardRecords = true
	var streamed2 bytes.Buffer
	sink2 := pipeline.NewEncoderSink(&streamed2, false)
	discard.RecordSink = sink2
	c2, err := RunCampaignOnWorld(context.Background(), discard, world)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink2.Close(); err != nil {
		t.Fatal(err)
	}
	if len(c2.RecordsByWave) != 0 {
		t.Errorf("DiscardRecords retained %d waves of records", len(c2.RecordsByWave))
	}
	if !bytes.Equal(streamed.Bytes(), streamed2.Bytes()) {
		t.Error("DiscardRecords changed the record stream")
	}
	if !reflect.DeepEqual(c.Analyses, c2.Analyses) {
		t.Error("DiscardRecords changed the analyses")
	}
}

// TestCampaignRecordSinkErrorAborts pins the documented abort contract:
// a failing RecordSink cancels the rest of the campaign (later waves
// end Partial or never start) and the sink's error — not the derived
// cancellation — is returned.
func TestCampaignRecordSinkErrorAborts(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign sink-abort test skipped in -short mode")
	}
	cfg := deltaTestConfig("")
	cfg.Waves, cfg.MaxHosts = []int{5, 6, 7}, 40
	world, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	puts := 0
	cfg.RecordSink = putFunc(func(*dataset.HostRecord) error {
		if puts++; puts >= 2 {
			return errors.New("backend gone")
		}
		return nil
	})
	c, err := RunCampaignOnWorld(context.Background(), cfg, world)
	if err == nil || !strings.Contains(err.Error(), "backend gone") {
		t.Fatalf("err = %v, want the sink's error", err)
	}
	if c == nil {
		t.Fatal("aborted campaign is nil")
	}
	if c.Long != nil {
		t.Error("longitudinal computed despite the sink abort")
	}
	// Wave 5's analysis completed before the abort; nothing after the
	// failing Put may have been analyzed.
	if len(c.Analyses) > 1 {
		t.Errorf("%d waves analyzed after the sink failed", len(c.Analyses))
	}
}

// cryptoTotal sums an engine snapshot's per-operation counters.
func cryptoTotal(s *uarsa.Stats) uarsa.OpStats {
	return uarsa.OpStats{
		Hits:   s.Sign.Hits + s.Verify.Hits + s.Decrypt.Hits + s.Encrypt.Hits,
		Misses: s.Sign.Misses + s.Verify.Misses + s.Decrypt.Misses + s.Encrypt.Misses,
	}
}

// analyzeRecords rebuilds per-wave analyses from loaded records, in any
// order, as AnalyzeDataset does from a stream.
func analyzeRecords(recs []*dataset.HostRecord) ([]*core.WaveAnalysis, *core.Longitudinal) {
	fold := newRecordFold()
	for _, r := range recs {
		fold.add(r)
	}
	return fold.finish()
}
