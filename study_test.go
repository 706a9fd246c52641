package opcuastudy

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fabric"
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
	cfg := CampaignConfig{
		Seed:         2020,
		Waves:        []int{5, 6, 7},
		TestKeySizes: true,
		MaxHosts:     60,
		NoiseProb:    1e-5,
		GrabWorkers:  8,
	}
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

	if a, b := datasetBytes(t, ahead), datasetBytes(t, step); !bytes.Equal(a, b) {
		t.Errorf("datasets differ: %d bytes vs %d bytes", len(a), len(b))
	}
	if !reflect.DeepEqual(ahead.Analyses, step.Analyses) {
		t.Error("wave analyses differ between scan-ahead and lock-step runs")
	}
	if !reflect.DeepEqual(ahead.Long, step.Long) {
		t.Error("longitudinal analysis differs between scan-ahead and lock-step runs")
	}
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
	productionThenReference(t, CampaignConfig{
		Seed:         2020,
		Waves:        []int{6, 7},
		TestKeySizes: true,
		MaxHosts:     60,
		NoiseProb:    1e-5,
		GrabWorkers:  8,
		Shards:       2,
	})
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
	cached, uncached := productionThenReference(t, CampaignConfig{
		Seed:         2020,
		Waves:        []int{5, 6, 7},
		TestKeySizes: true,
		MaxHosts:     320,
		NoiseProb:    1e-5,
		GrabWorkers:  8,
		Shards:       2,
	})
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
	if a, b := datasetBytes(t, prod), datasetBytes(t, ref); !bytes.Equal(a, b) {
		t.Errorf("datasets differ: %d bytes vs %d bytes", len(a), len(b))
	}
	if !reflect.DeepEqual(prod.Analyses, ref.Analyses) {
		t.Error("wave analyses differ between the production and reference runs")
	}
	if !reflect.DeepEqual(prod.Long, ref.Long) {
		t.Error("longitudinal analysis differs between the production and reference runs")
	}
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
// across the waves. Shared by the full-fidelity race gate and the
// 8-wave campaign benchmark so the numbers live in one place.
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

// TestCampaignConcurrentTelemetryMatchesDisabled is the tentpole
// acceptance gate for the telemetry subsystem: a two-shard campaign
// with the full observability surface live (registry, scoped
// instruments, exchange tracer) must produce a byte-identical dataset
// and identical analyses to the same campaign with telemetry disabled —
// observers never mutate campaign state. It also pins the accounting
// invariant (campaign_records equals the dataset record count, per wave
// and in total) and the determinism of exchange IDs. The name matches
// the CI race-run pattern 'TestCampaignConcurrent', so the observed run
// races its instrument updates against the snapshotting goroutine
// under -race.
func TestCampaignConcurrentTelemetryMatchesDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign equivalence skipped in -short mode")
	}
	cfg := CampaignConfig{
		Seed:         2020,
		Waves:        []int{6, 7},
		TestKeySizes: true,
		// The first ~250 hosts of the population ordering offer no secure
		// endpoints; 400 keeps the fixture small while still driving the
		// handshake instruments (policy/mode scopes, latency histogram).
		MaxHosts:    400,
		NoiseProb:   1e-5,
		GrabWorkers: 8,
		Shards:      2,
	}
	world, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunCampaignOnWorld(context.Background(), cfg, world)
	if err != nil {
		t.Fatal(err)
	}

	observed := cfg
	observed.Telemetry = telemetry.New()
	observed.Trace = telemetry.NewTracer(0)
	// A concurrent snapshotter reads the registry while the campaign
	// writes it: snapshots must never perturb the run (or trip -race).
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = observed.Telemetry.Snapshot()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	obs, err := RunCampaignOnWorld(context.Background(), observed, world)
	close(stop)
	snapWG.Wait()
	if err != nil {
		t.Fatal(err)
	}

	if a, b := datasetBytes(t, obs), datasetBytes(t, plain); !bytes.Equal(a, b) {
		t.Errorf("telemetry changed the dataset: %d bytes vs %d bytes", len(a), len(b))
	}
	if !reflect.DeepEqual(obs.Analyses, plain.Analyses) {
		t.Error("wave analyses differ with telemetry enabled")
	}
	if !reflect.DeepEqual(obs.Long, plain.Long) {
		t.Error("longitudinal analysis differs with telemetry enabled")
	}

	snap := observed.Telemetry.Snapshot()
	total := 0
	for _, w := range cfg.Waves {
		n := len(obs.RecordsByWave[w])
		total += n
		key := `campaign_records{wave="` + strconv.Itoa(w) + `"}`
		if got := snap.Counters[key]; got != uint64(n) {
			t.Errorf("%s = %d, want %d", key, got, n)
		}
	}
	if got := snap.CounterTotal("campaign_records"); got != uint64(total) {
		t.Errorf("campaign_records total = %d, want %d (every dataset record accounted)", got, total)
	}
	if snap.CounterTotal("handshake_attempts") == 0 {
		t.Error("no handshake attempts recorded")
	}
	if snap.CounterTotal("scan_probes") == 0 {
		t.Error("no scan probes recorded")
	}

	exchanges := observed.Trace.Exchanges()
	if len(exchanges) == 0 {
		t.Fatal("tracer recorded no exchanges")
	}
	for _, ex := range exchanges {
		if want := telemetry.ExchangeID(cfg.Seed, ex.Wave, ex.Address); ex.ID != want {
			t.Errorf("exchange %s wave %d: ID %d, want deterministic %d", ex.Address, ex.Wave, ex.ID, want)
		}
		if len(ex.Spans) == 0 {
			t.Errorf("exchange %s has no spans", ex.Address)
		}
	}
}

// TestCampaignConcurrentWavesCancellation pins the campaign's
// cancellation contract: cancelled while wave 6 scans, the campaign
// returns with wave 5 analyzed, wave 6 in Scans marked Partial and
// unanalyzed, and wave 7 absent — and never deadlocks (run under -race
// in CI).
func TestCampaignConcurrentWavesCancellation(t *testing.T) {
	cfg := CampaignConfig{
		Seed:         2020,
		Waves:        []int{5, 6, 7},
		TestKeySizes: true,
		MaxHosts:     40,
		NoiseProb:    1e-5,
		GrabWorkers:  4,
	}
	world, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Progressf = func(format string, args ...any) {
		if strings.Contains(format, "scanning") && args[0] == 6 {
			cancel()
		}
	}

	c, err := RunCampaignOnWorld(ctx, cfg, world)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c == nil {
		t.Fatal("cancelled campaign is nil; contract promises the partial campaign")
	}
	if c.Long != nil {
		t.Error("longitudinal analysis computed for a cancelled campaign")
	}
	if scan := c.Scans[5]; scan == nil || scan.Partial || c.RecordsByWave[5] == nil {
		t.Error("wave 5, scanned before the cancellation, is not complete and analyzed")
	}
	if scan := c.Scans[6]; scan == nil || !scan.Partial {
		t.Error("wave 6, in flight at the cancellation, is not in Scans marked Partial")
	}
	if _, analyzed := c.RecordsByWave[6]; analyzed {
		t.Error("partial wave 6 reached the dataset")
	}
	if scan := c.Scans[7]; scan != nil {
		t.Errorf("never-started wave 7 present in Scans (partial=%v)", scan.Partial)
	}
	if len(c.Analyses) != 1 || c.Analyses[0].Wave != 5 {
		t.Errorf("analyses of %d waves, want wave 5's only", len(c.Analyses))
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
	var buf bytes.Buffer
	if err := c.WriteDataset(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := dataset.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(c.RecordsByWave[7]) {
		t.Fatalf("dataset round trip: %d records, want %d", len(recs), len(c.RecordsByWave[7]))
	}
	// The analysis from the serialized dataset must match the live one.
	analyses, _ := analyzeRecords(recs)
	re := analyses[len(analyses)-1]
	w := c.LastWave()
	if re.Accessible != w.Accessible || re.NoneOnly != w.NoneOnly ||
		re.Anonymous != w.Anonymous || len(re.Servers) != len(w.Servers) {
		t.Errorf("re-analysis differs: %d/%d/%d/%d vs %d/%d/%d/%d",
			re.Accessible, re.NoneOnly, re.Anonymous, len(re.Servers),
			w.Accessible, w.NoneOnly, w.Anonymous, len(w.Servers))
	}
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

// TestShardedCampaignByteIdentical is the PR 5 acceptance gate for the
// sharded record pipeline: campaigns that shard every wave's permuted
// probe space 1, 2 and 5 ways in-process — and 5 ways across four
// cmd/measure fabric worker subprocesses — must produce byte-identical
// datasets and identical WaveAnalysis/Longitudinal output versus the
// unsharded single-process run. The in-process variants share one
// world (thumbprints must agree by construction); the subprocess
// workers each rebuild the world, so they additionally prove the
// deterministic materialization. Run under -race this also exercises
// the concurrent shard execution. (The per-shard streams of
// RunCampaignShard are pinned in-process by
// TestShardedCampaignShardStreams.)
func TestShardedCampaignByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded campaign equivalence skipped in -short mode")
	}
	cfg := CampaignConfig{
		Seed:         2020,
		Waves:        []int{6, 7},
		TestKeySizes: true,
		MaxHosts:     60,
		NoiseProb:    1e-5,
		GrabWorkers:  8,
	}
	world, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := RunCampaignOnWorld(context.Background(), cfg, world)
	if err != nil {
		t.Fatal(err)
	}
	want := datasetBytes(t, baseline)

	for _, shards := range []int{1, 2, 5} {
		sharded := cfg
		sharded.Shards = shards
		run, err := RunCampaignOnWorld(context.Background(), sharded, world)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got := datasetBytes(t, run); !bytes.Equal(got, want) {
			t.Errorf("shards=%d: dataset differs from unsharded (%d vs %d bytes)",
				shards, len(got), len(want))
		}
		if !reflect.DeepEqual(run.Analyses, baseline.Analyses) {
			t.Errorf("shards=%d: wave analyses differ from unsharded", shards)
		}
		if !reflect.DeepEqual(run.Long, baseline.Long) {
			t.Errorf("shards=%d: longitudinal analysis differs from unsharded", shards)
		}
		for _, w := range cfg.Waves {
			scan := run.Scans[w]
			if scan == nil || scan.Partial {
				t.Fatalf("shards=%d wave %d: scan missing or partial", shards, w)
			}
			if scan.OpenPorts != baseline.Scans[w].OpenPorts {
				t.Errorf("shards=%d wave %d: open ports %d, want %d",
					shards, w, scan.OpenPorts, baseline.Scans[w].OpenPorts)
			}
		}
	}

	// Network fabric round trip (PR 8): an in-process coordinator leases
	// 5 shards over TCP to four measure subprocess workers. One worker is
	// killed abruptly mid-shard (its partial stream must be discarded and
	// the shard re-queued); another stalls mid-shard with the connection
	// held open (only the heartbeat deadline can notice — the lease must
	// expire). The merged campaign must stay byte-identical regardless.
	bin := buildMeasure(t)
	const netShards = 5
	deadAfter := 1 * time.Second
	spec := cfg.FabricSpec(netShards, 25*time.Millisecond)
	hello, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	coord := fabric.NewCoordinator(ln, fabric.CoordinatorConfig{
		Shards:    netShards,
		Hello:     hello,
		DeadAfter: deadAfter,
		Metrics:   reg,
		Logf:      t.Logf,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	workerFaults := []string{"kill=3", "stall=2", "", ""}
	var stderrs []*bytes.Buffer
	var cmds []*exec.Cmd
	for i, fault := range workerFaults {
		args := []string{
			"-connect", ln.Addr().String(),
			"-name", "net-w" + strconv.Itoa(i),
			"-heartbeat", "25ms",
		}
		if fault != "" {
			args = append(args, "-fault", fault)
		}
		cmd := exec.CommandContext(ctx, bin, args...)
		buf := new(bytes.Buffer)
		cmd.Stderr = buf
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting fabric worker %d: %v", i, err)
		}
		stderrs = append(stderrs, buf)
		cmds = append(cmds, cmd)
	}
	streams, err := coord.Run(ctx)
	// The campaign is over. The stalled worker, declared dead, is now
	// reconnecting to a closed listener and would spend its whole dial
	// budget — 20 s of seeded backoff — before exiting; what this gate
	// needs from it (the heartbeat gap, the re-queued lease) is asserted
	// on the coordinator's counters below, so it is not waited for.
	const stalled = 1
	cmds[stalled].Process.Kill()
	for i, cmd := range cmds {
		werr := cmd.Wait()
		// The killed worker must die (nonzero exit). The clean workers
		// exit cleanly at shutdown — except one caught between sessions
		// when the campaign ends, which legitimately exhausts its dial
		// budget against the closed listener.
		if i == 0 && werr == nil {
			t.Errorf("fabric worker %d (-fault kill) exited cleanly", i)
		}
		if i > stalled && werr != nil &&
			!strings.Contains(stderrs[i].String(), "consecutive dial failures") {
			t.Errorf("fabric worker %d exited: %v\n%s", i, werr, stderrs[i].Bytes())
		}
	}
	if err != nil {
		for i, buf := range stderrs {
			t.Logf("fabric worker %d stderr:\n%s", i, buf.Bytes())
		}
		t.Fatalf("fabric coordinator: %v", err)
	}

	decoders := make([]*dataset.Decoder, len(streams))
	for i, s := range streams {
		decoders[i] = dataset.NewDecoder(bytes.NewReader(s))
	}
	var slice pipeline.SliceSink
	if err := pipeline.MergeShardStreams(&slice, decoders...); err != nil {
		t.Fatalf("merging fabric streams: %v", err)
	}
	var buf bytes.Buffer
	if err := dataset.Write(&buf, slice.Records); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("fabric: merged dataset differs from unsharded (%d vs %d bytes)",
			buf.Len(), len(want))
	}
	analyses, long := analyzeRecords(slice.Records)
	wantAnalyses, wantLong := analyzeRecords(decodeDataset(t, want))
	if !reflect.DeepEqual(analyses, wantAnalyses) {
		t.Error("fabric: re-analyses differ")
	}
	if !reflect.DeepEqual(long, wantLong) {
		t.Error("fabric: longitudinal differs")
	}

	// The failure machinery must actually have fired: two workers died
	// (broken stream + heartbeat expiry), their shards re-queued, and
	// the stall was visible as a heartbeat gap past the threshold.
	if got := reg.Counter("fabric_workers_dead").Load(); got < 2 {
		t.Errorf("fabric_workers_dead = %d, want >= 2 (kill + stall)", got)
	}
	if got := reg.Counter("fabric_leases_requeued").Load(); got < 2 {
		t.Errorf("fabric_leases_requeued = %d, want >= 2", got)
	}
	if gap := reg.MaxGauge("fabric_heartbeat_gap_ns").Load(); gap <= deadAfter.Nanoseconds() {
		t.Errorf("fabric_heartbeat_gap_ns = %d, want > %d (stall must exceed the lease deadline)",
			gap, deadAfter.Nanoseconds())
	}
	if got := reg.Counter("fabric_shards_committed").Load(); got != netShards {
		t.Errorf("fabric_shards_committed = %d, want %d", got, netShards)
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

// TestShardedCampaignShardStreams is the executor differential: on one
// world, RunCampaignShard for every shard of a 2- and a 5-shard plan,
// each into its own in-memory NDJSON stream, merged by
// pipeline.MergeShardStreams, must equal RunCampaignOnWorld's dataset
// byte for byte — the polite full scan, the delta campaign, and a
// chaos-mixed wave 7 on two shards. Both entry points run the same scanWave; this pins
// that what they do with its records agrees. Under Delta every shard
// owns a tracker over its own stream, and the per-shard registries must
// reconcile: one fallback wave each, clones in every shard, and at
// least as many records emitted as survive the merge's dedup.
func TestShardedCampaignShardStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded campaign equivalence skipped in -short mode")
	}
	full := CampaignConfig{
		Seed:         2020,
		Waves:        []int{4, 5, 6, 7},
		TestKeySizes: true,
		MaxHosts:     60,
		NoiseProb:    1e-5,
		GrabWorkers:  8,
	}
	world, err := BuildWorld(full)
	if err != nil {
		t.Fatal(err)
	}
	delta := full
	delta.Delta = true
	for _, tc := range []struct {
		name   string
		cfg    CampaignConfig
		shards []int
	}{
		{"full", full, []int{2, 5}},
		{"delta", delta, []int{2, 5}},
		{"chaos_mixed", chaosTestConfig("mixed"), []int{2, 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := tc.cfg
			ref.Delta = false
			baseline, err := RunCampaignOnWorld(context.Background(), ref, world)
			if err != nil {
				t.Fatal(err)
			}
			want := datasetBytes(t, baseline)

			for _, shards := range tc.shards {
				streams := make([]bytes.Buffer, shards)
				regs := make([]*telemetry.Registry, shards)
				errs := make([]error, shards)
				var wg sync.WaitGroup
				for s := range streams {
					regs[s] = telemetry.New()
					wg.Add(1)
					go func() {
						defer wg.Done()
						cfg := tc.cfg
						cfg.Telemetry = regs[s]
						sink := pipeline.NewEncoderSink(&streams[s], false)
						errs[s] = RunCampaignShard(context.Background(), cfg, world, shards, s, sink)
						if errs[s] == nil {
							errs[s] = sink.Close()
						}
					}()
				}
				wg.Wait()
				decoders := make([]*dataset.Decoder, shards)
				for s := range streams {
					if errs[s] != nil {
						t.Fatalf("shards=%d shard %d: %v", shards, s, errs[s])
					}
					decoders[s] = dataset.NewDecoder(&streams[s])
				}
				var merged pipeline.SliceSink
				if err := pipeline.MergeShardStreams(&merged, decoders...); err != nil {
					t.Fatalf("shards=%d: merging shard streams: %v", shards, err)
				}
				if got := recordBytes(t, merged.Records); !bytes.Equal(got, want) {
					t.Errorf("shards=%d: merged shard streams differ from RunCampaignOnWorld (%d vs %d bytes)",
						shards, len(got), len(want))
				}

				var emitted uint64
				for s, reg := range regs {
					snap := reg.Snapshot()
					emitted += snap.CounterTotal("campaign_records")
					if !tc.cfg.Delta {
						continue
					}
					if got := snap.CounterTotal("wave_delta_fallbacks"); got != 1 {
						t.Errorf("shards=%d shard %d: wave_delta_fallbacks = %d, want 1 (first wave only)", shards, s, got)
					}
					if snap.CounterTotal("wave_delta_hits") == 0 {
						t.Errorf("shards=%d shard %d: no delta hits — fingerprints never matched", shards, s)
					}
				}
				if emitted < uint64(len(merged.Records)) {
					t.Errorf("shards=%d: shards emitted %d records, fewer than the %d merged",
						shards, emitted, len(merged.Records))
				}
			}
		})
	}
}

// TestCampaignConcurrentShardsOwnEngine runs two leases of one campaign
// on one world at once, as a fabric's in-process workers do: shards 0
// and 1 of 2, each with its own registry, released together by a
// barrier. Each lease must handshake through its own engine on both ends
// of the wire — the server answering a lease's client finds the decrypt
// entry that client's encryption seeded, so neither registry reads a
// decrypt miss — and each stream must equal the same shard run alone.
func TestCampaignConcurrentShardsOwnEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent shard campaigns skipped in -short mode")
	}
	world := execWorld(t)
	const shards = 2
	run := func(shard int, reg *telemetry.Registry, start <-chan struct{}) ([]*dataset.HostRecord, error) {
		cfg := execFixture()
		cfg.Telemetry = reg
		var stream pipeline.SliceSink
		<-start
		err := RunCampaignShard(context.Background(), cfg, world, shards, shard, &stream)
		return stream.Records, err
	}
	open := make(chan struct{})
	close(open)
	alone := make([][]byte, shards)
	for s := range alone {
		recs, err := run(s, nil, open)
		if err != nil {
			t.Fatalf("shard %d alone: %v", s, err)
		}
		alone[s] = recordBytes(t, recs)
	}

	regs := make([]*telemetry.Registry, shards)
	recs := make([][]*dataset.HostRecord, shards)
	errs := make([]error, shards)
	barrier := make(chan struct{})
	var wg sync.WaitGroup
	for s := range regs {
		regs[s] = telemetry.New()
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[s], errs[s] = run(s, regs[s], barrier)
		}()
	}
	close(barrier)
	wg.Wait()
	for s, reg := range regs {
		if errs[s] != nil {
			t.Fatalf("shard %d: %v", s, errs[s])
		}
		snap := reg.Snapshot()
		if got := snap.CounterTotal("crypto_encrypt_misses"); got == 0 {
			t.Errorf("shard %d: no OPN ciphertext computed — the fixture does no RSA", s)
		}
		if got := snap.CounterTotal("crypto_decrypt_misses"); got != 0 {
			t.Errorf("shard %d: crypto_decrypt_misses = %d, want 0 (a server decrypted through another lease's engine)", s, got)
		}
		if got := recordBytes(t, recs[s]); !bytes.Equal(got, alone[s]) {
			t.Errorf("shard %d: stream differs from the shard run alone (%d vs %d bytes)", s, len(got), len(alone[s]))
		}
	}
}

// TestCampaignWaveSelection pins the one place the wave selection is
// resolved (newCampaignRun), through both entry points: the selection
// runs ascending however it is arranged, and an out-of-range or
// repeated wave is an error before anything scans.
func TestCampaignWaveSelection(t *testing.T) {
	cfg := CampaignConfig{
		Seed:         2020,
		TestKeySizes: true,
		MaxHosts:     20,
		NoiseProb:    1e-5,
		GrabWorkers:  8,
	}
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

// TestShardedCampaignCancellation extends the cancellation contract to
// in-process sharded waves: a cancellation mid-wave yields a partial
// wave assembled from the shards' completed grabs (no analysis of the
// partial wave, no deadlock, no poisoned merge).
func TestShardedCampaignCancellation(t *testing.T) {
	cfg := CampaignConfig{
		Seed:         2020,
		Waves:        []int{7},
		TestKeySizes: true,
		MaxHosts:     40,
		NoiseProb:    1e-5,
		GrabWorkers:  4,
		Shards:       2,
	}
	world, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	world.Net.SetLatency(25 * time.Millisecond)
	defer world.Net.SetLatency(0)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Progressf = func(format string, args ...any) {
		if strings.Contains(format, "scanning") {
			time.AfterFunc(150*time.Millisecond, cancel)
		}
	}
	c, err := RunCampaignOnWorld(ctx, cfg, world)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	scan := c.Scans[7]
	if scan == nil || !scan.Partial {
		t.Fatalf("cancelled sharded wave: scan = %+v, want partial", scan)
	}
	if len(c.Analyses) != 0 {
		t.Error("partial sharded wave was analyzed")
	}
	if c.Long != nil {
		t.Error("longitudinal computed for a cancelled campaign")
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
	cfg := CampaignConfig{
		Seed:         2020,
		Waves:        []int{6, 7},
		TestKeySizes: true,
		MaxHosts:     40,
		NoiseProb:    1e-5,
		GrabWorkers:  8,
	}
	world, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
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

// failingSink fails its second Put.
type failingSink struct{ puts int }

func (f *failingSink) Put(*dataset.HostRecord) error {
	f.puts++
	if f.puts >= 2 {
		return errors.New("backend gone")
	}
	return nil
}
func (f *failingSink) Close() error { return nil }

// TestCampaignRecordSinkErrorAborts pins the documented abort contract:
// a failing RecordSink cancels the rest of the campaign (later waves
// end Partial or never start) and the sink's error — not the derived
// cancellation — is returned.
func TestCampaignRecordSinkErrorAborts(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign sink-abort test skipped in -short mode")
	}
	cfg := CampaignConfig{
		Seed:         2020,
		Waves:        []int{5, 6, 7},
		TestKeySizes: true,
		MaxHosts:     40,
		NoiseProb:    1e-5,
		GrabWorkers:  8,
	}
	world, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := &failingSink{}
	cfg.RecordSink = sink
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
