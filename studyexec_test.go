package opcuastudy

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/deploy"
	"repro/internal/fabric"
	"repro/internal/pipeline"
	"repro/internal/scanner"
	"repro/internal/study"
	"repro/internal/telemetry"
)

// A campaign is two values: what it measures, study.Study, and how it
// runs — every other exported CampaignConfig field, listed once in
// execTable. The tests below turn that split into checked statements:
// each field is in exactly one half, every Study field reaches
// CampaignConfig.Study, its ID and the fabric Hello, and no Exec value,
// shard transport, fabric fault or cancellation point changes a record
// byte.

// tookFunc proves, on a finished campaign and the reference run's, that
// an Exec row's value changed how the campaign ran: an invariance that
// holds because a setting was ignored would prove nothing.
type tookFunc = func(t *testing.T, c, ref *Campaign)

// execRow is one value of an Exec field. set applies it on top of the
// fixture — some rows add a Trace, a Telemetry registry or a Progressf,
// themselves Exec, to observe it; rows combined in one case share them
// — and returns the row's proof that the value took effect.
type execRow struct {
	field, value string
	set          func(t *testing.T, cfg *CampaignConfig) tookFunc
}

func (r execRow) String() string { return r.field + "=" + r.value }

// execTable is the Exec half: every exported CampaignConfig field that
// is not a study.Study field, with one row per value the invariance test
// runs.
var execTable = []execRow{
	{"GrabWorkers", "1", func(t *testing.T, cfg *CampaignConfig) tookFunc {
		cfg.GrabWorkers = 1
		tr := tracerOf(cfg)
		return func(t *testing.T, _, _ *Campaign) {
			for w, spans := range grabSpans(tr) {
				for i := 1; i < len(spans); i++ {
					if spans[i][0] < spans[i-1][1] {
						t.Fatalf("wave %d: two grabs in flight at once", w)
					}
				}
			}
		}
	}},
	deltaRow,
	shardsRow(3),
	{"RecordSink", "EncoderSink", func(t *testing.T, cfg *CampaignConfig) tookFunc {
		var buf bytes.Buffer
		enc := pipeline.NewEncoderSink(&buf, false)
		cfg.RecordSink = pipeline.Tee(cfg.RecordSink, enc)
		return func(t *testing.T, c, _ *Campaign) {
			if err := enc.Close(); err != nil || !bytes.Equal(buf.Bytes(), datasetBytes(t, c)) {
				t.Errorf("the encoder sink wrote %d bytes (%v), not the dataset", buf.Len(), err)
			}
		}
	}},
	{"DiscardRecords", "true", func(t *testing.T, cfg *CampaignConfig) tookFunc {
		cfg.DiscardRecords = true
		return func(t *testing.T, c, _ *Campaign) {
			if len(c.RecordsByWave) != 0 {
				t.Errorf("DiscardRecords retained %d waves", len(c.RecordsByWave))
			}
		}
	}},
	// Anonymize rewrites the export only, never the measured stream.
	{"Anonymize", "true", func(t *testing.T, cfg *CampaignConfig) tookFunc {
		cfg.Anonymize = true
		return func(t *testing.T, c, ref *Campaign) {
			if bytes.Equal(datasetBytes(t, c), datasetBytes(t, ref)) {
				t.Error("Anonymize left the exported dataset raw")
			}
		}
	}},
	{"Progressf", "capture", func(t *testing.T, cfg *CampaignConfig) tookFunc {
		var lines []string
		cfg.Progressf = func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
		return func(t *testing.T, _, _ *Campaign) {
			if !slices.ContainsFunc(lines, func(l string) bool { return strings.HasPrefix(l, "wave 7: ") }) {
				t.Errorf("no wave 7 line in %q", lines)
			}
		}
	}},
	telemetryRow,
	{"Trace", "tracer", func(t *testing.T, cfg *CampaignConfig) tookFunc {
		tr := tracerOf(cfg)
		// Shards may both grab a referenced host; the merge keeps one.
		return func(t *testing.T, c, _ *Campaign) {
			grabs, traced := 0, map[uint64]bool{}
			for _, scan := range c.Scans {
				grabs += len(scan.Results)
			}
			for _, ex := range tr.Exchanges() {
				if traced[ex.ID] = true; ex.ID != telemetry.ExchangeID(c.Config.Seed, ex.Wave, ex.Address) || len(ex.Spans) == 0 {
					t.Fatalf("exchange %s wave %d: ID %d not (seed, wave, address)'s, or %d spans", ex.Address, ex.Wave, ex.ID, len(ex.Spans))
				}
			}
			if len(traced) != grabs || grabs == 0 {
				t.Errorf("traced %d exchanges for %d grabs", len(traced), grabs)
			}
		}
	}},
}

// deltaRow's proof is the delta counters' accounting, wave by wave: the
// first selected wave falls back to a full scan and counts nothing
// else; every later one counts its grabs as misses and its cloned
// records as hits, clones something, and grabs fewer hosts than it
// records.
var deltaRow = execRow{"Delta", "true", func(t *testing.T, cfg *CampaignConfig) tookFunc {
	cfg.Delta = true
	reg := registryOf(cfg)
	return func(t *testing.T, c, _ *Campaign) {
		snap := reg.Snapshot()
		for pos, w := range c.Config.Study().Waves {
			counter := func(name string) int { return int(snap.Counters[name+`{wave="`+strconv.Itoa(w)+`"}`]) }
			got := [3]int{counter("wave_delta_fallbacks"), counter("wave_delta_misses"), counter("wave_delta_hits")}
			scan, recs := c.Scans[w], len(c.RecordsByWave[w])
			want := [3]int{1, 0, 0}
			if pos > 0 {
				want = [3]int{0, len(scan.Results), recs - len(scan.DatasetResults())}
			}
			if got != want || pos > 0 && (want[2] == 0 || want[1] >= recs) {
				t.Errorf("wave %d: delta fallbacks, misses, hits %v, want %v of %d records", w, got, want, recs)
			}
		}
	}
}}

// shardsRow's proof is the grab queue: an unsharded wave queues every
// port-scan target at once, a shard its own share, so on the wave with
// the most targets the queue's high-water mark reaches them only with
// one shard.
func shardsRow(n int) execRow {
	return execRow{"Shards", strconv.Itoa(n), func(t *testing.T, cfg *CampaignConfig) tookFunc {
		cfg.Shards = n
		reg := registryOf(cfg)
		return func(t *testing.T, c, _ *Campaign) {
			widest, targets := 0, 0
			for w, scan := range c.Scans {
				if k := len(slices.DeleteFunc(slices.Clone(scan.Results), func(r *scanner.Result) bool { return r.Via != scanner.ViaPortScan })); k > targets {
					widest, targets = w, k
				}
			}
			depth := reg.Snapshot().Max[`grab_queue_depth{wave="`+strconv.Itoa(widest)+`"}`]
			if depth <= 0 || (int(depth) >= targets) != (n == 1) {
				t.Errorf("wave %d: grab queue depth %d against %d port-scan targets at %d shards", widest, depth, targets, n)
			}
		}
	}}
}

// telemetryRow snapshots the registry from another goroutine while the
// campaign writes it. Its proof is the accounting: campaign_records
// counts every record under its wave and grab_failures every failure
// record under its wave and class, and nothing else; the probe and
// handshake instruments ticked; and a polite study retried nothing.
var telemetryRow = execRow{"Telemetry", "registry", func(t *testing.T, cfg *CampaignConfig) tookFunc {
	reg := registryOf(cfg)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				reg.Snapshot()
			}
		}
	}()
	t.Cleanup(func() { close(stop); <-done })
	return func(t *testing.T, c, _ *Campaign) {
		want, got := map[string]uint64{}, map[string]uint64{}
		for w, recs := range c.RecordsByWave {
			wave := `{wave="` + strconv.Itoa(w)
			want["campaign_records"+wave+`"}`] = uint64(len(recs))
			for _, r := range recs {
				if r.FailureClass != "" {
					want["grab_failures"+wave+`",class="`+r.FailureClass+`"}`]++
				}
			}
		}
		snap := reg.Snapshot()
		for k, v := range snap.Counters {
			if strings.HasPrefix(k, "campaign_records{") || strings.HasPrefix(k, "grab_failures{") {
				got[k] = v
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("record and failure counters %v, the dataset's %v", got, want)
		}
		if snap.CounterTotal("handshake_attempts") == 0 || snap.CounterTotal("scan_probes") == 0 {
			t.Error("no handshake attempts or no scan probes recorded")
		}
		if retried := snap.CounterTotal("grab_retries") > 0; retried != (c.Config.ChaosProfile != "") {
			t.Errorf("grab_retries > 0 is %v under chaos profile %q", retried, c.Config.ChaosProfile)
		}
	}
}}

// registryOf and tracerOf return the configuration's registry and
// tracer, installing fresh ones first, so rows combined in one case
// observe the same run.
func registryOf(cfg *CampaignConfig) *telemetry.Registry {
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.New()
	}
	return cfg.Telemetry
}

func tracerOf(cfg *CampaignConfig) *telemetry.Tracer {
	if cfg.Trace == nil {
		cfg.Trace = telemetry.NewTracer(0)
	}
	return cfg.Trace
}

// grabSpans returns every traced grab's wall-clock extent — its first
// span's start to its last span's end — by wave, sorted by start.
func grabSpans(tr *telemetry.Tracer) map[int][][2]int64 {
	byWave := map[int][][2]int64{}
	for _, ex := range tr.Exchanges() {
		if len(ex.Spans) > 0 {
			last := ex.Spans[len(ex.Spans)-1]
			byWave[ex.Wave] = append(byWave[ex.Wave], [2]int64{ex.Spans[0].StartUnixNs, last.StartUnixNs + last.DurNs})
		}
	}
	for _, spans := range byWave {
		slices.SortFunc(spans, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	}
	return byWave
}

// TestCampaignConfigFieldsClassified pins the split itself: every
// exported CampaignConfig field is either a study.Study field of the same
// name and type or an execTable row — never neither, never both — and
// every Study field has its CampaignConfig twin.
func TestCampaignConfigFieldsClassified(t *testing.T) {
	exec := map[string]bool{}
	for _, row := range execTable {
		exec[row.field] = true
	}
	cfgT, studyT := reflect.TypeFor[CampaignConfig](), reflect.TypeFor[study.Study]()
	var hooks []string
	for i := 0; i < cfgT.NumField(); i++ {
		f := cfgT.Field(i)
		sf, inStudy := studyT.FieldByName(f.Name)
		switch {
		case !f.IsExported():
			hooks = append(hooks, f.Name)
		case inStudy && exec[f.Name]:
			t.Errorf("CampaignConfig.%s is in Study and in execTable", f.Name)
		case inStudy && sf.Type != f.Type:
			t.Errorf("CampaignConfig.%s is %s, Study.%s %s", f.Name, f.Type, f.Name, sf.Type)
		case !inStudy && !exec[f.Name]:
			t.Errorf("CampaignConfig.%s is in neither Study nor execTable", f.Name)
		}
		delete(exec, f.Name)
	}
	for name := range exec {
		t.Errorf("execTable row %s names no CampaignConfig field", name)
	}
	for i := 0; i < studyT.NumField(); i++ {
		if _, ok := cfgT.FieldByName(studyT.Field(i).Name); !ok {
			t.Errorf("Study.%s has no CampaignConfig twin", studyT.Field(i).Name)
		}
	}
	// The one test hook is in neither half: only single-process tests
	// set it. reference is the run every optimisation is compared
	// against, and it changes no record byte.
	if want := []string{"reference"}; !slices.Equal(hooks, want) {
		t.Errorf("unexported CampaignConfig fields %v, want just the test hook %v", hooks, want)
	}
}

// TestStudyPerturbation perturbs each Study field in turn: the change
// must reach cfg.Study() and flip its ID, and survive the fabric Hello
// round trip with its ID and this build. No Exec row moves the ID, and
// spellings the campaign treats as equal give one study.
func TestStudyPerturbation(t *testing.T) {
	base := execFixture("")
	chaotic := execFixture("mixed")
	rows := []struct {
		field string
		base  CampaignConfig
		set   func(*CampaignConfig)
	}{
		{"Seed", base, func(c *CampaignConfig) { c.Seed = 2021 }},
		{"Waves", base, func(c *CampaignConfig) { c.Waves = []int{5, 6, 7} }},
		{"TestKeySizes", base, func(c *CampaignConfig) { c.TestKeySizes = false }},
		{"NoiseProb", base, func(c *CampaignConfig) { c.NoiseProb = 2e-5 }},
		{"MaxHosts", base, func(c *CampaignConfig) { c.MaxHosts = 321 }},
		{"ChaosProfile", base, func(c *CampaignConfig) { c.ChaosProfile = "tarpit" }},
		{"ChaosSeed", chaotic, func(c *CampaignConfig) { c.ChaosSeed = 7 }},
	}
	covered := map[string]bool{}
	for _, row := range rows {
		covered[row.field] = true
	}
	studyT := reflect.TypeFor[study.Study]()
	for i := 0; i < studyT.NumField(); i++ {
		if !covered[studyT.Field(i).Name] {
			t.Errorf("Study.%s has no perturbation row", studyT.Field(i).Name)
		}
	}
	for _, row := range rows {
		t.Run(row.field, func(t *testing.T) {
			cfg := row.base
			row.set(&cfg)
			was, is := row.base.Study(), cfg.Study()
			if reflect.DeepEqual(was, is) {
				t.Fatalf("Study() did not change: %+v", is)
			}
			if was.ID() == is.ID() {
				t.Fatalf("ID did not change: %s", is.ID())
			}
			spec := cfg.FabricSpec(4, time.Second)
			hello, err := spec.Encode()
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := fabric.DecodeSpec(hello)
			if err != nil {
				t.Fatal(err)
			}
			if got := CampaignFromSpec(*decoded).Study(); !reflect.DeepEqual(got, is) || got.ID() != is.ID() {
				t.Errorf("Hello round trip: %+v (%s), want %+v (%s)", got, got.ID(), is, is.ID())
			}
			if decoded.Build != study.CurrentBuild {
				t.Errorf("Hello round trip: build %+v, want %+v", decoded.Build, study.CurrentBuild)
			}
		})
	}

	for _, row := range execTable {
		cfg := base
		row.set(t, &cfg)
		if got, want := cfg.Study().ID(), base.Study().ID(); got != want {
			t.Errorf("%s moved the study's ID: %s, want %s", row, got, want)
		}
	}

	all := make([]int, len(deploy.WaveDates))
	for i := range all {
		all[i] = i
	}
	descending := slices.Clone(all)
	slices.Reverse(descending)
	spell := func(set func(*CampaignConfig)) study.Study {
		cfg := base
		set(&cfg)
		return cfg.Study()
	}
	for name, spellings := range map[string][]study.Study{
		"Waves nil, 0-7, 7-0": {
			spell(func(c *CampaignConfig) { c.Waves = nil }),
			spell(func(c *CampaignConfig) { c.Waves = all }),
			spell(func(c *CampaignConfig) { c.Waves = descending }),
		},
		"ChaosSeed 0 and Seed under a profile": {
			spell(func(c *CampaignConfig) { c.ChaosProfile, c.ChaosSeed = "mixed", 0 }),
			spell(func(c *CampaignConfig) { c.ChaosProfile, c.ChaosSeed = "mixed", c.Seed }),
		},
		"ChaosSeed 5 and 0 without a profile": {
			spell(func(c *CampaignConfig) { c.ChaosSeed = 5 }),
			spell(func(c *CampaignConfig) { c.ChaosSeed = 0 }),
		},
		"NoiseProb 0 and the world's default": {
			spell(func(c *CampaignConfig) { c.NoiseProb = 0 }),
			spell(func(c *CampaignConfig) { c.NoiseProb = deploy.DefaultNoiseProb }),
		},
		"MaxHosts 0, the population and more": {
			spell(func(c *CampaignConfig) { c.MaxHosts = 0 }),
			spell(func(c *CampaignConfig) { c.MaxHosts = deploy.NumServers }),
			spell(func(c *CampaignConfig) { c.MaxHosts = 5000 }),
		},
	} {
		for _, s := range spellings[1:] {
			if !reflect.DeepEqual(s, spellings[0]) {
				t.Errorf("%s: %+v != %+v", name, s, spellings[0])
			}
		}
	}
}

// TestExecInvariance is the differential oracle. A case runs one
// fixture study, polite and under chaos profile mixed, with Exec rows
// applied (none: the production defaults) over a transport —
// RunCampaignOnWorld, RunCampaignShard streams merged by
// pipeline.MergeShardStreams, or the fabric on loopback, faulted or
// not — and perhaps cancelled. It is held to the one reference campaign
// of its (fixture, column) on the fixture's shared world
// (CampaignConfig.reference: no memo engine, fresh randomness, every
// response encoded structurally): the same sink stream, WriteDataset
// bytes and analyses — up to the cancelled wave — and the proof that
// each row, transport and fault took effect. A difference is reported
// at its first divergent record: wave, address, exchange ID, field path.
func TestExecInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("Exec invariance campaigns skipped in -short mode")
	}
	refs := map[*fixture][]*reference{}
	for _, fix := range []*fixture{execFix, deltaFix} {
		for _, profile := range profiles {
			refs[fix] = append(refs[fix], newReference(t, fix, profile))
		}
	}
	for _, tc := range execCases() {
		t.Run(tc.String(), func(t *testing.T) {
			for i, profile := range profiles {
				t.Run(cmp.Or(profile, "polite"), func(t *testing.T) { tc.check(t, profile, refs[tc.fix][i]) })
			}
		})
	}
}

// profiles are the chaos columns every case runs under.
var profiles = []string{"", "mixed"}

func execCases() []execCase {
	cases := []execCase{{fix: execFix}}
	for _, row := range execTable {
		cases = append(cases, execCase{fix: execFix, rows: []execRow{row}})
	}
	return append(cases,
		execCase{fix: execFix, rows: []execRow{shardsRow(2), telemetryRow, execTable[len(execTable)-1]}},
		execCase{fix: execFix, via: shardStreams{2}},
		execCase{fix: execFix, via: shardStreams{5}},
		execCase{fix: execFix, via: fabricRun{}},
		execCase{fix: execFix, via: fabricRun{"kill"}},
		execCase{fix: execFix, via: fabricRun{"stall"}},
		execCase{fix: execFix, via: fabricRun{"drop"}},
		execCase{fix: deltaFix},
		execCase{fix: deltaFix, rows: []execRow{deltaRow, shardsRow(1)}},
		execCase{fix: deltaFix, rows: []execRow{deltaRow, shardsRow(4)}},
		execCase{fix: deltaFix, rows: []execRow{deltaRow}, via: shardStreams{2}},
		execCase{fix: deltaFix, rows: []execRow{deltaRow}, via: shardStreams{5}},
		execCase{fix: deltaFix, rows: []execRow{deltaRow}, via: fabricRun{}},
		execCase{fix: deltaFix, cancel: true},
		execCase{fix: deltaFix, rows: []execRow{shardsRow(4)}, cancel: true},
	)
}

// A fixture is one study as a function of its chaos profile, with the
// world every case of it shares.
type fixture struct {
	name  string // "" keeps the Exec table's case names
	study func(profile string) CampaignConfig
	once  sync.Once
	world *deploy.World
	err   error
}

// execFix is the study the Exec rows run. deltaFix runs all eight
// waves, so every spec transition the deployment schedules — renewals,
// churn, the follow-references switch-on at wave 3 — crosses at least
// one delta boundary.
var (
	execFix  = &fixture{study: execFixture}
	deltaFix = &fixture{name: "waves=0-7", study: deltaTestConfig}
)

// worldOf builds the fixture's world once. The deployment announces
// only hidden servers, so no campaign of it takes the shard merge's
// port-scan-wins branch; here a discovery server also announces host
// 0, which the port scan finds too.
func (f *fixture) worldOf(t *testing.T) *deploy.World {
	t.Helper()
	f.once.Do(func() {
		cfg := f.study("")
		spec, err := deploy.BuildSpec(cfg.Seed)
		if f.err = err; err == nil {
			spec.Discovery[0].Announces = append(spec.Discovery[0].Announces, 0)
			f.world, f.err = deploy.Materialize(spec, deploy.Options{TestKeySizes: cfg.TestKeySizes, NoiseProb: cfg.NoiseProb, MaxHosts: cfg.MaxHosts})
		}
	})
	if f.err != nil {
		t.Fatal(f.err)
	}
	return f.world
}

// execFixture is two waves of 320 hosts.
func execFixture(profile string) CampaignConfig {
	return CampaignConfig{
		Seed:         2020,
		Waves:        []int{6, 7},
		TestKeySizes: true,
		MaxHosts:     320,
		NoiseProb:    1e-5,
		GrabWorkers:  8,
		ChaosProfile: profile,
	}
}

// deltaTestConfig is all eight waves of 60 hosts.
func deltaTestConfig(profile string) CampaignConfig {
	cfg := execFixture(profile)
	cfg.Waves, cfg.MaxHosts = nil, 60
	if profile != "" {
		cfg.ChaosSeed = 7
	}
	return cfg
}

// TestDeltaCampaignNeedsTwoWaves pins the validation error: a delta
// campaign over fewer than two waves has nothing to diff.
func TestDeltaCampaignNeedsTwoWaves(t *testing.T) {
	cfg := deltaTestConfig("")
	cfg.Waves, cfg.Delta = []int{7}, true
	if _, err := RunCampaignOnWorld(context.Background(), cfg, deltaFix.worldOf(t)); err == nil || !strings.Contains(err.Error(), "at least 2") {
		t.Fatalf("delta campaign over one wave: err %v, want \"at least 2\"", err)
	}
}

// reference is what a case is compared on: the record stream, and the
// analyses a campaign folds from it or a merged stream folds into.
type reference struct {
	c    *Campaign // the run itself; nil for a merged stream
	recs []*dataset.HostRecord
	analyses
}

type analyses struct {
	Waves []*core.WaveAnalysis
	Long  *core.Longitudinal
}

// outcomeOf is a finished campaign as the harness compares it.
func outcomeOf(c *Campaign) *reference {
	var recs []*dataset.HostRecord
	for _, a := range c.Analyses {
		recs = append(recs, c.RecordsByWave[a.Wave]...)
	}
	return &reference{c, recs, analyses{c.Analyses, c.Long}}
}

// newReference runs the reference campaign and pins what every case
// inherits: the sink streams exactly the bytes WriteDataset writes, and
// every failure record carries a known class — some under chaos, none
// on a polite study.
func newReference(t *testing.T, fix *fixture, profile string) *reference {
	t.Helper()
	cfg := fix.study(profile)
	cfg.reference = true
	var stream pipeline.SliceSink
	cfg.RecordSink = &stream
	c, err := RunCampaignOnWorld(context.Background(), cfg, fix.worldOf(t))
	if err != nil {
		t.Fatal(err)
	}
	ref := outcomeOf(c)
	requireSame(t, cfg.Seed, &reference{c, stream.Records, ref.analyses}, ref)
	failures := countFailures(c)
	for class := range failures {
		if !slices.Contains(scanner.FailureClasses(), class) {
			t.Errorf("%q %q: unknown failure class %q", fix.name, profile, class)
		}
	}
	if (len(failures) > 0) != (profile != "") {
		t.Fatalf("%q %q: failure records by class %v", fix.name, profile, failures)
	}
	return ref
}

// execCase is one row of the harness table.
type execCase struct {
	fix  *fixture
	rows []execRow // none: the production defaults
	via  transport // nil: RunCampaignOnWorld
	// cancel cancels the campaign on its second wave's scanning line:
	// the first wave is analyzed, the second partial, the rest never
	// start.
	cancel bool
}

func (tc execCase) String() string {
	parts := []string{tc.fix.name}
	for _, row := range tc.rows {
		parts = append(parts, row.String())
	}
	if len(tc.rows) == 0 {
		parts = append(parts, "production=defaults")
	}
	if tc.via != nil {
		parts = append(parts, tc.via.String())
	}
	if tc.cancel {
		parts = append(parts, "cancel=scanning")
	}
	return strings.TrimPrefix(strings.Join(parts, ","), ",")
}

// A transport carries a campaign's shard streams to one merged stream,
// proving on the way that it ran as its name says.
type transport interface {
	fmt.Stringer
	run(t *testing.T, fix *fixture, cfg CampaignConfig) []*dataset.HostRecord
}

func (tc execCase) check(t *testing.T, profile string, ref *reference) {
	cfg := tc.fix.study(profile)
	var stream pipeline.SliceSink
	cfg.RecordSink = &stream
	var tooks []tookFunc
	for _, row := range tc.rows {
		tooks = append(tooks, row.set(t, &cfg))
	}
	if tc.via != nil {
		recs := tc.via.run(t, tc.fix, cfg)
		waves, long := analyzeRecords(recs)
		requireSame(t, cfg.Seed, &reference{nil, recs, analyses{waves, long}}, ref)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	waves := cfg.Study().Waves
	stop := len(waves) // the cancelled wave's position
	if tc.cancel {
		stop = 1
		progressf := cfg.Progressf
		cfg.Progressf = func(format string, args ...any) {
			if strings.HasSuffix(format, "scanning...") && args[0] == waves[stop] {
				cancel()
			}
			if progressf != nil {
				progressf(format, args...)
			}
		}
		recs := slices.DeleteFunc(slices.Clone(ref.recs), func(r *dataset.HostRecord) bool { return r.Wave >= waves[stop] })
		ref = &reference{ref.c, recs, analyses{ref.Waves[:stop], nil}}
	}
	c, err := RunCampaignOnWorld(ctx, cfg, tc.fix.worldOf(t))
	if tc.cancel {
		// The cancellation contract: the wave in flight appears in Scans
		// marked Partial and never reaches the dataset; later waves never
		// start.
		if !errors.Is(err, context.Canceled) || c == nil {
			t.Fatalf("err = %v, campaign %v: want context.Canceled and the partial campaign", err, c != nil)
		}
		if scan, recs := c.Scans[waves[stop]], c.RecordsByWave[waves[stop]]; scan == nil || !scan.Partial || recs != nil {
			t.Errorf("wave %d, in flight at the cancellation: scan %v, %d records, want a partial scan and none", waves[stop], scan, len(recs))
		}
		for _, w := range waves[stop+1:] {
			if c.Scans[w] != nil {
				t.Errorf("never-started wave %d is in Scans", w)
			}
		}
	} else if err != nil {
		t.Fatal(err)
	}
	requireSame(t, cfg.Seed, &reference{c, stream.Records, analyses{c.Analyses, c.Long}}, ref)
	if got, want := datasetBytes(t, c), recordBytes(t, ref.recs); !cfg.Anonymize && !cfg.DiscardRecords && !bytes.Equal(got, want) {
		t.Errorf("WriteDataset (%d bytes) differs from the reference's (%d bytes)", len(got), len(want))
	}
	for _, w := range waves[:stop] {
		if scan := c.Scans[w]; scan == nil || scan.Partial || scan.OpenPorts != ref.c.Scans[w].OpenPorts {
			t.Errorf("wave %d: scan %v, want complete with the reference's %d open ports", w, scan, ref.c.Scans[w].OpenPorts)
		}
	}
	// Past the spec's None-only first 270 hosts, handshakes do RSA.
	if len(tc.rows) == 0 && (c.CryptoStats == nil || ref.c.CryptoStats != nil || cfg.MaxHosts > 270 && cryptoTotal(c.CryptoStats).Hits == 0) {
		t.Errorf("crypto stats %+v, the reference's %+v: only production runs the memo engine, and it hits across waves", c.CryptoStats, ref.c.CryptoStats)
	}
	for _, took := range tooks {
		took(t, c, ref.c)
	}
}

// requireSame fails t at got's first divergence from the reference.
func requireSame(t *testing.T, seed int64, got, ref *reference) {
	t.Helper()
	if d := firstDivergence(seed, got.recs, ref.recs); d != "" {
		t.Errorf("record stream differs from the reference's at %s", d)
	}
	if path, x, y := fieldDiff("", reflect.ValueOf(got.analyses), reflect.ValueOf(ref.analyses)); path != "" {
		t.Errorf("analyses differ from the reference's at %s: %s, reference %s", path, x, y)
	}
}

// firstDivergence names the first record at which got parts from the
// reference stream want — its position, wave and address, the ID of the
// exchange behind it (its key in a trace), and the first field whose
// values differ, by JSON path — or returns "" for byte-identical
// streams.
func firstDivergence(seed int64, got, want []*dataset.HostRecord) string {
	name := func(r *dataset.HostRecord) string {
		return fmt.Sprintf("wave %d %s (exchange %016x)", r.Wave, r.Address, telemetry.ExchangeID(seed, r.Wave, r.Address))
	}
	var g, w []byte
	var gerr, werr error
	for i := 0; i < max(len(got), len(want)); i++ {
		switch {
		case i == len(got):
			return fmt.Sprintf("record %d, %s: missing (%d records, the reference %d)", i, name(want[i]), len(got), len(want))
		case i == len(want):
			return fmt.Sprintf("record %d, %s: extra (%d records, the reference %d)", i, name(got[i]), len(got), len(want))
		}
		g, gerr = dataset.AppendRecord(g[:0], got[i])
		w, werr = dataset.AppendRecord(w[:0], want[i])
		if err := errors.Join(gerr, werr); err != nil {
			return fmt.Sprintf("record %d: %v", i, err)
		}
		if bytes.Equal(g, w) {
			continue
		}
		at := name(want[i])
		if got[i].Wave != want[i].Wave || got[i].Address != want[i].Address {
			at += ", here " + name(got[i])
		}
		path, x, y := fieldDiff("", reflect.ValueOf(got[i]).Elem(), reflect.ValueOf(want[i]).Elem())
		if path == "" {
			path, x, y = "(encoding)", string(g), string(w)
		}
		return fmt.Sprintf("record %d, %s: %s = %s, reference %s", i, at, path, x, y)
	}
	return ""
}

// fieldDiff returns the first path at which a and b differ — struct
// fields in declaration order under their JSON names, elements in
// order; a map is one value — with both values there; "" when they are
// deeply equal.
func fieldDiff(path string, a, b reflect.Value) (string, string, string) {
	if reflect.DeepEqual(a.Interface(), b.Interface()) {
		return "", "", ""
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !a.IsNil() && !b.IsNil() && a.Elem().Type() == b.Elem().Type() {
			return fieldDiff(path, a.Elem(), b.Elem())
		}
	case reflect.Struct:
		if _, ok := a.Interface().(fmt.Stringer); ok {
			break
		}
		for i := 0; i < a.NumField(); i++ {
			f := a.Type().Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if !f.IsExported() {
				continue
			}
			if p, x, y := fieldDiff(strings.TrimPrefix(path+"."+cmp.Or(name, f.Name), "."), a.Field(i), b.Field(i)); p != "" {
				return p, x, y
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < min(a.Len(), b.Len()); i++ {
			if p, x, y := fieldDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); p != "" {
				return p, x, y
			}
		}
		return path, fmt.Sprintf("%d elements", a.Len()), fmt.Sprintf("%d elements", b.Len())
	}
	return path, fmt.Sprintf("%#v", a.Interface()), fmt.Sprintf("%#v", b.Interface())
}

// shardStreams runs every shard of an n-shard plan through
// RunCampaignShard at once, each into its own NDJSON stream and
// registry, as a fabric's in-process workers run their leases. Its
// proof: each shard handshakes through its own engine on both ends of
// the wire, so on a polite study no registry reads a decrypt miss;
// under Delta each shard's tracker falls back once, on the first wave,
// then clones; and the shards emit at least the records merged.
type shardStreams struct{ n int }

func (s shardStreams) String() string { return "RunCampaignShard=" + strconv.Itoa(s.n) }

func (s shardStreams) run(t *testing.T, fix *fixture, cfg CampaignConfig) []*dataset.HostRecord {
	streams, regs := s.streams(t, fix, cfg)
	merged := mergeStreams(t, streams)
	var emitted uint64
	for i, reg := range regs {
		snap := reg.Snapshot()
		emitted += snap.CounterTotal("campaign_records")
		counts := [4]uint64{snap.CounterTotal("crypto_decrypt_misses"), snap.CounterTotal("crypto_encrypt_misses"),
			snap.CounterTotal("wave_delta_fallbacks"), snap.CounterTotal("wave_delta_hits")}
		if cfg.ChaosProfile == "" && counts[0] != 0 || cfg.MaxHosts > 270 && counts[1] == 0 || cfg.Delta && (counts[2] != 1 || counts[3] == 0) {
			t.Errorf("shard %d: decrypt misses, encrypt misses, delta fallbacks, delta hits %v", i, counts)
		}
	}
	if emitted < uint64(len(merged)) {
		t.Errorf("the shards emitted %d records, fewer than the %d merged", emitted, len(merged))
	}
	return merged
}

func (s shardStreams) streams(t *testing.T, fix *fixture, cfg CampaignConfig) ([][]byte, []*telemetry.Registry) {
	t.Helper()
	world := fix.worldOf(t)
	streams, regs, errs := make([][]byte, s.n), make([]*telemetry.Registry, s.n), make([]error, s.n)
	var wg sync.WaitGroup
	for i := range streams {
		regs[i] = telemetry.New()
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := cfg
			cfg.Telemetry = regs[i]
			var buf bytes.Buffer
			sink := pipeline.NewEncoderSink(&buf, false)
			if errs[i] = RunCampaignShard(context.Background(), cfg, world, s.n, i, sink); errs[i] == nil {
				errs[i] = sink.Close()
			}
			streams[i] = buf.Bytes()
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	return streams, regs
}

func mergeStreams(t *testing.T, streams [][]byte) []*dataset.HostRecord {
	t.Helper()
	decoders := make([]*dataset.Decoder, len(streams))
	for i, s := range streams {
		decoders[i] = dataset.NewDecoder(bytes.NewReader(s))
	}
	var merged pipeline.SliceSink
	if err := pipeline.MergeShardStreams(&merged, decoders...); err != nil {
		t.Fatalf("merging shard streams: %v", err)
	}
	return merged.Records
}

// fabricRun runs the campaign as cmd/measure's fabric does, on loopback
// with two in-process workers: a coordinator leases fabricShards shards
// under the study's Hello, each worker decodes it and runs
// RunCampaignShard on the shared world, and the committed streams are
// merged. The fault, if any, is worker 0's, after faultAfter records or
// frames; its proof is the recovery it forces.
type fabricRun struct{ fault string }

const (
	fabricShards   = 4
	faultAfter     = 20
	fabricDeadline = 200 * time.Millisecond // the coordinator's DeadAfter
)

func (f fabricRun) String() string {
	return strings.TrimSuffix("fabric="+strconv.Itoa(fabricShards)+",fault="+f.fault, ",fault=")
}

func (f fabricRun) run(t *testing.T, fix *fixture, cfg CampaignConfig) []*dataset.HostRecord {
	spec := cfg.FabricSpec(fabricShards, 25*time.Millisecond)
	hello, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	coord := fabric.NewCoordinator(ln, fabric.CoordinatorConfig{Shards: fabricShards, Hello: hello, DeadAfter: fabricDeadline, Metrics: reg})
	world := fix.worldOf(t)
	runner := func(ctx context.Context, hello []byte, shard int, sink pipeline.RecordSink) error {
		spec, err := fabric.DecodeSpec(hello)
		if err != nil {
			return err
		}
		return RunCampaignShard(ctx, CampaignFromSpec(*spec), world, spec.Shards, shard, sink)
	}
	faults := map[string]fabric.FaultInjector{
		"kill":  &fabric.KillAfterRecords{N: faultAfter},
		"stall": &fabric.StallAfterRecords{N: faultAfter},
		"drop":  &fabric.DropAfterFrames{N: faultAfter},
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	wctx, stopWorkers := context.WithCancel(ctx)
	workers, errs := []*telemetry.Registry{telemetry.New(), telemetry.New()}, make([]error, 2)
	var wg sync.WaitGroup
	for i, wreg := range workers {
		wcfg := fabric.WorkerConfig{Addr: ln.Addr().String(), Name: "w" + strconv.Itoa(i), HeartbeatEvery: 25 * time.Millisecond,
			RetrySeed: cfg.Seed + int64(i), RetryBase: 5 * time.Millisecond, RetryCap: 50 * time.Millisecond, Metrics: wreg}
		if i == 0 {
			wcfg.Faults = faults[f.fault]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fabric.RunWorker(wctx, wcfg, runner)
		}()
	}
	streams, err := coord.Run(ctx)
	// Every shard is committed: a worker between sessions must not sit
	// out its reconnect backoff.
	stopWorkers()
	wg.Wait()
	if err != nil {
		t.Fatalf("fabric coordinator: %v", err)
	}
	killed := f.fault == "kill" && errors.Is(errs[0], fabric.ErrWorkerKilled)
	for i, werr := range errs {
		if werr != nil && !errors.Is(werr, context.Canceled) && !(i == 0 && killed) {
			t.Errorf("worker %d: %v", i, werr)
		}
	}
	count := func(name string) uint64 { return reg.Counter(name).Load() }
	took := map[string]bool{
		"":      true,
		"kill":  killed && count("fabric_workers_dead") > 0,
		"stall": count("fabric_workers_dead") > 0 && reg.MaxGauge("fabric_heartbeat_gap_ns").Load() > fabricDeadline.Nanoseconds(),
		"drop":  workers[0].Counter("fabric_reconnects").Load() > 0,
	}[f.fault]
	if !took || count("fabric_shards_committed") != fabricShards || (f.fault != "" && count("fabric_leases_requeued") == 0) {
		t.Errorf("fault %q: worker 0 returned %v; coordinator %v, max %v", f.fault, errs[0], reg.Snapshot().Counters, reg.Snapshot().Max)
	}
	return mergeStreams(t, streams)
}

// TestExecInvarianceNamesFirstDivergence plants one wrong field in one
// record of one shard's stream: the harness must name that record's
// wave, address and exchange, and the field's path with both values.
func TestExecInvarianceNamesFirstDivergence(t *testing.T) {
	if testing.Short() {
		t.Skip("shard campaign skipped in -short mode")
	}
	cfg := execFixture("")
	streams, _ := shardStreams{2}.streams(t, execFix, cfg)
	want := mergeStreams(t, streams)
	// A port-scan record is its shard's alone: the merge never drops it
	// for another shard's copy.
	recs := decodeDataset(t, streams[1])
	i := slices.IndexFunc(recs, func(r *dataset.HostRecord) bool {
		return r.Wave == 7 && r.Via == string(scanner.ViaPortScan) && len(r.Endpoints) > 0
	})
	if i < 0 {
		t.Fatal("shard 1 has no wave-7 port-scan record with an endpoint")
	}
	recs[i].Endpoints[0].Mode = "Invalid"
	streams[1] = recordBytes(t, recs)
	got := firstDivergence(cfg.Seed, mergeStreams(t, streams), want)
	id := fmt.Sprintf("(exchange %016x)", telemetry.ExchangeID(cfg.Seed, 7, recs[i].Address))
	for _, part := range []string{"wave 7 " + recs[i].Address + " " + id, `: endpoints[0].mode = "Invalid", reference `} {
		if !strings.Contains(got, part) {
			t.Errorf("divergence %q does not name %q", got, part)
		}
	}
}
