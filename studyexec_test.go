package opcuastudy

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/fabric"
	"repro/internal/pipeline"
	"repro/internal/scanner"
	"repro/internal/study"
	"repro/internal/telemetry"
	"repro/internal/wavediff"
)

// A campaign is two values: what it measures, study.Study, and how it
// runs — every other exported CampaignConfig field, listed once in
// execTable. The tests below turn that split into checked statements:
// each field is in exactly one half, every Study field reaches
// CampaignConfig.Study, the delta fingerprint and the fabric Hello, and
// no Exec value changes a record byte.

// tookFunc proves, on a finished campaign and the baseline's, that an
// Exec row's value changed how the campaign ran: an invariance that
// holds because a setting was ignored would prove nothing.
type tookFunc = func(t *testing.T, c, base *Campaign)

// execTable is the Exec half: every exported CampaignConfig field that
// is not a study.Study field, with one row per value the invariance test
// runs. set applies the value on top of the fixture — some rows add a
// Trace or a Progressf, themselves Exec, to observe it — and returns the
// row's proof that the value took effect.
var execTable = []struct {
	field, value string
	set          func(cfg *CampaignConfig) tookFunc
}{
	{"GrabWorkers", "1", func(cfg *CampaignConfig) tookFunc {
		cfg.GrabWorkers, cfg.Trace = 1, telemetry.NewTracer(0)
		tr := cfg.Trace
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
	{"Delta", "true", func(cfg *CampaignConfig) tookFunc {
		cfg.Delta = true
		return func(t *testing.T, c, base *Campaign) {
			if got, full := len(c.Scans[7].Results), len(base.Scans[7].Results); got >= full {
				t.Errorf("delta wave 7 grabbed %d targets, the full scan %d", got, full)
			}
		}
	}},
	{"Shards", "3", func(cfg *CampaignConfig) tookFunc {
		reg := telemetry.New()
		cfg.Shards, cfg.Telemetry = 3, reg
		return func(t *testing.T, c, _ *Campaign) {
			// An unsharded wave queues every port-scan target at once; a
			// shard queues its own third.
			targets := math.MaxInt
			for _, w := range []int{6, 7} {
				n := 0
				for _, r := range c.Scans[w].Results {
					if r.Via == scanner.ViaPortScan {
						n++
					}
				}
				targets = min(targets, n)
			}
			if depth := reg.Snapshot().MaxTotal("grab_queue_depth"); depth <= 0 || int(depth) >= targets {
				t.Errorf("grab queue depth %d against a wave of %d port-scan targets: one queue held the wave", depth, targets)
			}
		}
	}},
	{"RecordSink", "EncoderSink", func(cfg *CampaignConfig) tookFunc {
		var buf bytes.Buffer
		enc := pipeline.NewEncoderSink(&buf, false)
		cfg.RecordSink = pipeline.Tee(cfg.RecordSink, enc)
		return func(t *testing.T, c, _ *Campaign) {
			if err := enc.Close(); err != nil {
				t.Fatal(err)
			}
			if got, want := bytes.Count(buf.Bytes(), []byte("\n")), recordCount(c); got != want {
				t.Errorf("encoder sink wrote %d lines for %d records", got, want)
			}
		}
	}},
	{"DiscardRecords", "true", func(cfg *CampaignConfig) tookFunc {
		cfg.DiscardRecords = true
		return func(t *testing.T, c, _ *Campaign) {
			if len(c.RecordsByWave) != 0 {
				t.Errorf("DiscardRecords retained %d waves", len(c.RecordsByWave))
			}
		}
	}},
	// Anonymize rewrites the export only, never the measured stream.
	{"Anonymize", "true", func(cfg *CampaignConfig) tookFunc {
		cfg.Anonymize = true
		return func(t *testing.T, c, base *Campaign) {
			if bytes.Equal(datasetBytes(t, c), datasetBytes(t, base)) {
				t.Error("Anonymize left the exported dataset raw")
			}
		}
	}},
	{"Progressf", "capture", func(cfg *CampaignConfig) tookFunc {
		var lines []string
		cfg.Progressf = func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
		return func(t *testing.T, _, _ *Campaign) {
			if !slices.ContainsFunc(lines, func(l string) bool { return strings.HasPrefix(l, "wave 7: ") }) {
				t.Errorf("no wave 7 line in %q", lines)
			}
		}
	}},
	{"Telemetry", "registry", func(cfg *CampaignConfig) tookFunc {
		reg := telemetry.New()
		cfg.Telemetry = reg
		return func(t *testing.T, c, _ *Campaign) {
			if got := reg.Snapshot().CounterTotal("campaign_records"); got != uint64(recordCount(c)) {
				t.Errorf("campaign_records = %d, want %d", got, recordCount(c))
			}
		}
	}},
	{"Trace", "tracer", func(cfg *CampaignConfig) tookFunc {
		tr := telemetry.NewTracer(0)
		cfg.Trace = tr
		return func(t *testing.T, c, _ *Campaign) {
			grabs := len(c.Scans[6].Results) + len(c.Scans[7].Results)
			if tr.Total() != grabs || grabs == 0 {
				t.Errorf("traced %d exchanges for %d grabs", tr.Total(), grabs)
			}
		}
	}},
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

func recordCount(c *Campaign) int {
	n := 0
	for _, recs := range c.RecordsByWave {
		n += len(recs)
	}
	return n
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
	// set it. uncachedCrypto is the reference the crypto engine is
	// compared against, and it changes no record byte.
	if want := []string{"uncachedCrypto"}; !slices.Equal(hooks, want) {
		t.Errorf("unexported CampaignConfig fields %v, want just the test hook %v", hooks, want)
	}
}

// TestStudyPerturbation perturbs each Study field in turn: the change
// must reach cfg.Study(), every endpoint fingerprint of a wave-7 plan,
// and survive the fabric Hello round trip. Spellings the campaign treats
// as equal must give equal studies.
func TestStudyPerturbation(t *testing.T) {
	world := execWorld(t)
	states, err := world.WaveEndpointStates(7)
	if err != nil {
		t.Fatal(err)
	}
	base := execFixture()
	chaotic := base
	chaotic.ChaosProfile = "mixed"
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
			before := wavediff.NewPlan(was, 7, true, states)
			after := wavediff.NewPlan(is, 7, true, states)
			for _, st := range states {
				fb, _ := before.Fingerprint(st.Address)
				if fa, _ := after.Fingerprint(st.Address); fa == fb {
					t.Fatalf("fingerprint of %s did not change", st.Address)
				}
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
			if got := CampaignFromSpec(*decoded).Study(); !reflect.DeepEqual(got, is) {
				t.Errorf("Hello round trip: %+v, want %+v", got, is)
			}
		})
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
	} {
		for _, s := range spellings[1:] {
			if !reflect.DeepEqual(s, spellings[0]) {
				t.Errorf("%s: %+v != %+v", name, s, spellings[0])
			}
		}
	}
}

// TestExecInvariance runs every execTable row against the fixture's
// baseline: each must reproduce the baseline's record stream byte for
// byte and DeepEqual analyses, and prove its value took effect.
func TestExecInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("Exec invariance campaigns skipped in -short mode")
	}
	world := execWorld(t)
	run := func(t *testing.T, set func(*CampaignConfig) tookFunc) (*Campaign, []byte, tookFunc) {
		t.Helper()
		cfg := execFixture()
		var stream pipeline.SliceSink
		cfg.RecordSink = &stream
		var took tookFunc
		if set != nil {
			took = set(&cfg)
		}
		c, err := RunCampaignOnWorld(context.Background(), cfg, world)
		if err != nil {
			t.Fatal(err)
		}
		return c, recordBytes(t, stream.Records), took
	}
	base, want, _ := run(t, nil)
	for _, row := range execTable {
		t.Run(row.field+"="+row.value, func(t *testing.T) {
			c, got, took := run(t, row.set)
			if !bytes.Equal(got, want) {
				t.Errorf("record stream differs from the baseline's (%d vs %d bytes)", len(got), len(want))
			}
			if !reflect.DeepEqual(c.Analyses, base.Analyses) || !reflect.DeepEqual(c.Long, base.Long) {
				t.Error("analyses differ from the baseline's")
			}
			took(t, c, base)
		})
	}
}

// execFixture is the one study the Exec rows run: 320 hosts reach past
// the None-only first 270, so handshakes do RSA through the memo
// engine. A chaos study runs over the fabric in TestMeasureChaosFabric.
func execFixture() CampaignConfig {
	return CampaignConfig{
		Seed:         2020,
		Waves:        []int{6, 7},
		TestKeySizes: true,
		MaxHosts:     320,
		NoiseProb:    1e-5,
		GrabWorkers:  8,
	}
}

var (
	execWorldOnce sync.Once
	execWorldW    *deploy.World
	execWorldErr  error
)

func execWorld(t *testing.T) *deploy.World {
	t.Helper()
	execWorldOnce.Do(func() { execWorldW, execWorldErr = BuildWorld(execFixture()) })
	if execWorldErr != nil {
		t.Fatal(execWorldErr)
	}
	return execWorldW
}
