package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/lint"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func smokeOptions(t *testing.T) options {
	sz, err := sizingByName("smoke")
	if err != nil {
		t.Fatal(err)
	}
	return options{workload: "all", seed: 2020, minReps: 1,
		trace: "both", sizing: sz, outDir: t.TempDir()}
}

// benchmarkJSON is BENCHMARK.json's schema.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestMetricNamesMatchBenchmarkJSON keeps the contract file and the
// program's metric and workload tables equal, name by name.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		got := bj.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, got, d)
		}
	}
	for i, d := range perLayer {
		got := bj.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, got, d)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || d.Unit == "" || seen[d.Name] {
			t.Errorf("metric %q: bad name, missing unit or duplicate", d.Name)
		}
		seen[d.Name] = true
	}
	sz, _ := sizingByName("driver")
	ws := buildWorkloads(1, sz)
	if len(bj.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(ws))
	}
	for i, w := range ws {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload[%d] = %+v, want %s: %s", i, bj.Workloads[i], w.Name, w.Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why too long", w.Name)
		}
	}
}

// TestSmoke runs all four workloads, both passes and -compare on a
// small world: every check passes, every declared metric is emitted
// under its declared unit and nothing undeclared is.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world and runs campaigns")
	}
	o := smokeOptions(t)
	var stdout bytes.Buffer
	res, err := measure(context.Background(), o, &stdout, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != 4 {
		t.Fatalf("ran %d workloads, want 4", len(res.Workloads))
	}
	for _, w := range res.Workloads {
		if w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: %d of %d checks failed: %v", w.Name, w.Failed, w.Attempted, w.Failures)
		}
		for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
			m, ok := w.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("%s: metric %s missing or unit %q, want %q", w.Name, d.Name, m.Unit, d.Unit)
			}
		}
		if len(w.Metrics) != len(endToEnd)+len(perLayer) {
			t.Errorf("%s: %d metrics emitted, %d declared", w.Name, len(w.Metrics), len(endToEnd)+len(perLayer))
		}
		for _, name := range []string{"campaign_s", "cpu_s", "setup_s", "scanner.sweep_s", "dataset.records"} {
			if w.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.Name, name, w.Metrics[name].Value)
			}
		}
	}
	byName := map[string]*workloadResult{}
	for _, w := range res.Workloads {
		byName[w.Name] = w
	}
	if v := byName["full"].Metrics["opcuastudy.delta_hits"].Value; v != 0 {
		t.Errorf("full: delta_hits = %v, want 0", v)
	}
	for _, name := range []string{"delta", "fabric_delta"} {
		if v := byName[name].Metrics["opcuastudy.delta_hits"].Value; v <= 0 {
			t.Errorf("%s: delta_hits = %v, want > 0", name, v)
		}
	}
	if v := byName["fabric_delta"].Metrics["fabric.records_received"].Value; v <= 0 {
		t.Errorf("fabric_delta: records_received = %v, want > 0", v)
	}

	// The last line of each workload's output is the contract's object.
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !last.Correct || last.Attempted < 1 || last.Failed != 0 {
		t.Errorf("result line = correct %v, attempted %d, failed %d", last.Correct, last.Attempted, last.Failed)
	}

	trace, err := os.ReadFile(filepath.Join(o.outDir, "trace.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{`"name":"campaign"`, `"name":"sink.wave"`, `"name":"fabric.run"`, `"name":"scanner.wave_scan"`} {
		if !bytes.Contains(trace, []byte(name)) {
			t.Errorf("trace.ndjson has no span %s", name)
		}
	}

	// A result compared with itself has no regressed and no unresolved row.
	result := filepath.Join(o.outDir, "result.json")
	var table bytes.Buffer
	regressed, err := compareFiles(&table, result, result)
	if err != nil || regressed {
		t.Fatalf("-compare of a result with itself: regressed=%v err=%v", regressed, err)
	}
	if !strings.Contains(table.String(), "campaign_s") || strings.Contains(table.String(), "unresolved") {
		t.Errorf("-compare table:\n%s", table.String())
	}
}

// TestOracleCanFail corrupts one record of each rep's dataset after the
// timer stops: the digest check must fail and the exit code be non-zero.
func TestOracleCanFail(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world and runs campaigns")
	}
	o := smokeOptions(t)
	o.workload, o.trace = "full", "0"
	o.afterRep = func(path string) error {
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		recs, err := dataset.Read(in)
		in.Close()
		if err != nil {
			return err
		}
		recs[len(recs)/2].Readable++
		out, err := os.Create(path)
		if err != nil {
			return err
		}
		defer out.Close()
		if err := dataset.Write(out, recs); err != nil {
			return err
		}
		return out.Close()
	}
	var stdout bytes.Buffer
	if code := execute(context.Background(), o, &stdout, io.Discard); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Correct || last.Failed == 0 || last.Failed >= last.Attempted {
		t.Errorf("result line = correct %v, failed %d of %d; want the digest check alone to fail",
			last.Correct, last.Failed, last.Attempted)
	}
}

func TestVerdict(t *testing.T) {
	bounded := metricDef{Name: "campaign_s", Better: "lower", Bound: 0.15}
	steady := []float64{1.00, 1.01, 1.02, 1.03, 1.04}
	noisy := []float64{0.7, 0.9, 1.0, 1.2, 1.4}
	mv := func(samples []float64) metricValue { return timed("s", samples) }
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b metricValue
		want string
	}{
		{"unchanged", bounded, mv(steady), mv(steady), "ok"},
		{"worse within bound", bounded, mv(steady), mv(scale(steady, 1.10)), "ok"},
		{"worse beyond bound", bounded, mv(steady), mv(scale(steady, 1.20)), "regressed"},
		{"spread wider than bound", bounded, mv(noisy), mv(noisy), "unresolved"},
		{"noisy but every run better", bounded, mv(noisy), mv(scale(noisy, 0.4)), "ok"},
		{"exact equal", metricDef{Exact: true}, metricValue{Value: 7}, metricValue{Value: 7}, "ok"},
		{"exact differs", metricDef{Exact: true}, metricValue{Value: 7}, metricValue{Value: 8}, "regressed"},
		{"unbounded layer metric", metricDef{Better: "lower"}, metricValue{Value: 1}, metricValue{Value: 9}, "ok"},
	} {
		if got := verdict(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestBenchIsLintClean runs the repository's studyvet analyzers over
// this module, which internal/lint.TestRepositoryIsClean (./... of the
// parent module) does not reach.
func TestBenchIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the package")
	}
	pkgs, err := lint.LoadPatterns(".", ".")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || len(pkgs[0].Files) < 8 {
		t.Fatalf("loaded %d packages, want this one with all its files", len(pkgs))
	}
	cfg := lint.DefaultConfig()
	analyzers := lint.Analyzers(cfg)
	for _, lp := range pkgs {
		diags, err := lint.RunAnalyzers(analyzers, lp.Fset, lp.Files, lp.Pkg, lp.Info, cfg)
		if err != nil {
			t.Fatalf("%s: %v", lp.Path, err)
		}
		for _, d := range diags {
			t.Errorf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
		}
	}
}
