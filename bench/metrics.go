package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"syscall"
	"time"

	"repro/internal/fabric"
)

// metricDef declares one metric the benchmark emits. The tables below
// are the single source of the names, units and bounds; BENCHMARK.json
// repeats them and TestMetricNamesMatchBenchmarkJSON keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the baseline median it may worsen by
	// Exact marks a count that must repeat exactly between two runs of
	// the same code and seed; -compare requires equality for these.
	Exact bool
}

// endToEnd are the metrics a user of the campaign sees, per workload.
// failed_share of the issue is carried by the attempted/failed keys of
// the result line instead: an end-to-end metric may never read 0.
var endToEnd = []metricDef{
	{Name: "campaign_s", Unit: "s", Better: "lower", Bound: 0.2},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.2},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the traced pass's metrics; the prefix is the module that
// does the work. README.md defines each one and says which end-to-end
// metric it should move on which workload.
var perLayer = []metricDef{
	{Name: "deploy.spec_s", Unit: "s", Better: "lower"},
	{Name: "deploy.materialize_s", Unit: "s", Better: "lower"},
	{Name: "deploy.materialize_cpu_s", Unit: "s", Better: "lower"},
	{Name: "deploy.snapshot_s", Unit: "s", Better: "lower"},
	{Name: "uacert.keygen_2048_ms", Unit: "ms", Better: "lower"},

	{Name: "deploy.endpoint_states_s", Unit: "s", Better: "lower"},
	{Name: "wavediff.plan_s", Unit: "s", Better: "lower"},
	{Name: "opcuastudy.delta_hits", Unit: "count", Better: "higher", Exact: true},
	{Name: "opcuastudy.delta_misses", Unit: "count", Better: "lower", Exact: true},
	{Name: "opcuastudy.delta_hit_pct", Unit: "%", Better: "higher"},

	{Name: "scanner.sweep_s", Unit: "s", Better: "lower"},
	{Name: "scanner.sweep_cpu_s", Unit: "s", Better: "lower"},
	{Name: "scanner.sweep_probes", Unit: "count", Better: "lower", Exact: true},
	{Name: "scanner.sweep_mprobes_per_s", Unit: "1/s", Better: "higher"},

	{Name: "scanner.wave_scan_s", Unit: "s", Better: "lower"},
	{Name: "scanner.grab_s", Unit: "s", Better: "lower"},
	{Name: "scanner.grab_cpu_s", Unit: "s", Better: "lower"},
	{Name: "scanner.grabs", Unit: "count", Better: "lower", Exact: true},
	{Name: "scanner.grab_followups", Unit: "count", Better: "lower", Exact: true},
	{Name: "scanner.grab_failures", Unit: "count", Better: "lower"},
	{Name: "scanner.grab_retries", Unit: "count", Better: "lower"},
	{Name: "scanner.queue_wait_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "scanner.shard_merge_s", Unit: "s", Better: "lower"},

	{Name: "uasc.handshakes", Unit: "count", Better: "lower"},
	{Name: "uasc.handshake_failed", Unit: "count", Better: "lower"},
	{Name: "uasc.handshake_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "uasc.handshake_p50_ms", Unit: "ms", Better: "lower"},

	{Name: "uarsa.hits", Unit: "count", Better: "higher"},
	{Name: "uarsa.misses", Unit: "count", Better: "lower"},
	{Name: "uarsa.hit_pct", Unit: "%", Better: "higher"},

	{Name: "uamsg.getendpoints_encode_us", Unit: "us", Better: "lower"},
	{Name: "uamsg.getendpoints_decode_us", Unit: "us", Better: "lower"},
	{Name: "uamsg.getendpoints_allocs", Unit: "count", Better: "lower"},

	{Name: "opcuastudy.scanner_identity_s", Unit: "s", Better: "lower"},

	{Name: "dataset.convert_s", Unit: "s", Better: "lower"},
	{Name: "dataset.encode_s", Unit: "s", Better: "lower"},
	{Name: "dataset.encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "dataset.bytes_mb", Unit: "MB", Better: "lower"},
	{Name: "dataset.records", Unit: "count", Better: "higher", Exact: true},
	{Name: "dataset.decode_s", Unit: "s", Better: "lower"},
	{Name: "dataset.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "pipeline.merge_s", Unit: "s", Better: "lower"},
	{Name: "pipeline.analyzer_fold_s", Unit: "s", Better: "lower"},

	{Name: "core.fold_s", Unit: "s", Better: "lower"},
	{Name: "core.fold_cpu_s", Unit: "s", Better: "lower"},
	{Name: "report.render_s", Unit: "s", Better: "lower"},

	{Name: "fabric.transport_s", Unit: "s", Better: "lower"},
	{Name: "fabric.transport_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "fabric.leases_granted", Unit: "count", Better: "lower"},
	{Name: "fabric.leases_requeued", Unit: "count", Better: "lower"},
	{Name: "fabric.records_received", Unit: "count", Better: "lower", Exact: true},

	{Name: "opcuastudy.alloc_gb", Unit: "GB", Better: "lower"},
	{Name: "opcuastudy.mallocs_m", Unit: "1e6", Better: "lower"},
	{Name: "opcuastudy.heap_peak_mb", Unit: "MB", Better: "lower"},

	{Name: "bench.warmup_s", Unit: "s", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "opcuastudy.unattributed_pct", Unit: "%", Better: "lower"},
}

func findMetric(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// metricValue is one reported number. End-to-end timings carry the
// samples they are the median of, so -compare can judge the spread.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timed is a metric whose value is the median of its samples.
func timed(unit string, samples []float64) metricValue {
	return metricValue{Value: median(samples), Unit: unit, Samples: samples}
}

// meter measures one interval's wall clock and process CPU time
// (getrusage user+sys), which separates work from simulated-RTT sleep.
type meter struct {
	wall time.Time
	cpu  float64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func startMeter() meter { return meter{wall: time.Now(), cpu: cpuSeconds()} }

func (m meter) stop() (wallS, cpuS float64) {
	return time.Since(m.wall).Seconds(), cpuSeconds() - m.cpu
}

// envInfo records where and how a result was measured.
type envInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Sizing     string  `json:"sizing"`
	MinReps    int     `json:"reps"`
	Seconds    float64 `json:"seconds"`
	Setups     int     `json:"setups"`
}

// commit reads the revision the toolchain stamped into the binary; a
// driver checkout is not a git repository and reports "unknown".
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func newEnvInfo(o options) envInfo {
	return envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Seed:       o.seed,
		Sizing:     o.sizing.Name,
		MinReps:    o.minReps,
		Seconds:    o.seconds,
		Setups:     o.sizing.Setups,
	}
}

// workloadConfig is the part of a workload's configuration that shapes
// its records and its load, as written to the result file.
type workloadConfig struct {
	Executor string              `json:"executor"`
	Spec     fabric.CampaignSpec `json:"campaign"`
	RTTMs    float64             `json:"rtt_ms"`
	Workers  int                 `json:"fabric_workers,omitempty"`
}

// workloadResult is everything one workload reported.
type workloadResult struct {
	Name      string                 `json:"name"`
	Config    workloadConfig         `json:"config"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFile is the -out result.json schema, the input of -compare.
type resultFile struct {
	Env       envInfo           `json:"env"`
	Workloads []*workloadResult `json:"workloads"`
}

// resultLine is the one-object summary printed last for each workload.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"` // value and unit only
}

// printWorkload writes every metric by name with its unit (sorted, so
// the listing is stable), then the result line.
func printWorkload(w io.Writer, r *workloadResult) error {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	line := resultLine{
		Correct:   r.Failed == 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   make(map[string]metricValue, len(names)),
	}
	for _, name := range names {
		m := r.Metrics[name]
		line.Metrics[name] = metricValue{Value: m.Value, Unit: m.Unit}
		spread := ""
		if n := len(m.Samples); n > 1 {
			spread = fmt.Sprintf("  (median of %d, min %.4g, max %.4g)",
				n, slices.Min(m.Samples), slices.Max(m.Samples))
		}
		fmt.Fprintf(w, "%-14s %-32s %12.6g %-6s%s\n", r.Name, name, m.Value, m.Unit, spread)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "%-14s FAILED CHECK: %s\n", r.Name, f)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
