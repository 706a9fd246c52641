// Command bench is the repository's canonical campaign benchmark: one
// world, four closed-loop workloads, end-to-end metrics from untraced
// reps and per-layer metrics from a separate traced pass, every output
// checked against a reference campaign. README.md defines every
// workload and metric; BENCHMARK.json is the contract a driver runs.
//
//	bash bench/run.sh                                  # all workloads, both passes, driver sizing
//	bash bench/run.sh -sizing paper -reps 5 -seconds 0
//	bash bench/run.sh --workload delta --seed 7 --seconds 15 --trace 0
//	bash bench/run.sh -compare a/result.json b/result.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// options is one invocation's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	minReps  int
	trace    string // "0" untraced reps, "1" traced pass, "both"
	sizing   sizing
	outDir   string
	// afterRep, when set, runs on each rep's dataset after the timer
	// stops and before the checks; the tests use it to corrupt a record
	// and prove the oracle can fail.
	afterRep func(path string) error
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit: 0 when every check passed, 1
// when a check failed, 2 when the benchmark could not run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var sizingName string
	var compare bool
	fs.StringVar(&o.workload, "workload", "all", "workload to run: full, delta, rtt, fabric_delta or all")
	fs.Int64Var(&o.seed, "seed", 2020, "world seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 15, "measure each workload for at least this long")
	fs.IntVar(&o.minReps, "reps", 3, "run at least this many reps per workload (never below 3)")
	fs.StringVar(&o.trace, "trace", "both", "0 = untraced reps (end-to-end), 1 = traced pass (per-layer), both")
	fs.StringVar(&sizingName, "sizing", "driver", "paper, driver or smoke (see README.md)")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "out"), "directory for result.json, trace.ndjson and rep datasets")
	fs.BoolVar(&compare, "compare", false, "compare two result.json files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		regressed, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}
	var err error
	if o.sizing, err = sizingByName(sizingName); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if o.trace != "0" && o.trace != "1" && o.trace != "both" {
		fmt.Fprintf(stderr, "bench: -trace %q: want 0, 1 or both\n", o.trace)
		return 2
	}
	o.minReps = max(o.minReps, 3)

	return execute(context.Background(), o, stdout, stderr)
}

// execute measures and turns the outcome into the exit code.
func execute(ctx context.Context, o options, stdout, stderr io.Writer) int {
	res, err := measure(ctx, o, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	for _, w := range res.Workloads {
		if w.Failed > 0 {
			return 1
		}
	}
	return 0
}

// measure builds the fixture, runs the selected workloads and passes,
// prints each workload's metrics and writes result.json and the trace.
func measure(ctx context.Context, o options, stdout, stderr io.Writer) (*resultFile, error) {
	// Load sizing: the campaign is CPU-bound; more than four cores only
	// adds scheduler noise to an eight-grab workload.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	selected, err := selectWorkloads(buildWorkloads(o.seed, o.sizing), o.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "bench: sizing %s, seed %d, GOMAXPROCS %d of %d; building the world %d times...\n",
		o.sizing.Name, o.seed, runtime.GOMAXPROCS(0), runtime.NumCPU(), o.sizing.Setups)
	fix, err := newFixture(ctx, o, referenceWaves(selected))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "bench: set-up %.2fs (reference campaign %.2fs)\n", median(fix.setupSamples()), fix.warmupS)

	res := &resultFile{Env: newEnvInfo(o)}
	var tr *tracer
	if o.trace != "0" {
		tr = &tracer{}
	}
	for _, w := range selected {
		wr := &workloadResult{Name: w.Name, Config: w.config(), Metrics: map[string]metricValue{}}
		if o.trace != "1" {
			endToEndPass(ctx, o, w, fix, wr, stderr)
		}
		if o.trace != "0" {
			if err := tracedPass(ctx, o, w, fix, wr, tr, stderr); err != nil {
				return nil, fmt.Errorf("%s: traced pass: %w", w.Name, err)
			}
		}
		if err := printWorkload(stdout, wr); err != nil {
			return nil, err
		}
		res.Workloads = append(res.Workloads, wr)
	}

	if tr != nil {
		if err := tr.writeNDJSON(filepath.Join(o.outDir, "trace.ndjson")); err != nil {
			return nil, err
		}
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(o.outDir, "result.json"), append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

// checkedRep runs one rep and then, with the timer stopped, every check
// on its outcome, adding to the workload's attempted/failed tally.
func checkedRep(ctx context.Context, o options, w *workload, fix *fixture, wr *workloadResult, ob obs) rep {
	runtime.GC() // the previous rep's garbage is not this rep's cost
	path := filepath.Join(o.outDir, w.Name+".rep.jsonl")
	r := runRep(ctx, w, fix.world, path, ob)
	if r.err == nil && o.afterRep != nil {
		r.err = o.afterRep(path)
	}

	fail := func(msg string) {
		wr.Failed++
		wr.Failures = append(wr.Failures, msg)
	}
	nWaves := len(w.Cfg.Waves)
	checks := 2 // executor error, dataset digest
	if o.sizing.Headlines {
		checks += headlineChecks(nWaves)
	}
	wr.Attempted += checks
	if r.err != nil {
		// Nothing further can be checked: every check of the rep counts
		// as failed, like a request that missed every limit.
		wr.Failed += checks
		wr.Failures = append(wr.Failures, "executor: "+r.err.Error())
		return r
	}
	got, n, err := fileDigests(path)
	r.records = n
	if err != nil {
		fail("dataset unreadable: " + err.Error())
	} else if msg := checkDigests(got, fix.refDigests, w.Cfg.Waves); msg != "" {
		fail(msg)
	}
	if o.sizing.Headlines {
		for _, msg := range checkHeadlines(r.last, r.long, nWaves) {
			fail(msg)
		}
	}
	return r
}

// endToEndPass is the untraced closed loop: reps run back to back until
// both the time budget and the minimum rep count are met, and the
// medians are reported.
func endToEndPass(ctx context.Context, o options, w *workload, fix *fixture, wr *workloadResult, stderr io.Writer) {
	var walls, cpus []float64
	loop := startMeter()
	for {
		r := checkedRep(ctx, o, w, fix, wr, obs{})
		walls, cpus = append(walls, r.wallS), append(cpus, r.cpuS)
		fmt.Fprintf(stderr, "bench: %s rep %d: %.3fs wall, %.3fs cpu\n", w.Name, len(walls)-1, r.wallS, r.cpuS)
		if elapsed, _ := loop.stop(); len(walls) >= o.minReps && elapsed >= o.seconds {
			break
		}
	}
	wr.Metrics["campaign_s"] = timed("s", walls)
	wr.Metrics["cpu_s"] = timed("s", cpus)
	wr.Metrics["setup_s"] = timed("s", fix.setupSamples())
}
