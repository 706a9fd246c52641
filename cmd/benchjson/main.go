// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON document, so the repository's hot-path
// trajectory (ns/op, allocs/op) can be tracked as BENCH_<pr>.json files
// across PRs and consumed by tooling instead of scraped from prose.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./internal/... | benchjson -o bench-hotpath.json
//
// Lines that are not benchmark results (headers, PASS/ok, metrics the
// parser cannot read) are ignored, so piping full `go test` output is
// fine. Custom b.ReportMetric values are kept under "metrics".
//
// With -budget FILE, fresh allocs/op are compared against the
// benchmarks recorded in FILE (a previously committed BENCH_<pr>.json):
// any benchmark present in both whose fresh allocs/op exceed
// budget×tolerance (+2 absolute slack for near-zero budgets) fails the
// run with exit status 1 — the CI hot-path allocation regression gate.
//
// With -overhead-delta N (N >= 0), every fresh benchmark whose name
// contains "telemetry=on" is paired with its "telemetry=off" sibling
// and must not allocate more than sibling+N allocs/op — the
// instrumentation-overhead gate: enabling telemetry may cost at most a
// fixed, declared number of allocations, and the disabled path is
// budget-gated separately so it cannot move at all. A lone on/off
// benchmark without its sibling fails (an unpaired gate is a disabled
// gate), as does an input with no telemetry pairs at all.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type entry struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BPerOp      float64            `json:"b_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`

	// hasAllocs records whether an allocs/op unit was actually parsed —
	// a run without -benchmem leaves AllocsPerOp at a vacuous 0, which
	// must not satisfy a budget comparison. Fresh-side only (never
	// serialized).
	hasAllocs bool
}

type doc struct {
	Schema     string            `json:"schema"`
	Benchmarks map[string]*entry `json:"benchmarks"`
}

// stripProcSuffix removes the trailing -GOMAXPROCS from a benchmark
// name (BenchmarkFoo/sub-case-8 -> BenchmarkFoo/sub-case).
func stripProcSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i <= 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// parseFields turns the measurement fields (everything after the
// benchmark name) into an entry, or nil if they don't look like one.
func parseFields(fields []string) *entry {
	if len(fields) < 3 {
		return nil
	}
	iters, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return nil
	}
	e := &entry{Iterations: iters, Metrics: map[string]float64{}}
	sawUnit := false
	for i := 1; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		sawUnit = true
		switch fields[i+1] {
		case "ns/op":
			e.NsPerOp = v
		case "B/op":
			e.BPerOp = v
		case "allocs/op":
			e.AllocsPerOp = v
			e.hasAllocs = true
		default:
			e.Metrics[fields[i+1]] = v
		}
	}
	if !sawUnit {
		return nil
	}
	if len(e.Metrics) == 0 {
		e.Metrics = nil
	}
	return e
}

// parser stitches benchmark results back together when other test
// output (campaign progress lines) interleaves between the printed
// benchmark name and its measurement line: `go test` emits the name,
// then flushes whatever the fixture logs, then the `N  12345 ns/op`
// line on its own.
type parser struct {
	pending string // benchmark name waiting for its measurement line
}

func (p *parser) parseLine(line string) (string, *entry) {
	if strings.HasPrefix(line, "Benchmark") {
		fields := strings.Fields(line)
		if e := parseFields(fields[1:]); e != nil {
			p.pending = ""
			return stripProcSuffix(fields[0]), e
		}
		// Name only (result line still to come, possibly after
		// interleaved output).
		p.pending = stripProcSuffix(fields[0])
		return "", nil
	}
	if p.pending != "" {
		if e := parseFields(strings.Fields(line)); e != nil {
			name := p.pending
			p.pending = ""
			return name, e
		}
	}
	return "", nil
}

// checkBudget compares fresh allocs/op against a committed budget file.
// Returns the list of regressions (empty = pass). Budget entries are
// walked in sorted order so regression reports are byte-identical
// across runs. When match is non-nil only entries it matches are
// enforced; an enforced entry absent from the fresh output is itself a
// regression — a budget that silently never runs is a disabled gate.
func checkBudget(fresh map[string]*entry, budgetPath string, match *regexp.Regexp, tolerance float64) ([]string, error) {
	raw, err := os.ReadFile(budgetPath)
	if err != nil {
		return nil, err
	}
	var budget doc
	if err := json.Unmarshal(raw, &budget); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", budgetPath, err)
	}
	names := make([]string, 0, len(budget.Benchmarks))
	for name := range budget.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	var regressions []string
	for _, name := range names {
		want := budget.Benchmarks[name]
		if match != nil && !match.MatchString(name) {
			// Out of this invocation's scope: a budget file may record
			// more benchmarks than one CI step runs.
			continue
		}
		got, ok := fresh[name]
		if !ok {
			regressions = append(regressions, fmt.Sprintf(
				"%s: referenced by %s but absent from fresh output (budget gate not exercised)",
				name, budgetPath))
			continue
		}
		if !got.hasAllocs {
			// Present but unmeasured (run without -benchmem): 0 allocs/op
			// is vacuous here and must fail, not silently pass.
			regressions = append(regressions, fmt.Sprintf(
				"%s: fresh run reports no allocs/op (benchmark not run with -benchmem)", name))
			continue
		}
		limit := want.AllocsPerOp*tolerance + 2
		if got.AllocsPerOp > limit {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.0f allocs/op exceeds budget %.0f (limit %.0f)",
				name, got.AllocsPerOp, want.AllocsPerOp, limit))
		}
	}
	return regressions, nil
}

// checkOverhead pairs "telemetry=on" benchmarks with their
// "telemetry=off" siblings and enforces that instrumentation costs at
// most delta extra allocs/op. Names are walked sorted so reports are
// byte-identical across runs.
func checkOverhead(fresh map[string]*entry, delta float64) []string {
	names := make([]string, 0, len(fresh))
	for name := range fresh {
		names = append(names, name)
	}
	sort.Strings(names)
	var problems []string
	pairs := 0
	for _, name := range names {
		if strings.Contains(name, "telemetry=off") {
			if _, ok := fresh[strings.Replace(name, "telemetry=off", "telemetry=on", 1)]; !ok {
				problems = append(problems, fmt.Sprintf(
					"%s: no telemetry=on sibling in input (overhead gate not exercised)", name))
			}
			continue
		}
		if !strings.Contains(name, "telemetry=on") {
			continue
		}
		off, ok := fresh[strings.Replace(name, "telemetry=on", "telemetry=off", 1)]
		if !ok {
			problems = append(problems, fmt.Sprintf(
				"%s: no telemetry=off sibling in input (overhead gate not exercised)", name))
			continue
		}
		on := fresh[name]
		if !on.hasAllocs || !off.hasAllocs {
			problems = append(problems, fmt.Sprintf(
				"%s: pair not run with -benchmem (no allocs/op to compare)", name))
			continue
		}
		pairs++
		if on.AllocsPerOp > off.AllocsPerOp+delta {
			problems = append(problems, fmt.Sprintf(
				"%s: %.0f allocs/op vs %.0f disabled exceeds overhead delta %.0f",
				name, on.AllocsPerOp, off.AllocsPerOp, delta))
		}
	}
	if pairs == 0 && len(problems) == 0 {
		problems = append(problems, "no telemetry=on/off benchmark pairs in input (overhead gate not exercised)")
	}
	return problems
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	budget := flag.String("budget", "", "BENCH_*.json to enforce allocs/op budgets against (exit 1 on regression or on an enforced entry absent from input)")
	budgetMatch := flag.String("budget-match", "", "regexp scoping which -budget entries this invocation enforces (default: all)")
	tolerance := flag.Float64("tolerance", 1.25, "multiplicative slack for -budget comparisons")
	overheadDelta := flag.Float64("overhead-delta", -1,
		"enforce telemetry=on allocs/op <= telemetry=off sibling + N (negative = off; exit 1 on violation or unpaired benchmark)")
	flag.Parse()

	var match *regexp.Regexp
	if *budgetMatch != "" {
		var err error
		if match, err = regexp.Compile(*budgetMatch); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: -budget-match: %v\n", err)
			os.Exit(1)
		}
	}

	d := doc{
		Schema:     "opcua-repro-bench/v1",
		Benchmarks: map[string]*entry{},
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var p parser
	for sc.Scan() {
		name, e := p.parseLine(sc.Text())
		if e == nil {
			continue
		}
		d.Benchmarks[name] = e
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading input: %v\n", err)
		os.Exit(1)
	}

	enc, err := json.MarshalIndent(&d, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}

	if *budget != "" {
		regressions, err := checkBudget(d.Benchmarks, *budget, match, *tolerance)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: budget check: %v\n", err)
			os.Exit(1)
		}
		if len(regressions) > 0 {
			fmt.Fprintln(os.Stderr, "benchjson: allocation budget regressions:")
			for _, r := range regressions {
				fmt.Fprintln(os.Stderr, "  "+r)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: allocation budgets within %s (tolerance %.2f×)\n", *budget, *tolerance)
	}

	if *overheadDelta >= 0 {
		if problems := checkOverhead(d.Benchmarks, *overheadDelta); len(problems) > 0 {
			fmt.Fprintln(os.Stderr, "benchjson: instrumentation overhead violations:")
			for _, p := range problems {
				fmt.Fprintln(os.Stderr, "  "+p)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: telemetry overhead within %.0f allocs/op of disabled siblings\n", *overheadDelta)
	}
}
