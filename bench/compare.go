package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median (0 for fewer than four samples, where
// quartiles say nothing).
func quartileSpread(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	// The exclusive method of Python's statistics.quantiles(n=4).
	q := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		lo := min(max(int(pos), 0), len(s)-2)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / med
}

// verdict judges b against the baseline a for one metric.
//
//   - exact counts must be equal: otherwise "regressed";
//   - a bounded metric whose median worsened by more than its bound is
//     "regressed";
//   - otherwise, when either side's quartile spread is wider than the
//     bound, the comparison is "unresolved" rather than unchanged —
//     unless every sample of b reads better than every sample of a;
//   - everything else, and metrics without a bound, are "ok".
func verdict(def metricDef, a, b metricValue) string {
	if def.Exact {
		if a.Value != b.Value {
			return "regressed"
		}
		return "ok"
	}
	if def.Bound == 0 {
		return "ok"
	}
	worse := (b.Value - a.Value) / a.Value
	if def.Better == "higher" {
		worse = -worse
	}
	if worse > def.Bound {
		return "regressed"
	}
	if max(quartileSpread(a.Samples), quartileSpread(b.Samples)) > def.Bound {
		allBetter := len(a.Samples) > 0 && len(b.Samples) > 0
		if def.Better == "higher" {
			allBetter = allBetter && slices.Min(b.Samples) > slices.Max(a.Samples)
		} else {
			allBetter = allBetter && slices.Max(b.Samples) < slices.Min(a.Samples)
		}
		if !allBetter {
			return "unresolved"
		}
	}
	return "ok"
}

// compareFiles prints one row per (workload, metric) present in both
// results — both medians, the relative difference with its base, the
// bound and the verdict — and reports whether any row regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base a = %s (commit %s, seed %d, %s sizing)\n", pathA, a.Env.Commit, a.Env.Seed, a.Env.Sizing)
	fmt.Fprintf(w, "     b = %s (commit %s, seed %d, %s sizing)\n", pathB, b.Env.Commit, b.Env.Seed, b.Env.Sizing)
	fmt.Fprintf(w, "%-14s %-32s %12s %12s %10s %7s  %s\n", "workload", "metric", "a", "b", "(b-a)/a", "bound", "verdict")
	for _, wa := range a.Workloads {
		i := slices.IndexFunc(b.Workloads, func(wb *workloadResult) bool { return wb.Name == wa.Name })
		if i < 0 {
			continue
		}
		wb := b.Workloads[i]
		names := make([]string, 0, len(wa.Metrics))
		for name := range wa.Metrics {
			if _, ok := wb.Metrics[name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			def, ok := findMetric(name)
			if !ok {
				continue
			}
			ma, mb := wa.Metrics[name], wb.Metrics[name]
			v := verdict(def, ma, mb)
			regressed = regressed || v == "regressed"
			rel, bound := "n/a", "-"
			if ma.Value != 0 {
				rel = fmt.Sprintf("%+.1f%%", 100*(mb.Value-ma.Value)/ma.Value)
			}
			if def.Exact {
				bound = "exact"
			} else if def.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*def.Bound)
			}
			fmt.Fprintf(w, "%-14s %-32s %12.6g %12.6g %10s %7s  %s\n", wa.Name, name, ma.Value, mb.Value, rel, bound, v)
		}
		if wb.Failed > wa.Failed {
			regressed = true
			fmt.Fprintf(w, "%-14s %-32s %12d %12d %10s %7s  regressed\n", wa.Name, "failed checks", wa.Failed, wb.Failed, "", "0")
		}
	}
	return regressed, nil
}
