// Command measure runs the full simulated measurement campaign of the
// study: it builds the 1114-server world, executes the selected weekly
// waves, prints every figure and table of the paper's evaluation, and
// optionally writes the (anonymized) dataset as JSONL.
//
// Usage:
//
//	measure [-seed 2020] [-waves 0-7] [-dataset out.jsonl] [-anonymize]
//	        [-testkeys] [-noise 0.002] [-csv] [-max-hosts 0]
//	        [-grab-workers 32] [-chaos mixed,seed=7] [-delta] [-shards 4]
//
// Waves scan one after another, each while the previous one is
// analyzed. -delta runs a delta-wave campaign (DESIGN.md §10): every
// wave after the first fingerprints each host's spec state and skips
// the grab of provably unchanged hosts, cloning their prior records
// instead. The dataset stays byte-identical to the full scan; needs at
// least two selected waves. Composes with -chaos (chaos decisions are
// part of the fingerprint) and -shards (in a fabric the flag travels in
// the campaign spec, so every worker plans the same skips).
//
// -shards N splits every wave's permuted probe space into N shards that
// scan concurrently in this process, each with its own grab pool, and
// merge into the record-for-record unsharded wave (DESIGN.md §2, §5).
//
// Across processes and machines the same plan runs on the shard fabric:
//
//	# Coordinator: lease 4 shards to whichever workers dial in, survive
//	# their loss, merge the committed streams deterministically, analyze
//	# and report the merged campaign:
//	measure -listen :4841 -shards 4 [-dataset out.jsonl] [other flags]
//
//	# Worker (any number, anywhere): the campaign configuration comes
//	# from the coordinator; a campaign flag here is an error:
//	measure -connect coordinator:4841 [-name w1]
//
// Workers always emit raw records (anonymization would desynchronize
// the shards' sequence numbers); the coordinator applies -anonymize to
// the merged stream.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	opcuastudy "repro"
	"repro/internal/chaos"
	"repro/internal/deploy"
	"repro/internal/telemetry"
)

// parseWaves parses the -waves value and rejects at flag time, before
// any world is built, what the campaign would reject after it: waves
// outside the study's schedule and waves selected more than once.
func parseWaves(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		if !isRange {
			hi = lo
		}
		a, err1 := strconv.Atoi(lo)
		b, err2 := strconv.Atoi(hi)
		if err1 != nil || err2 != nil || a > b {
			return nil, fmt.Errorf("-waves %q: invalid wave or range %q", s, part)
		}
		for w := a; w <= b; w++ {
			if w < 0 || w >= len(deploy.WaveDates) {
				return nil, fmt.Errorf("-waves %q: wave %d out of range 0-%d", s, w, len(deploy.WaveDates)-1)
			}
			if slices.Contains(out, w) {
				return nil, fmt.Errorf("-waves %q selects wave %d more than once", s, w)
			}
			out = append(out, w)
		}
	}
	return out, nil
}

// parseChaos parses the -chaos value, "<profile>[,seed=N]". The empty
// string keeps the internet polite. The profile is validated against
// the chaos package's registry so typos fail fast with the known names.
func parseChaos(s string) (string, int64, error) {
	if s == "" {
		return "", 0, nil
	}
	profile, rest, hasSeed := strings.Cut(s, ",")
	var seed int64
	if hasSeed {
		v, ok := strings.CutPrefix(rest, "seed=")
		if !ok {
			return "", 0, fmt.Errorf("invalid -chaos %q: expected <profile>[,seed=N]", s)
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return "", 0, fmt.Errorf("invalid -chaos %q: seed %q is not an integer", s, v)
		}
		seed = n
	}
	if _, err := chaos.ModelForProfile(profile, 1); err != nil {
		return "", 0, fmt.Errorf("invalid -chaos profile %q (known profiles: %s)",
			profile, strings.Join(chaos.Profiles(), ", "))
	}
	return profile, seed, nil
}

// The campaign modes, chosen by -listen and -connect. flagModes maps
// every flag that has no effect in some mode to the modes it has one in
// (-metrics and -debug-addr apply in all); main rejects it in any other
// mode before a world is built or a dial made, saying why (modeText).
const (
	single = 1 << iota
	coordinator
	worker
)

var flagModes = map[string]int{
	"seed": single | coordinator, "waves": single | coordinator, "testkeys": single | coordinator,
	"noise": single | coordinator, "max-hosts": single | coordinator, "chaos": single | coordinator,
	"grab-workers": single | coordinator, "delta": single | coordinator, "shards": single | coordinator,
	"dataset": single | coordinator, "anonymize": single | coordinator, "csv": single | coordinator,
	"trace": single, "metrics-interval": single | worker,
	"listen": coordinator, "dead-after": coordinator, "connect": worker, "name": worker,
	"fault": coordinator | worker, "heartbeat": coordinator | worker,
}

var modeText = map[int]string{
	single:      "without -listen or -connect: it configures the shard fabric",
	coordinator: "with -listen: a fabric coordinator scans nothing itself and writes its metrics once, at the end",
	worker:      "with -connect: a fabric worker takes its study from the coordinator and streams its records back",
}

func main() {
	log.SetFlags(0)
	seed := flag.Int64("seed", 2020, "world generation seed")
	waves := flag.String("waves", "", "waves to run, e.g. \"7\" or \"0-7\" (default all)")
	datasetPath := flag.String("dataset", "", "write the dataset as JSONL to this file")
	anonymize := flag.Bool("anonymize", false, "apply release anonymization to the dataset")
	testKeys := flag.Bool("testkeys", false, "use 512-bit keys (fast, breaks key-length analysis)")
	noise := flag.Float64("noise", 0.002, "open-port noise probability")
	csv := flag.Bool("csv", false, "print tables as CSV instead of text")
	maxHosts := flag.Int("max-hosts", 0, "truncate the simulated population (0 = all; breaks paper fidelity)")
	grabWorkers := flag.Int("grab-workers", 0, "scanner worker pool size (0 = default 32; per shard when sharded)")
	chaosSpec := flag.String("chaos", "",
		"adversarial host model, <profile>[,seed=N] (profiles: "+strings.Join(chaos.Profiles(), ", ")+"; seed defaults to -seed)")
	delta := flag.Bool("delta", false,
		"delta-wave campaign: fingerprint host state per wave and clone unchanged hosts' prior records instead of re-grabbing (needs at least 2 selected waves)")
	shards := flag.Int("shards", 0, "shard every wave's probe space N ways: concurrently in this process, or with -listen leased to networked workers")
	listenAddr := flag.String("listen", "", "fabric coordinator mode: lease shards to networked workers on this address (with -shards)")
	connectAddr := flag.String("connect", "", "fabric worker mode: dial this coordinator and execute leased shards")
	workerName := flag.String("name", "", "fabric worker name (default worker-<pid>)")
	faultSpec := flag.String("fault", "", "fabric fault injection for tests: worker kill=N | stall=N | drop=N, coordinator dupgrant")
	heartbeat := flag.Duration("heartbeat", 2*time.Second, "fabric worker heartbeat cadence (coordinator: recorded in the campaign spec for information; workers use their own)")
	deadAfter := flag.Duration("dead-after", 10*time.Second, "fabric coordinator: declare a worker dead after this heartbeat gap and re-queue its shards")
	metricsPath := flag.String("metrics", "", "stream telemetry snapshots as NDJSON to this file (\"-\" = stdout); a fabric coordinator writes the merge stage's and its own closing snapshots")
	metricsInterval := flag.Duration("metrics-interval", 0, "periodic snapshot cadence (0 = closing snapshot only)")
	tracePath := flag.String("trace", "", "dump the span-style exchange trace as NDJSON to this file (single-process mode)")
	debugAddr := flag.String("debug-addr", "", "serve expvar (/debug/vars) and pprof (/debug/pprof) on this address for live campaigns")
	flag.Parse()

	mode := single
	if *connectAddr != "" {
		mode = worker
	} else if *listenAddr != "" {
		mode = coordinator
	}
	flag.Visit(func(f *flag.Flag) {
		if m, ok := flagModes[f.Name]; ok && m&mode == 0 {
			log.Fatalf("-%s has no effect %s", f.Name, modeText[mode])
		}
	})
	waveList, err := parseWaves(*waves)
	if err != nil {
		log.Fatal(err)
	}
	chaosProfile, chaosSeed, err := parseChaos(*chaosSpec)
	if err != nil {
		log.Fatal(err)
	}
	// Fail the composition error at flag time with the actual values,
	// before any world is built.
	if *delta && waveList != nil && len(waveList) < 2 {
		log.Fatalf("-delta diffs consecutive waves and needs at least 2 selected, got -waves %q selecting %d wave(s)", *waves, len(waveList))
	}
	cfg := opcuastudy.CampaignConfig{
		Seed:         *seed,
		Waves:        waveList,
		TestKeySizes: *testKeys,
		NoiseProb:    *noise,
		MaxHosts:     *maxHosts,
		Anonymize:    *anonymize,
		GrabWorkers:  *grabWorkers,
		ChaosProfile: chaosProfile,
		ChaosSeed:    chaosSeed,
		Delta:        *delta,
		Progressf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}

	mopts := metricsOptions{
		Path:      *metricsPath,
		Interval:  *metricsInterval,
		TracePath: *tracePath,
		DebugAddr: *debugAddr,
	}
	switch mode {
	case worker:
		err = runFabricWorker(cfg, *connectAddr, *workerName, *faultSpec, *heartbeat, mopts)
	case coordinator:
		err = runFabricCoordinator(cfg, *listenAddr, *shards, *deadAfter, *heartbeat, *faultSpec, *datasetPath, *csv, mopts)
	default:
		cfg.Shards = *shards
		err = runSingle(cfg, *datasetPath, *csv, mopts)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// runSingle is the single-process campaign. The telemetry registry is
// always live — the closing summary table reads it — and -metrics
// additionally streams its snapshots as NDJSON.
func runSingle(cfg opcuastudy.CampaignConfig, datasetPath string, csv bool, mopts metricsOptions) error {
	cfg.Telemetry = telemetry.New()
	if mopts.TracePath != "" {
		cfg.Trace = telemetry.NewTracer(0)
	}
	if err := serveDebug(mopts.DebugAddr, cfg.Telemetry); err != nil {
		return err
	}
	streamer, err := newMetricsStreamer(mopts.Path, mopts.Interval, cfg.Telemetry, "")
	if err != nil {
		return err
	}
	c, err := opcuastudy.RunCampaign(context.Background(), cfg)
	serr := streamer.Stop()
	if err != nil {
		return err
	}
	if serr != nil {
		return serr
	}
	if err := dumpTrace(mopts.TracePath, cfg.Trace); err != nil {
		return err
	}

	tables := c.Report()
	tables = append(tables, summaryTable(cfg.Telemetry.Snapshot()))
	printTables(tables, csv)

	if datasetPath != "" {
		f, err := os.Create(datasetPath)
		if err != nil {
			return err
		}
		if err := c.WriteDataset(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "dataset written to %s\n", datasetPath)
	}
	return nil
}

func printTables(tables []*opcuastudy.Table, csv bool) {
	for _, tbl := range tables {
		if csv {
			fmt.Println(tbl.CSV())
		} else {
			fmt.Println(tbl.Render())
		}
	}
}
