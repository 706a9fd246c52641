package opcuastudy

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// buildMeasure builds cmd/measure into the test's temp dir.
func buildMeasure(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "measure")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/measure").CombinedOutput(); err != nil {
		t.Fatalf("building cmd/measure: %v\n%s", err, out)
	}
	return bin
}

// normalizedDataset reads a JSONL dataset file and returns its record
// count and its normalizedRecords bytes.
func normalizedDataset(t *testing.T, path string) (int, []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := decodeDataset(t, raw)
	return len(recs), normalizedRecords(t, recs)
}

// finalSnapshots reads a -metrics stream and returns its Final
// snapshots by shard tag.
func finalSnapshots(t *testing.T, path string) map[string]*telemetry.Snapshot {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byShard := map[string]*telemetry.Snapshot{}
	for dec := json.NewDecoder(f); dec.More(); {
		s := &telemetry.Snapshot{}
		if err := dec.Decode(s); err != nil {
			t.Fatal(err)
		}
		if s.Final {
			byShard[s.Shard] = s
		}
	}
	return byShard
}

// runFabricMeasure runs one networked campaign of the measure binary:
// a `-listen 127.0.0.1:0` coordinator with coordArgs and `workers`
// `-connect` subprocesses, each streaming its registry into dir. It
// returns the workers' closing snapshots. Which worker executes which
// shard is the fabric's business (a fast worker may take several
// leases, an idle one may steal), so callers assert on sums and on the
// workers that ran something.
func runFabricMeasure(t *testing.T, bin, dir string, workers int, coordArgs ...string) []*telemetry.Snapshot {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	coord := exec.CommandContext(ctx, bin,
		append([]string{"-listen", "127.0.0.1:0", "-heartbeat", "100ms"}, coordArgs...)...)
	stderr, err := coord.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	// The coordinator announces its bound address on its first line.
	var log bytes.Buffer
	lines := bufio.NewReader(io.TeeReader(stderr, &log))
	addr := ""
	for addr == "" {
		line, err := lines.ReadString('\n')
		if rest, ok := strings.CutPrefix(line, "fabric coordinator on "); ok {
			addr = strings.TrimSuffix(strings.Fields(rest)[0], ":")
		} else if err != nil {
			coord.Wait()
			t.Fatalf("coordinator never announced its address: %v\n%s", err, log.Bytes())
		}
	}
	cmds := make([]*exec.Cmd, workers)
	outs := make([]bytes.Buffer, workers)
	metrics := make([]string, workers)
	for i := range cmds {
		metrics[i] = filepath.Join(dir, "worker-"+strconv.Itoa(i)+".metrics.ndjson")
		cmds[i] = exec.CommandContext(ctx, bin, "-connect", addr, "-name", "w"+strconv.Itoa(i),
			"-heartbeat", "100ms", "-metrics", metrics[i])
		cmds[i].Stderr = &outs[i]
		if err := cmds[i].Start(); err != nil {
			t.Fatalf("starting fabric worker %d: %v", i, err)
		}
	}
	io.Copy(io.Discard, lines) // drain into log until the coordinator exits
	cerr := coord.Wait()
	finals := make([]*telemetry.Snapshot, workers)
	for i, cmd := range cmds {
		// A worker caught between sessions when the campaign ends
		// legitimately exhausts its dial budget against the closed
		// listener.
		if werr := cmd.Wait(); werr != nil && !strings.Contains(outs[i].String(), "consecutive dial failures") {
			t.Errorf("fabric worker %d exited: %v\n%s", i, werr, outs[i].Bytes())
		}
		if finals[i] = finalSnapshots(t, metrics[i])["w"+strconv.Itoa(i)]; finals[i] == nil {
			t.Fatalf("fabric worker %d wrote no closing snapshot", i)
		}
	}
	if cerr != nil {
		t.Fatalf("fabric coordinator: %v\n%s", cerr, log.Bytes())
	}
	return finals
}

// TestMeasureMetricsAccounting pins the accounting of a sharded
// cmd/measure campaign in both of its forms. Through the fabric
// (-listen, two -connect workers): the merge stage's snapshot counts
// exactly the merged dataset's records, per wave and in total — every
// record in the released dataset is accounted for — while the workers'
// own counts bound it from above (shards can grab the same follow-up
// reference; the merge dedups), and the coordinator's snapshot shows
// the leases. In one process (-shards alone): the same dataset, the
// same accounting from the single registry, and the per-service request
// and per-result dial counters reaching the summary table.
func TestMeasureMetricsAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess campaign skipped in -short mode")
	}
	bin := buildMeasure(t)
	dir := t.TempDir()
	const shards = 2
	campaign := []string{
		"-shards", strconv.Itoa(shards),
		"-seed", "2020", "-waves", "6,7", "-testkeys",
		"-max-hosts", "60", "-noise", "1e-5", "-grab-workers", "8",
	}
	merged := filepath.Join(dir, "merged.jsonl")
	metrics := filepath.Join(dir, "metrics.ndjson")
	workers := runFabricMeasure(t, bin, dir, shards,
		append(campaign, "-dataset", merged, "-metrics", metrics)...)

	n, want := normalizedDataset(t, merged)
	perWave := map[int]uint64{}
	for _, r := range decodeDataset(t, want) {
		perWave[r.Wave]++
	}
	coord := finalSnapshots(t, metrics)
	mergeSnap, fabricSnap := coord["merge"], coord["fabric"]
	if mergeSnap == nil || fabricSnap == nil {
		t.Fatalf("coordinator metrics lack the merge or fabric snapshot (have %d)", len(coord))
	}
	if got := mergeSnap.CounterTotal("campaign_records"); got != uint64(n) {
		t.Errorf("merge campaign_records = %d, want %d (merged dataset records)", got, n)
	}
	for w, n := range perWave {
		key := `campaign_records{wave="` + strconv.Itoa(w) + `"}`
		if got := mergeSnap.Counters[key]; got != n {
			t.Errorf("merge %s = %d, want %d", key, got, n)
		}
	}
	if got := fabricSnap.CounterTotal("fabric_leases_granted"); got < shards {
		t.Errorf("fabric_leases_granted = %d, want >= %d", got, shards)
	}
	var workerSum, probes uint64
	for _, s := range workers {
		workerSum += s.CounterTotal("campaign_records")
		probes += s.CounterTotal("scan_probes")
	}
	if workerSum < uint64(n) {
		t.Errorf("workers emitted %d records, fewer than the %d merged", workerSum, n)
	}
	if probes == 0 {
		t.Error("workers recorded no scan probes")
	}

	single := filepath.Join(dir, "single.jsonl")
	singleMetrics := filepath.Join(dir, "single.metrics.ndjson")
	out, err := exec.Command(bin, append(campaign, "-dataset", single, "-metrics", singleMetrics)...).CombinedOutput()
	if err != nil {
		t.Fatalf("measure -shards %d: %v\n%s", shards, err, out)
	}
	if _, got := normalizedDataset(t, single); !bytes.Equal(got, want) {
		t.Errorf("in-process sharded dataset differs from the fabric's (%d vs %d bytes)", len(got), len(want))
	}
	snap := finalSnapshots(t, singleMetrics)[""]
	if snap == nil {
		t.Fatal("single-process metrics lack the closing snapshot")
	}
	if got := snap.CounterTotal("campaign_records"); got != uint64(n) {
		t.Errorf("single-process campaign_records = %d, want %d", got, n)
	}
	// The per-service request counters live in the per-wave scope and
	// reach the summary table; so do the connection counters. Every grab
	// of this campaign reaches an OPC UA server, so ok is the one dial
	// result that must be there.
	for w := range perWave {
		for _, service := range []string{"get_endpoints", "find_servers", "create_session", "browse", "read"} {
			key := `ua_requests{wave="` + strconv.Itoa(w) + `",service="` + service + `"}`
			if snap.Counters[key] == 0 {
				t.Errorf("%s = 0", key)
			}
			if !bytes.Contains(out, []byte("requests: "+service)) {
				t.Errorf("summary table has no %q row", "requests: "+service)
			}
		}
		if key := `ua_dials{wave="` + strconv.Itoa(w) + `",result="ok"}`; snap.Counters[key] == 0 {
			t.Errorf("%s = 0", key)
		}
	}
	if !bytes.Contains(out, []byte("dials: ok")) {
		t.Errorf("summary table has no %q row", "dials: ok")
	}
}

// TestMeasureDeltaCoordinator runs the fabric with and without -delta
// and pins the worker-side delta path (RunCampaignShard behind
// -connect): the flag travels to the workers in the campaign spec, the
// merged delta dataset is byte-identical to the full scan's, every
// executed shard falls back exactly once (its first wave) and clones
// records afterwards, and the cloned-record hits stay within the
// dataset's record count.
func TestMeasureDeltaCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess campaign skipped in -short mode")
	}
	bin := buildMeasure(t)
	const shards = 2
	run := func(extra ...string) (string, []*telemetry.Snapshot) {
		t.Helper()
		dir := t.TempDir()
		out := filepath.Join(dir, "merged.jsonl")
		args := append([]string{
			"-shards", strconv.Itoa(shards),
			"-seed", "2020", "-waves", "4-7", "-testkeys",
			"-max-hosts", "60", "-noise", "1e-5", "-grab-workers", "8",
			"-dataset", out, "-metrics", filepath.Join(dir, "metrics.ndjson"),
		}, extra...)
		return dir, runFabricMeasure(t, bin, dir, shards, args...)
	}
	fullDir, fullWorkers := run()
	deltaDir, workers := run("-delta")
	_, want := normalizedDataset(t, filepath.Join(fullDir, "merged.jsonl"))
	records, got := normalizedDataset(t, filepath.Join(deltaDir, "merged.jsonl"))
	if !bytes.Equal(got, want) {
		t.Errorf("delta fabric dataset differs from full scan (%d vs %d bytes)", len(got), len(want))
	}

	var hitSum, fallbackSum uint64
	for i, s := range workers {
		fallbacks := s.CounterTotal("wave_delta_fallbacks")
		if fallbacks == 0 {
			continue // never leased a shard
		}
		if s.CounterTotal("wave_delta_hits") == 0 {
			t.Errorf("worker %d: no delta hits — -delta did not travel, or fingerprints never matched", i)
		}
		hitSum += s.CounterTotal("wave_delta_hits")
		fallbackSum += fallbacks
	}
	if fallbackSum < shards {
		t.Errorf("workers' wave_delta_fallbacks = %d, want >= %d (one per executed shard)", fallbackSum, shards)
	}
	if hitSum == 0 || hitSum >= uint64(records) {
		t.Errorf("delta hits %d out of range (0, %d records)", hitSum, records)
	}
	for i, s := range fullWorkers {
		if s.CounterTotal("wave_delta_fallbacks") != 0 {
			t.Errorf("full-scan worker %d counted delta waves", i)
		}
	}
}

// TestMeasureFlagValidation pins what cmd/measure rejects at flag time,
// before any world is built: wave selections the campaign would refuse
// after the build, -delta over one wave, and flags the chosen mode would
// ignore.
func TestMeasureFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	bin := buildMeasure(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-testkeys", "-waves", "9"}, "wave 9 out of range 0-7"},
		{[]string{"-testkeys", "-waves", "5-7,6"}, "selects wave 6 more than once"},
		{[]string{"-testkeys", "-waves", "7", "-delta"}, "needs at least 2 selected"},
		// A flag with no effect in the chosen mode, one row per mode.
		{[]string{"-connect", "127.0.0.1:1", "-chaos", "mixed"},
			"-chaos has no effect with -connect: a fabric worker takes its study from the coordinator"},
		{[]string{"-listen", "127.0.0.1:0", "-shards", "2", "-testkeys", "-trace", "t.ndjson"},
			"-trace has no effect with -listen"},
		{[]string{"-testkeys", "-waves", "7", "-heartbeat", "1s"}, "-heartbeat has no effect without -listen or -connect"},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		if err == nil || !bytes.Contains(out, []byte(tc.want)) {
			t.Errorf("measure %v: err %v, want %q in\n%s", tc.args, err, tc.want, out)
		}
		if bytes.Contains(out, []byte("building world")) {
			t.Errorf("measure %v failed only after starting the world build", tc.args)
		}
	}
}
