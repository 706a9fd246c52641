package opcuastudy

import (
	"bytes"
	"context"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/scanner"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// chaosTestConfig is a one-wave chaos campaign under profile. It scans
// with the armor measure ships (scanner.DefaultResilience), whose
// deadlines run on each grab's virtual timeline: a tarpit costs no wall
// time.
func chaosTestConfig(profile string) CampaignConfig {
	return CampaignConfig{
		Seed:         2020,
		Waves:        []int{7},
		TestKeySizes: true,
		MaxHosts:     60,
		NoiseProb:    1e-5,
		GrabWorkers:  8,
		ChaosProfile: profile,
		ChaosSeed:    7,
	}
}

// countFailures tallies the dataset's failure records per class.
func countFailures(c *Campaign) map[string]int {
	counts := map[string]int{}
	for _, recs := range c.RecordsByWave {
		for _, r := range recs {
			if r.FailureClass != "" {
				counts[r.FailureClass]++
			}
		}
	}
	return counts
}

// TestChaosCampaignDeterministic is the chaos determinism gate: two
// runs of the same chaos-on campaign (same world, same seed) must
// produce byte-identical datasets and identical analyses, and the
// failure-taxonomy telemetry counters must reconcile exactly with the
// failure records in the dataset.
func TestChaosCampaignDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos campaign skipped in -short mode")
	}
	cfg := chaosTestConfig("mixed")
	world, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	first := cfg
	first.Telemetry = reg
	a, err := RunCampaignOnWorld(context.Background(), first, world)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCampaignOnWorld(context.Background(), cfg, world)
	if err != nil {
		t.Fatal(err)
	}
	if x, y := datasetBytes(t, a), datasetBytes(t, b); !bytes.Equal(x, y) {
		t.Errorf("chaos datasets differ across identical runs (%d vs %d bytes)", len(x), len(y))
	}
	if !reflect.DeepEqual(a.Analyses, b.Analyses) {
		t.Error("chaos analyses differ across identical runs")
	}

	failures := countFailures(a)
	if len(failures) == 0 {
		t.Fatal("mixed chaos campaign produced no classified failures")
	}
	for class, n := range failures {
		found := false
		for _, known := range scanner.FailureClasses() {
			if class == known {
				found = true
			}
		}
		if !found {
			t.Errorf("unknown failure class %q (%d records)", class, n)
		}
	}
	snap := reg.Snapshot()
	classCount := func(class string) int {
		needle := `class="` + class + `"`
		total := 0
		for k, v := range snap.Counters {
			if strings.HasPrefix(k, "grab_failures{") && strings.Contains(k, needle) {
				total += int(v)
			}
		}
		return total
	}
	var total int
	for _, class := range scanner.FailureClasses() {
		c := classCount(class)
		if c != failures[class] {
			t.Errorf("class %q: telemetry counted %d, dataset has %d", class, c, failures[class])
		}
		total += c
	}
	if got := int(snap.CounterTotal("grab_failures")); got != total {
		t.Errorf("grab_failures total %d != per-class sum %d", got, total)
	}
	if snap.CounterTotal("grab_retries") == 0 {
		t.Error("mixed chaos campaign should exercise retries (flap/reset hosts)")
	}
}

// TestChaosCampaignSharded is the shard-equivalence gate under chaos:
// the stateless behavior model must keep a 4-shard execution
// byte-identical to the unsharded one even though retries and flap
// attempt numbers play out independently per shard.
func TestChaosCampaignSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos campaign skipped in -short mode")
	}
	cfg := chaosTestConfig("mixed")
	world, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := RunCampaignOnWorld(context.Background(), cfg, world)
	if err != nil {
		t.Fatal(err)
	}
	want := datasetBytes(t, baseline)
	if len(countFailures(baseline)) == 0 {
		t.Fatal("chaos campaign produced no classified failures")
	}

	for _, shards := range []int{1, 4} {
		sharded := cfg
		sharded.Shards = shards
		run, err := RunCampaignOnWorld(context.Background(), sharded, world)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got := datasetBytes(t, run); !bytes.Equal(got, want) {
			t.Errorf("shards=%d: chaos dataset differs from unsharded (%d vs %d bytes)",
				shards, len(got), len(want))
		}
		if !reflect.DeepEqual(run.Analyses, baseline.Analyses) {
			t.Errorf("shards=%d: chaos analyses differ from unsharded", shards)
		}
	}
}

// TestChaosCampaignTarpitCompletes is the non-wedging gate: a campaign
// against a tarpit-heavy world (every chaos host dribbles bytes and
// then stalls) must complete well inside the test deadline — the stage
// deadlines bound each stall, so no grab-pool worker can be wedged —
// and every tarpit failure must classify as a timeout.
func TestChaosCampaignTarpitCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos campaign skipped in -short mode")
	}
	cfg := chaosTestConfig("tarpit")
	world, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	start := time.Now()
	c, err := RunCampaignOnWorld(ctx, cfg, world)
	if err != nil {
		t.Fatalf("tarpit campaign did not complete (after %s): %v", time.Since(start), err)
	}
	failures := countFailures(c)
	if failures[scanner.FailTimeout] == 0 {
		t.Fatal("tarpit campaign produced no timeout records")
	}
	// Every non-timeout failure must be a port-noise host (their
	// non-OPC-UA banners honestly classify as malformed); chaos-driven
	// failures in a tarpit world are timeouts only — a tarpit must
	// never surface as a reset or burn its retry budget.
	noise := world.Net.Noise
	for _, recs := range c.RecordsByWave {
		for _, r := range recs {
			if r.FailureClass == "" || r.FailureClass == scanner.FailTimeout {
				continue
			}
			ap, err := netip.ParseAddrPort(r.Address)
			if err != nil {
				t.Fatalf("record address %q: %v", r.Address, err)
			}
			if r.FailureClass != scanner.FailMalformed || !noise.HitU32(simnet.AddrToU32(ap.Addr()), int(ap.Port())) {
				t.Errorf("tarpit campaign produced %q record for non-noise host %s (err %q)",
					r.FailureClass, r.Address, r.Error)
			}
		}
	}
	for _, w := range c.Scans {
		if w.Partial {
			t.Error("tarpit campaign marked a wave partial — the watchdog wedged the pool")
		}
	}
}

// TestChaosOffIsPolite pins the chaos-off baseline: without a profile
// no resilience armor is armed, no record carries a failure class, no
// taxonomy counter ticks, and two runs stay byte-identical — i.e. the
// adversarial layer is fully inert unless asked for.
func TestChaosOffIsPolite(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos campaign skipped in -short mode")
	}
	cfg := chaosTestConfig("")
	world, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	first := cfg
	first.Telemetry = reg
	a, err := RunCampaignOnWorld(context.Background(), first, world)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCampaignOnWorld(context.Background(), cfg, world)
	if err != nil {
		t.Fatal(err)
	}
	if n := countFailures(a); len(n) != 0 {
		t.Errorf("chaos-off campaign produced failure records: %v", n)
	}
	snap := reg.Snapshot()
	if got := snap.CounterTotal("grab_failures"); got != 0 {
		t.Errorf("chaos-off campaign ticked grab_failures = %d", got)
	}
	if got := snap.CounterTotal("grab_retries"); got != 0 {
		t.Errorf("chaos-off campaign ticked grab_retries = %d", got)
	}
	if x, y := datasetBytes(t, a), datasetBytes(t, b); !bytes.Equal(x, y) {
		t.Errorf("chaos-off datasets differ across identical runs (%d vs %d bytes)", len(x), len(y))
	}
}
