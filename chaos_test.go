package opcuastudy

import (
	"bytes"
	"context"
	"net/netip"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/scanner"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

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

// chaosTestConfig is a one-wave campaign of the waves=0-7 fixture's
// world under profile. It scans with the armor measure ships
// (scanner.DefaultResilience), whose deadlines run on each grab's
// virtual timeline: a tarpit costs no wall time.
func chaosTestConfig(profile string) CampaignConfig {
	cfg := deltaTestConfig(profile)
	cfg.Waves = []int{7}
	return cfg
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
	world := deltaFix.worldOf(t)
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

// TestChaosOffIsPolite pins the chaos-off baseline: without a profile
// no resilience armor is armed, no record carries a failure class, no
// taxonomy counter ticks, and two runs stay byte-identical — i.e. the
// adversarial layer is fully inert unless asked for.
func TestChaosOffIsPolite(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos campaign skipped in -short mode")
	}
	cfg := chaosTestConfig("")
	world := deltaFix.worldOf(t)
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

// TestCampaignConcurrentStudiesOwnChaos runs two studies on one world
// at once, a polite delta campaign and a chaos-mixed one, sequenced so
// that the chaos campaign starts between the polite campaign's two
// snapshots. Each must reproduce its solo run's dataset bytes: a chaos
// model kept on the shared world would reach the polite campaign's
// second wave.
func TestCampaignConcurrentStudiesOwnChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign equivalence skipped in -short mode")
	}
	world := execFix.worldOf(t)
	// Waves 5 and 7: the delta wave re-grabs enough hosts (renewals and
	// churn over two weeks) that the mixed model reaches some of them.
	polite := execFixture("")
	polite.Delta, polite.Waves = true, []int{5, 7}
	chaotic := execFixture("mixed")
	solo := func(cfg CampaignConfig) []byte {
		c, err := RunCampaignOnWorld(context.Background(), cfg, world)
		if err != nil {
			t.Fatal(err)
		}
		return datasetBytes(t, c)
	}
	wantPolite, wantChaos := solo(polite), solo(chaotic)

	// A campaign reports "wave N (date): scanning..." right after it
	// snapshots wave N. The polite campaign holds there after its first
	// snapshot until the chaos campaign has taken its own.
	scanning := func(format string) bool { return strings.HasSuffix(format, "scanning...") }
	politeSnapped, politeDone, chaosStarted := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var politeOnce, chaosOnce sync.Once
	startChaos := func() { chaosOnce.Do(func() { close(chaosStarted) }) }
	polite.Progressf = func(format string, _ ...any) {
		if scanning(format) {
			politeOnce.Do(func() {
				close(politeSnapped)
				<-chaosStarted
			})
		}
	}
	chaotic.Progressf = func(format string, _ ...any) {
		if scanning(format) {
			startChaos()
		}
	}
	var (
		wg              sync.WaitGroup
		politeC, chaosC *Campaign
		politeE, chaosE error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(politeDone)
		politeC, politeE = RunCampaignOnWorld(context.Background(), polite, world)
	}()
	go func() {
		defer wg.Done()
		defer startChaos()
		select {
		case <-politeSnapped:
		case <-politeDone:
		}
		chaosC, chaosE = RunCampaignOnWorld(context.Background(), chaotic, world)
	}()
	wg.Wait()
	if politeE != nil || chaosE != nil {
		t.Fatalf("polite: %v, chaos: %v", politeE, chaosE)
	}
	if got := datasetBytes(t, politeC); !bytes.Equal(got, wantPolite) {
		t.Errorf("the polite campaign's dataset differs from its solo run's (%d vs %d bytes)", len(got), len(wantPolite))
	}
	if got := datasetBytes(t, chaosC); !bytes.Equal(got, wantChaos) {
		t.Errorf("the chaos campaign's dataset differs from its solo run's (%d vs %d bytes)", len(got), len(wantChaos))
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
	world := deltaFix.worldOf(t)
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
