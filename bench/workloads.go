package main

import (
	"fmt"
	"slices"
	"time"

	opcuastudy "repro"
)

// Load sizing, the same in every workload: at most eight grabs in
// flight, and the fabric run leases four shards to two workers over
// loopback TCP.
const (
	grabsInFlight = 8
	fabricShards  = 4
	fabricWorkers = 2
	rttShards     = 2
)

// sizing scales the one world and the four workloads to a time budget.
// The workload definitions never change, only how many waves and hosts
// they cover and how large the keys are.
type sizing struct {
	Name         string
	TestKeySizes bool
	MaxHosts     int
	// FullWaves is the full-scan campaign; DeltaWaves the delta campaign
	// of both executors (a delta run needs at least two waves and is
	// carried by the waves after its first).
	FullWaves  []int
	DeltaWaves []int
	RTT        time.Duration
	// Setups is how many times the world is built; set-up time is the
	// median (once at paper sizing, where one build takes 35 s).
	Setups int
	// Headlines turns on the paper-headline checks, which need the whole
	// population.
	Headlines bool
}

func waves(first, last int) []int {
	var ws []int
	for w := first; w <= last; w++ {
		ws = append(ws, w)
	}
	return ws
}

// sizings: "paper" is the issue's definition (full8, delta8, rtt_w7,
// fabric_delta8 on real key sizes; about five minutes, of which 35 s
// are the 2048-bit world). "driver" is what BENCHMARK.json runs: the
// same 1,114-server population on 512-bit keys with fewer waves, so one
// invocation — three set-ups, the reference campaign and the timed reps
// — ends in about 25 s. "smoke" is the unit test's.
var sizings = []sizing{
	{Name: "paper", FullWaves: waves(0, 7), DeltaWaves: waves(0, 7),
		RTT: 5 * time.Millisecond, Setups: 1, Headlines: true},
	{Name: "driver", TestKeySizes: true, FullWaves: waves(6, 7), DeltaWaves: waves(4, 7),
		RTT: time.Millisecond, Setups: 3, Headlines: true},
	{Name: "smoke", TestKeySizes: true, MaxHosts: 400, FullWaves: waves(6, 7), DeltaWaves: waves(6, 7),
		RTT: time.Millisecond, Setups: 1},
}

func sizingByName(name string) (sizing, error) {
	for _, s := range sizings {
		if s.Name == name {
			return s, nil
		}
	}
	return sizing{}, fmt.Errorf("unknown sizing %q (paper, driver, smoke)", name)
}

// workload is one named closed-loop campaign: the next rep starts when
// the previous one's dataset is flushed, closed and checked.
type workload struct {
	Name string
	Why  string
	// Cfg is the executor's configuration without sink and telemetry.
	Cfg opcuastudy.CampaignConfig
	RTT time.Duration
	// Fabric runs the campaign through the coordinator and its workers
	// instead of RunCampaignOnWorld.
	Fabric bool
}

func (w *workload) config() workloadConfig {
	shards := w.Cfg.Shards
	c := workloadConfig{Executor: "RunCampaignOnWorld", RTTMs: w.RTT.Seconds() * 1e3}
	if w.Fabric {
		shards = fabricShards
		c.Executor, c.Workers = "fabric", fabricWorkers
	}
	c.Spec = w.Cfg.FabricSpec(shards, fabricHeartbeat)
	return c
}

// baseConfig is the world-shaping part every campaign on the world shares.
func baseConfig(seed int64, sz sizing) opcuastudy.CampaignConfig {
	return opcuastudy.CampaignConfig{
		Seed:         seed,
		TestKeySizes: sz.TestKeySizes,
		MaxHosts:     sz.MaxHosts,
		NoiseProb:    0.002,
		GrabWorkers:  grabsInFlight,
	}
}

// buildWorkloads returns the four workloads at the given sizing.
func buildWorkloads(seed int64, sz sizing) []*workload {
	base := baseConfig(seed, sz)
	base.DiscardRecords = true

	full := base
	full.Waves = sz.FullWaves

	delta := base
	delta.Waves = sz.DeltaWaves
	delta.Delta = true

	rtt := base
	rtt.Waves = []int{7}
	rtt.Shards = rttShards
	rtt.GrabWorkers = grabsInFlight / rttShards

	fab := delta
	fab.GrabWorkers = grabsInFlight / fabricWorkers

	return []*workload{
		{Name: "full", Cfg: full,
			Why: "full scan of every wave: CPU-bound grab, handshake, RSA, codec and server walk; delta and shard layers idle"},
		{Name: "delta", Cfg: delta,
			Why: "delta waves clone unchanged hosts, so port sweeps, fingerprint planning and the first wave carry the run"},
		{Name: "rtt", Cfg: rtt, RTT: sz.RTT,
			Why: "wave 7 on 2 shards with simulated round-trip time: wall clock is round trips, CPU savings show only in cpu_s"},
		{Name: "fabric_delta", Cfg: fab, Fabric: true,
			Why: "the delta campaign through coordinator, TCP workers, decode, merge and streaming fold: guards the executor collapse"},
	}
}

func selectWorkloads(all []*workload, name string) ([]*workload, error) {
	if name == "all" {
		return all, nil
	}
	for _, w := range all {
		if w.Name == name {
			return []*workload{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// referenceWaves is the union of the selected workloads' waves, sorted.
func referenceWaves(ws []*workload) []int {
	var out []int
	for _, w := range ws {
		for _, wave := range w.Cfg.Waves {
			if !slices.Contains(out, wave) {
				out = append(out, wave)
			}
		}
	}
	slices.Sort(out)
	return out
}
