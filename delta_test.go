package opcuastudy

import (
	"bytes"
	"context"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// deltaTestConfig is the delta-gate fixture: all eight waves, so every
// spec transition the deployment schedules — renewals, churn, the
// follow-references switch-on at wave 3 — crosses at least one delta
// boundary. Chaos campaigns scan with the armor measure ships.
func deltaTestConfig(profile string) CampaignConfig {
	cfg := CampaignConfig{
		Seed:         2020,
		TestKeySizes: true,
		MaxHosts:     60,
		NoiseProb:    1e-5,
		GrabWorkers:  8,
	}
	if profile != "" {
		cfg.ChaosProfile = profile
		cfg.ChaosSeed = 7
	}
	return cfg
}

// TestDeltaCampaignByteIdentical is the PR 10 soundness gate: a delta
// campaign — unchanged hosts fingerprint-skipped, their prior records
// cloned without opening a channel — must produce a byte-identical
// dataset and identical WaveAnalysis/Longitudinal output versus the
// full scan, with and without chaos, unsharded and sharded 4 ways.
// The delta telemetry counters must reconcile exactly: misses equal
// the real grabs performed, hits equal the records cloned, and the
// only fallback is the first wave's unavoidable full scan.
func TestDeltaCampaignByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("delta campaign equivalence skipped in -short mode")
	}
	for _, tc := range []struct {
		name    string
		profile string
	}{
		{"polite", ""},
		{"chaos_mixed", "mixed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := deltaTestConfig(tc.profile)
			world, err := BuildWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			baseline, err := RunCampaignOnWorld(context.Background(), cfg, world)
			if err != nil {
				t.Fatal(err)
			}
			want := datasetBytes(t, baseline)

			for _, shards := range []int{1, 4} {
				delta := cfg
				delta.Delta = true
				delta.Shards = shards
				reg := telemetry.New()
				delta.Telemetry = reg
				run, err := RunCampaignOnWorld(context.Background(), delta, world)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if got := datasetBytes(t, run); !bytes.Equal(got, want) {
					t.Errorf("shards=%d: delta dataset differs from full scan (%d vs %d bytes)",
						shards, len(got), len(want))
				}
				if !reflect.DeepEqual(run.Analyses, baseline.Analyses) {
					t.Errorf("shards=%d: wave analyses differ from full scan", shards)
				}
				if !reflect.DeepEqual(run.Long, baseline.Long) {
					t.Errorf("shards=%d: longitudinal analysis differs from full scan", shards)
				}
				reconcileDeltaCounters(t, run, reg, shards)
			}
		})
	}
}

// reconcileDeltaCounters pins the satellite accounting invariants on an
// in-process delta run: per wave, wave_delta_misses equals the grab
// results the scanner actually produced and wave_delta_hits equals the
// records the wave emitted beyond those grabs (the clones); exactly one
// wave — the first — fell back to a full scan, and every delta wave
// skipped real work.
func reconcileDeltaCounters(t *testing.T, run *Campaign, reg *telemetry.Registry, shards int) {
	t.Helper()
	snap := reg.Snapshot()
	counter := func(name string, w int) int {
		needle := `wave="` + strconv.Itoa(w) + `"`
		total := 0
		for k, v := range snap.Counters {
			if strings.HasPrefix(k, name+"{") && strings.Contains(k, needle) {
				total += int(v)
			}
		}
		return total
	}
	waves := run.Config.Study().Waves
	fallbacks := 0
	for pos, w := range waves {
		fallbacks += counter("wave_delta_fallbacks", w)
		scan := run.Scans[w]
		if scan == nil {
			t.Fatalf("shards=%d wave %d: scan missing", shards, w)
		}
		misses := counter("wave_delta_misses", w)
		hits := counter("wave_delta_hits", w)
		if pos == 0 {
			if misses != 0 || hits != 0 {
				t.Errorf("shards=%d wave %d: fallback wave counted misses=%d hits=%d",
					shards, w, misses, hits)
			}
			continue
		}
		if misses != len(scan.Results) {
			t.Errorf("shards=%d wave %d: wave_delta_misses=%d, want %d real grabs",
				shards, w, misses, len(scan.Results))
		}
		cloned := len(run.RecordsByWave[w]) - len(scan.DatasetResults())
		if hits != cloned {
			t.Errorf("shards=%d wave %d: wave_delta_hits=%d, want %d cloned records",
				shards, w, hits, cloned)
		}
		if hits == 0 {
			t.Errorf("shards=%d wave %d: delta wave cloned nothing — fingerprints never matched",
				shards, w)
		}
		if misses >= len(run.RecordsByWave[w]) {
			t.Errorf("shards=%d wave %d: %d grabs for %d records — delta skipped nothing",
				shards, w, misses, len(run.RecordsByWave[w]))
		}
	}
	if fallbacks != 1 {
		t.Errorf("shards=%d: wave_delta_fallbacks total %d, want exactly 1 (first wave)",
			shards, fallbacks)
	}
}

// TestDeltaCampaignNeedsTwoWaves pins the validation error: a delta
// campaign over fewer than two waves has nothing to diff.
func TestDeltaCampaignNeedsTwoWaves(t *testing.T) {
	cfg := deltaTestConfig("")
	cfg.Waves = []int{7}
	cfg.Delta = true
	world, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCampaignOnWorld(context.Background(), cfg, world); err == nil {
		t.Fatal("delta campaign with one wave did not error")
	} else if !strings.Contains(err.Error(), "at least 2") {
		t.Fatalf("unexpected error: %v", err)
	}
}
