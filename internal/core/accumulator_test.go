package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/dataset"
)

// analyzeWave folds one wave's records as the record pipeline does,
// finalizing on the given number of workers (0 = GOMAXPROCS).
func analyzeWave(wave int, date time.Time, recs []*dataset.HostRecord, workers int) *WaveAnalysis {
	acc := NewWaveAccumulator(wave, date)
	for _, r := range recs {
		acc.Add(r)
	}
	return acc.Finalize(workers)
}

// foldFixture builds a few waves of records exercising every fold path:
// reuse clusters, renewals, discovery servers, weak-ish certs.
func foldFixture() map[int][]*dataset.HostRecord {
	t0 := time.Date(2020, 2, 9, 0, 0, 0, 0, time.UTC)
	byWave := map[int][]*dataset.HostRecord{}
	for w := 0; w < 3; w++ {
		date := t0.AddDate(0, 0, 7*w)
		var recs []*dataset.HostRecord
		for i := 0; i < 6; i++ {
			r := rec("100.64.0.1:4840", 64600+i, nil)
			r.Wave, r.Date = w, date
			r.Address = "100.64.0." + string(rune('1'+i)) + ":4840"
			thumb := "shared"
			if i >= 4 {
				thumb = "solo-" + r.Address
			}
			hash := "SHA-256"
			if i == 5 && w >= 1 {
				thumb, hash = "renewed", "SHA-1" // renewal + downgrade in wave 1
			}
			r.Cert = cert(thumb, hash, 2048, "Bachmann", t0.AddDate(-1, 0, 0))
			recs = append(recs, r)
		}
		disco := rec("100.64.9.9:4840", 64699, func(r *dataset.HostRecord) {
			r.ApplicationType = "DiscoveryServer"
		})
		disco.Wave, disco.Date = w, date
		recs = append(recs, disco)
		byWave[w] = recs
	}
	return byWave
}

// TestWaveAccumulatorMatchesAnalyzeWave pins the serial fold against
// the one that finalizes on GOMAXPROCS workers, field for field.
func TestWaveAccumulatorMatchesAnalyzeWave(t *testing.T) {
	for w, recs := range foldFixture() {
		direct := analyzeWave(w, recs[0].Date, recs, 0)
		acc := NewWaveAccumulator(w, recs[0].Date)
		for _, r := range recs {
			acc.Add(r)
		}
		if acc.Len() != len(recs) {
			t.Errorf("wave %d: Len = %d, want %d", w, acc.Len(), len(recs))
		}
		folded := acc.Finalize(1)
		if !reflect.DeepEqual(direct, folded) {
			t.Errorf("wave %d: serial fold differs from the parallel one:\n%+v\nvs\n%+v",
				w, folded, direct)
		}
	}
}

// TestLongitudinalAccumulatorMatchesAnalyze pins the non-retaining fold
// (keepWaves=false) against the retaining one minus the Waves slice.
func TestLongitudinalAccumulatorMatchesAnalyze(t *testing.T) {
	byWave := foldFixture()
	retained, flat := NewLongitudinalAccumulator(true), NewLongitudinalAccumulator(false)
	for w := 0; w < len(byWave); w++ {
		a := analyzeWave(w, byWave[w][0].Date, byWave[w], 0)
		retained.AddWave(a)
		flat.AddWave(a)
	}
	direct := retained.Finalize()
	if len(direct.Renewals) == 0 || direct.Downgraded == 0 {
		t.Fatal("fixture produced no renewals; fold paths not exercised")
	}
	got := flat.Finalize()
	if got.Waves != nil {
		t.Error("non-retaining fold kept the per-wave analyses")
	}
	want := *direct
	want.Waves = nil
	got2 := *got
	if !reflect.DeepEqual(&want, &got2) {
		t.Errorf("non-retaining fold differs beyond Waves:\n%+v\nvs\n%+v", got2, want)
	}
}
