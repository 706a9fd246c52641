package core

import (
	"time"

	"repro/internal/stats"
	"repro/internal/weakkeys"
)

// RenewalEvent is a certificate change on a host with a static address
// between consecutive waves (§5.5).
type RenewalEvent struct {
	Address        string
	Wave           int // the wave where the new certificate appeared
	OldHash        string
	NewHash        string
	SoftwareUpdate bool // SoftwareVersion changed in the same wave
	Upgraded       bool // SHA-1 → SHA-256
	Downgraded     bool // SHA-256 → SHA-1
}

// Longitudinal aggregates across all waves (§5.5).
type Longitudinal struct {
	Waves []*WaveAnalysis

	DeficientSeries  []float64
	DeficientSummary stats.Summary

	Renewals        []RenewalEvent
	UpgradedSHA1    int
	Downgraded      int
	SoftwareUpdates int

	// Distinct certificates observed over the whole campaign.
	TotalCerts   int
	SHA1Certs    int
	SHA1Post2017 int
	SHA1Post2019 int

	// Same-organization reuse growth (the paper's 263 → 387 devices).
	ReuseGrowth []int
}

// certState is the longitudinal fold's per-address memory. It copies
// the strings it needs out of the wave, so a non-retaining fold keeps
// no reference to the wave's records.
type certState struct {
	thumb   string
	hash    string
	version string
}

// LongitudinalAccumulator folds WaveAnalysis values in wave order into
// the §5.5 longitudinal series. The fold reads each wave once at
// AddWave time and keeps only per-address certificate state, so a
// streaming campaign can discard a wave's records as soon as its
// analysis has been folded; pass keepWaves=false to also drop the
// per-wave analyses from the result (Longitudinal.Waves stays nil, the
// flat-memory configuration of the record pipeline). It also owns the
// campaign's weak-key index, which every wave it starts (NewWave) shares.
type LongitudinalAccumulator struct {
	keepWaves bool
	l         *Longitudinal
	last      map[string]certState
	certSeen  map[string]bool
	weak      *weakkeys.Index
	done      bool
}

// NewLongitudinalAccumulator starts an empty fold.
func NewLongitudinalAccumulator(keepWaves bool) *LongitudinalAccumulator {
	return &LongitudinalAccumulator{
		keepWaves: keepWaves,
		l:         &Longitudinal{},
		last:      map[string]certState{},
		certSeen:  map[string]bool{},
		weak:      weakkeys.NewIndex(),
	}
}

// NewWave starts an empty fold for one wave of this campaign. Its
// analysis equals NewWaveAccumulator's; the campaign's waves share one
// weak-key index, so each pays a batch GCD only over the moduli it adds.
func (la *LongitudinalAccumulator) NewWave(wave int, date time.Time) *WaveAccumulator {
	return newWaveAccumulator(wave, date, la.weak)
}

var (
	cut2017 = time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	cut2019 = time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
)

// AddWave folds one wave's analysis. Waves must arrive in wave order.
func (la *LongitudinalAccumulator) AddWave(w *WaveAnalysis) {
	l := la.l
	if la.keepWaves {
		l.Waves = append(l.Waves, w)
	}
	l.DeficientSeries = append(l.DeficientSeries, w.DeficientFrac)

	for _, h := range w.Servers {
		r := h.Record
		if r.Cert == nil {
			continue
		}
		if !la.certSeen[r.Cert.Thumbprint] {
			la.certSeen[r.Cert.Thumbprint] = true
			l.TotalCerts++
			if r.Cert.Hash == "SHA-1" {
				l.SHA1Certs++
				if r.Cert.NotBefore.After(cut2017) {
					l.SHA1Post2017++
				}
				if r.Cert.NotBefore.After(cut2019) {
					l.SHA1Post2019++
				}
			}
		}
		prev, ok := la.last[r.Address]
		if ok && prev.thumb != r.Cert.Thumbprint {
			ev := RenewalEvent{
				Address:        r.Address,
				Wave:           w.Wave,
				OldHash:        prev.hash,
				NewHash:        r.Cert.Hash,
				SoftwareUpdate: prev.version != r.SoftwareVersion,
				Upgraded:       prev.hash == "SHA-1" && r.Cert.Hash == "SHA-256",
				Downgraded:     prev.hash == "SHA-256" && r.Cert.Hash == "SHA-1",
			}
			l.Renewals = append(l.Renewals, ev)
			if ev.Upgraded {
				l.UpgradedSHA1++
			}
			if ev.Downgraded {
				l.Downgraded++
			}
			if ev.SoftwareUpdate {
				l.SoftwareUpdates++
			}
		}
		la.last[r.Address] = certState{
			thumb: r.Cert.Thumbprint,
			hash:  r.Cert.Hash, version: r.SoftwareVersion,
		}
	}

	// Same-organization reuse growth: hosts sharing any certificate
	// whose subject organization matches the biggest cluster's.
	bigOrg := ""
	bigHosts := 0
	for _, c := range w.ReuseClustersAtLeast(3) {
		if c.Hosts > bigHosts {
			bigHosts = c.Hosts
			bigOrg = c.SubjectOrg
		}
	}
	count := 0
	for _, c := range w.ReuseClustersAtLeast(3) {
		if c.SubjectOrg == bigOrg && bigOrg != "" {
			count += c.Hosts
		}
	}
	l.ReuseGrowth = append(l.ReuseGrowth, count)
}

// Finalize computes the summary statistics and returns the
// longitudinal analysis. The accumulator must not be used afterwards.
func (la *LongitudinalAccumulator) Finalize() *Longitudinal {
	if la.done {
		panic("core: LongitudinalAccumulator finalized twice")
	}
	la.done = true
	la.l.DeficientSummary = stats.Summarize(la.l.DeficientSeries)
	return la.l
}
