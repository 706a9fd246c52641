package pipeline

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/telemetry"
)

// AnalyzerConfig tunes the streaming analyzer.
type AnalyzerConfig struct {
	// Retain keeps every finalized WaveAnalysis (and therefore the
	// wave's records, which it references) for Results, and finalizes
	// each wave on a goroutine while the next waves' records are added:
	// the waves stay alive anyway, so the overlap costs no memory. With
	// Retain false the analyzer holds at most one wave's records at a
	// time — the flat-memory configuration: peak heap is O(largest
	// wave), not O(campaign) — so a wave finalizes inline, in the Put
	// that starts the next one, and Results returns only the
	// longitudinal fold.
	Retain bool
	// OnWave, if set, observes each WaveAnalysis as it finalizes,
	// before the analyzer drops it (when Retain is false). The callback
	// must not keep the analysis alive if the caller wants the flat
	// memory profile. Calls come in wave order, one at a time; with
	// Retain they come from the finalizing goroutine, not from Put's.
	OnWave func(*core.WaveAnalysis)
	// Metrics receives fold-throughput instruments (analyzer_records,
	// analyzer_waves, analyzer_fold_ns — the cumulative time spent in
	// wave finalization); nil disables them at zero cost.
	Metrics *telemetry.Registry
}

// Analyzer folds a wave-ordered record stream into per-wave analyses
// and the longitudinal series, wave by wave: records of wave w are
// accumulated incrementally, the wave finalizes when the first record
// of wave w+1 arrives (or at Close), and the finalized analysis is
// immediately folded into the longitudinal accumulator. It implements
// RecordSink, so it can terminate any pipeline.
//
// Waves finalize in wave order, one at a time, as the campaign's
// shared weak-key index requires (core.WaveAccumulator): inline or, with
// Retain, each on a goroutine that starts once the wave before it is
// folded. Close waits for the last.
//
// The input must be wave-ordered (every campaign path is: waves are
// merged in wave order, shard streams are wave-ordered per worker and
// merged wave-aligned); a record whose wave decreases is an error.
type Analyzer struct {
	cfg      AnalyzerConfig
	acc      *core.WaveAccumulator
	wave     int
	long     *core.LongitudinalAccumulator
	analyses []*core.WaveAnalysis
	longOut  *core.Longitudinal
	closed   bool
	// folded is closed once the last wave handed to a goroutine is
	// folded; nil until one is.
	folded chan struct{}

	records *telemetry.Counter
	waves   *telemetry.Counter
	foldNs  *telemetry.Counter
}

// NewAnalyzer returns an empty streaming analyzer.
func NewAnalyzer(cfg AnalyzerConfig) *Analyzer {
	return &Analyzer{
		cfg:     cfg,
		long:    core.NewLongitudinalAccumulator(cfg.Retain),
		records: cfg.Metrics.Counter("analyzer_records"),
		waves:   cfg.Metrics.Counter("analyzer_waves"),
		foldNs:  cfg.Metrics.Counter("analyzer_fold_ns"),
	}
}

// Put folds one record. Implements RecordSink.
func (a *Analyzer) Put(rec *dataset.HostRecord) error {
	if a.closed {
		return fmt.Errorf("pipeline: analyzer: Put after Close")
	}
	switch {
	case a.acc == nil:
		a.acc = a.long.NewWave(rec.Wave, rec.Date)
		a.wave = rec.Wave
	case rec.Wave > a.wave:
		a.finishWave()
		a.acc = a.long.NewWave(rec.Wave, rec.Date)
		a.wave = rec.Wave
	case rec.Wave < a.wave:
		return fmt.Errorf("pipeline: analyzer: record stream not wave-ordered (wave %d after %d)",
			rec.Wave, a.wave)
	}
	a.acc.Add(rec)
	a.records.Inc()
	return nil
}

// finishWave hands the in-flight wave to finalization: inline, or with
// Retain on a goroutine that waits for the wave before it.
func (a *Analyzer) finishWave() {
	acc := a.acc
	a.acc = nil
	if !a.cfg.Retain {
		a.finalize(acc)
		return
	}
	before, folded := a.folded, make(chan struct{})
	a.folded = folded
	go func() {
		defer close(folded)
		if before != nil {
			<-before
		}
		a.finalize(acc)
	}()
}

// finalize closes one wave and folds it.
func (a *Analyzer) finalize(acc *core.WaveAccumulator) {
	foldStart := a.foldNs.StartNs()
	w := acc.Finalize(0)
	a.long.AddWave(w)
	a.foldNs.AddSince(foldStart)
	a.waves.Inc()
	if a.cfg.Retain {
		a.analyses = append(a.analyses, w)
	}
	if a.cfg.OnWave != nil {
		a.cfg.OnWave(w)
	}
}

// Close finalizes the last wave and the longitudinal fold. Implements
// RecordSink.
func (a *Analyzer) Close() error {
	if a.closed {
		return fmt.Errorf("pipeline: analyzer: closed twice")
	}
	a.closed = true
	if a.acc != nil {
		a.finishWave()
	}
	if a.folded != nil {
		<-a.folded
	}
	a.longOut = a.long.Finalize()
	return nil
}

// Results returns the retained per-wave analyses (nil unless
// AnalyzerConfig.Retain) and the longitudinal analysis. Valid after
// Close.
func (a *Analyzer) Results() ([]*core.WaveAnalysis, *core.Longitudinal) {
	return a.analyses, a.longOut
}
