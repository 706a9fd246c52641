package pipeline

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// synthRecord builds one synthetic server record. pad sizes the record
// so memory tests can make waves big enough to measure.
func synthRecord(wave, host int, via string, pad int) *dataset.HostRecord {
	addr := fmt.Sprintf("100.64.%d.%d:4840", host/250, host%250+1)
	r := &dataset.HostRecord{
		Wave:            wave,
		Date:            time.Date(2020, 2, 9, 0, 0, 0, 0, time.UTC).AddDate(0, 0, 7*wave),
		Address:         addr,
		ASN:             64600 + host%40,
		Via:             via,
		ReachedOPCUA:    true,
		AppURI:          fmt.Sprintf("urn:bachmann.info:M1:%04x", host),
		ApplicationType: "Server",
		Endpoints: []dataset.EndpointRecord{{
			URL: "opc.tcp://" + addr, Mode: "None",
			PolicyURI:  "http://opcfoundation.org/UA/SecurityPolicy#None",
			TokenTypes: []string{"Anonymous"},
		}},
		AnonOffered: true,
		Namespaces:  []string{strings.Repeat("x", pad)},
	}
	if host%3 == 0 {
		r.Cert = &dataset.CertRecord{
			Thumbprint: fmt.Sprintf("thumb-%04x", host%5),
			Hash:       "SHA-256", Bits: 2048, SubjectOrg: "Bachmann",
			NotBefore: time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC),
		}
	}
	return r
}

func synthWave(wave, hosts, pad int) []*dataset.HostRecord {
	recs := make([]*dataset.HostRecord, 0, hosts)
	for h := 0; h < hosts; h++ {
		recs = append(recs, synthRecord(wave, h, "portscan", pad))
	}
	return recs
}

// TestAnalyzerMatchesSliceAnalysis pins the streaming analyzer against
// the core accumulators fed wave slices directly, on a three-wave stream.
func TestAnalyzerMatchesSliceAnalysis(t *testing.T) {
	var all []*dataset.HostRecord
	var want []*core.WaveAnalysis
	la := core.NewLongitudinalAccumulator(true)
	for w := 0; w < 3; w++ {
		recs := synthWave(w, 40, 0)
		all = append(all, recs...)
		acc := core.NewWaveAccumulator(w, recs[0].Date)
		for _, r := range recs {
			acc.Add(r)
		}
		want = append(want, acc.Finalize(1))
		la.AddWave(want[w])
	}
	wantLong := la.Finalize()

	a := NewAnalyzer(AnalyzerConfig{Retain: true})
	for _, r := range all {
		if err := a.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	analyses, long := a.Results()
	if !reflect.DeepEqual(analyses, want) {
		t.Error("streaming per-wave analyses differ from slice-based")
	}
	if !reflect.DeepEqual(long, wantLong) {
		t.Error("streaming longitudinal differs from slice-based")
	}
}

// TestAnalyzerRejectsUnorderedStream pins the wave-order requirement.
func TestAnalyzerRejectsUnorderedStream(t *testing.T) {
	a := NewAnalyzer(AnalyzerConfig{})
	if err := a.Put(synthRecord(2, 0, "portscan", 0)); err != nil {
		t.Fatal(err)
	}
	if err := a.Put(synthRecord(1, 1, "portscan", 0)); err == nil {
		t.Error("decreasing wave accepted")
	}
}

// TestAnalyzerFlatMemory is the streaming-memory gate: folding six
// additional waves through a non-retaining analyzer must not grow the
// retained heap by anything near those waves' record volume — the
// analyzer holds one wave at a time, regardless of campaign length.
func TestAnalyzerFlatMemory(t *testing.T) {
	const hosts, pad = 1500, 2048 // ≈3 MB of namespace padding per wave
	onWave := 0
	a := NewAnalyzer(AnalyzerConfig{OnWave: func(*core.WaveAnalysis) { onWave++ }})
	feed := func(w int) {
		for h := 0; h < hosts; h++ {
			if err := a.Put(synthRecord(w, h, "portscan", pad)); err != nil {
				t.Fatal(err)
			}
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	feed(0)
	feed(1)
	base := heap()
	for w := 2; w < 8; w++ {
		feed(w)
	}
	grown := heap()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if onWave != 8 {
		t.Errorf("OnWave saw %d waves, want 8", onWave)
	}
	if _, long := a.Results(); long == nil || len(long.DeficientSeries) != 8 {
		t.Fatalf("longitudinal fold missing or short: %+v", long)
	}

	// Six extra waves ≈ 6×3 MB of record payload. Flat streaming means
	// the retained growth stays far below that (one wave's worth plus
	// fold state); allow one wave (~3 MB) of slack for allocator noise.
	const waveBytes = hosts * pad
	if grown > base+waveBytes {
		t.Errorf("retained heap grew %d bytes over 6 waves (base %d); streaming analysis is not flat",
			grown-base, base)
	}
}

// TestTeeAndEncoderSink checks the tee fan-out and that the encoder
// sink's anonymizing mode copies rather than mutates.
func TestTeeAndEncoderSink(t *testing.T) {
	var raw, anon bytes.Buffer
	slice := &SliceSink{}
	tee := Tee(NewEncoderSink(&raw, false), NewEncoderSink(&anon, true), slice)
	rec := synthRecord(7, 3, "portscan", 0)
	rec.Cert = &dataset.CertRecord{Thumbprint: "t", SubjectOrg: "Bachmann"}
	if err := tee.Put(rec); err != nil {
		t.Fatal(err)
	}
	if err := tee.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(raw.String(), rec.Address) {
		t.Error("raw stream missing the address")
	}
	if strings.Contains(anon.String(), rec.Address) {
		t.Error("anonymized stream leaks the address")
	}
	if rec.Address == "" || strings.HasPrefix(rec.Address, "host-") {
		t.Error("original record mutated by anonymizing sink")
	}
	if len(slice.Records) != 1 || slice.Records[0] != rec {
		t.Error("slice sink did not receive the original record")
	}
}

// BenchmarkStreamingAnalyzerWave measures the per-wave cost of the
// non-retaining streaming analyzer: each op folds one 500-record wave
// into a single long-lived Analyzer (waves numbered by iteration, the
// longitudinal fold running throughout). allocs/op is therefore the
// marginal cost of one more wave — the number that must stay flat for
// streaming analysis to scale with campaign length; CI gates it
// against the budget recorded in BENCH_5.json.
func BenchmarkStreamingAnalyzerWave(b *testing.B) {
	recs := synthWave(0, 500, 0)
	a := NewAnalyzer(AnalyzerConfig{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range recs {
			r.Wave = i
			if err := a.Put(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if err := a.Close(); err != nil {
		b.Fatal(err)
	}
	if _, long := a.Results(); len(long.DeficientSeries) != b.N {
		b.Fatalf("folded %d waves, want %d", len(long.DeficientSeries), b.N)
	}
}
