package pipeline

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
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

// streamWave folds one 500-record wave into a, numbering waves by
// call, the operation BenchmarkStreamingAnalyzerWave and
// TestStreamingAnalyzerWaveAllocBudget measure.
func streamWave(tb testing.TB, a *Analyzer) func() {
	recs := synthWave(0, 500, 0)
	wave := 0
	return func() {
		for _, r := range recs {
			r.Wave = wave
			if err := a.Put(r); err != nil {
				tb.Fatal(err)
			}
		}
		wave++
	}
}

// BenchmarkStreamingAnalyzerWave measures the per-wave cost of the
// non-retaining streaming analyzer: each op folds one 500-record wave
// into a single long-lived Analyzer (the longitudinal fold running
// throughout). allocs/op is therefore the marginal cost of one more
// wave — the number that must stay flat for streaming analysis to
// scale with campaign length.
func BenchmarkStreamingAnalyzerWave(b *testing.B) {
	a := NewAnalyzer(AnalyzerConfig{})
	op := streamWave(b, a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	if err := a.Close(); err != nil {
		b.Fatal(err)
	}
	if _, long := a.Results(); len(long.DeficientSeries) != b.N {
		b.Fatalf("folded %d waves, want %d", len(long.DeficientSeries), b.N)
	}
}

// TestStreamingAnalyzerWaveAllocBudget: one more 500-record wave costs
// the non-retaining analyzer at most 5,705 allocations (×1.25 + 2),
// however many waves came before.
func TestStreamingAnalyzerWaveAllocBudget(t *testing.T) {
	if allocs := testing.AllocsPerRun(20, streamWave(t, NewAnalyzer(AnalyzerConfig{}))); allocs > 5705*1.25+2 {
		t.Errorf("a streamed wave allocates %.0f objects, budget %.0f", allocs, 5705*1.25+2)
	}
}

// TestAnalyzerOnWaveInOrder: OnWave sees every wave once, in order,
// and the analyses equal the core accumulators' fed wave slices in turn.
func TestAnalyzerOnWaveInOrder(t *testing.T) {
	var all []*dataset.HostRecord
	var want []*core.WaveAnalysis
	la := core.NewLongitudinalAccumulator(true)
	for w := 0; w < 8; w++ {
		recs := synthWave(w, 60, 0)
		all = append(all, recs...)
		acc := core.NewWaveAccumulator(w, recs[0].Date)
		for _, r := range recs {
			acc.Add(r)
		}
		want = append(want, acc.Finalize(1))
		la.AddWave(want[w])
	}
	wantLong := la.Finalize()

	var seen []int
	a := NewAnalyzer(AnalyzerConfig{Retain: true, OnWave: func(w *core.WaveAnalysis) { seen = append(seen, w.Wave) }})
	for _, r := range all {
		if err := a.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seen, []int{0, 1, 2, 3, 4, 5, 6, 7}) {
		t.Errorf("OnWave saw waves %v, want 0 to 7 in order", seen)
	}
	analyses, long := a.Results()
	if !reflect.DeepEqual(analyses, want) || !reflect.DeepEqual(long, wantLong) {
		t.Error("analyses differ from the accumulators fed wave by wave")
	}
}

// TestTeeDeliversInOrder: every downstream gets every record in put
// order, an EncoderSink (which encodes on its own goroutine) writes
// exactly what dataset.Write does, and Close closes every downstream.
func TestTeeDeliversInOrder(t *testing.T) {
	var recs []*dataset.HostRecord
	for w := 0; w < 3; w++ {
		recs = append(recs, synthWave(w, 2*behindBatch/3+1, 16)...) // not a whole number of batches
	}
	var want, raw bytes.Buffer
	if err := dataset.Write(&want, recs); err != nil {
		t.Fatal(err)
	}
	first, last := &SliceSink{}, &SliceSink{}
	tee := Tee(first, NewEncoderSink(&raw, false), last)
	for _, r := range recs {
		if err := tee.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tee.Close(); err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*SliceSink{"first": first, "last": last} {
		if !slices.Equal(s.Records, recs) {
			t.Errorf("%s sink got %d records, not the %d put, in order", name, len(s.Records), len(recs))
		}
	}
	if !bytes.Equal(raw.Bytes(), want.Bytes()) {
		t.Errorf("the encoder sink wrote %d bytes, dataset.Write %d", raw.Len(), want.Len())
	}
}

// failingWriter accepts n bytes, then fails every write.
type failingWriter struct{ n int }

var errWriteFailed = errors.New("write failed")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errWriteFailed
	}
	w.n -= len(p)
	return len(p), nil
}

// TestTeeSurfacesSinkErrors: a failing sink's error returns from the
// Put that failed it and stops the records there; an EncoderSink's,
// found on its own goroutine, returns from a later Put or from Close,
// and the tee's Close reports it after closing every sink.
func TestTeeSurfacesSinkErrors(t *testing.T) {
	recs := synthWave(0, 3*behindBatch, 4<<10) // ≈ 3 MB: several of the encoder's 1 MiB writes

	capped, after := &cappedSink{limit: 10}, &SliceSink{}
	tee := Tee(capped, after)
	var err error
	n := 0
	for ; n < len(recs) && err == nil; n++ {
		err = tee.Put(recs[n])
	}
	if !errors.Is(err, errSinkFull) || n != 11 || len(after.Records) != 10 {
		t.Errorf("Put %d records, error %v, %d past the failing sink; want 11, %v, 10", n, err, len(after.Records), errSinkFull)
	}

	for _, cut := range []int{1 << 10, 5 << 19} { // inside the first write, or the third
		slice := &SliceSink{}
		tee := Tee(slice, NewEncoderSink(&failingWriter{n: cut}, false))
		var putErr error
		for _, r := range recs {
			if putErr = tee.Put(r); putErr != nil {
				break
			}
		}
		closeErr := tee.Close()
		if !errors.Is(closeErr, errWriteFailed) || putErr != nil && !errors.Is(putErr, errWriteFailed) {
			t.Errorf("cut at %d: Put error %v, Close error %v; want %v from Close", cut, putErr, closeErr, errWriteFailed)
		}
		if putErr == nil && len(slice.Records) != len(recs) {
			t.Errorf("cut at %d: the slice sink got %d of %d records", cut, len(slice.Records), len(recs))
		}
	}

	// A record that cannot be encoded fails the sink, though no write
	// failed, and nothing after it is written.
	var buf bytes.Buffer
	enc := NewEncoderSink(&buf, false)
	bad := synthRecord(0, 1, "portscan", 0)
	bad.Date = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, r := range []*dataset.HostRecord{recs[0], bad, recs[1]} {
		if err := enc.Put(r); err != nil {
			t.Fatalf("Put failed before Close: %v", err)
		}
	}
	if err := enc.Close(); err == nil || bytes.Count(buf.Bytes(), []byte("\n")) != 1 {
		t.Errorf("Close = %v with %d lines written; want the encoding error and 1 line", err, bytes.Count(buf.Bytes(), []byte("\n")))
	}
}
