package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestNilRegistryIsNoOp pins the disabled contract: every method on a
// nil registry and its nil instruments is safe and does nothing.
func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	if r.Scope("wave", "1") != nil {
		t.Fatal("scoping a nil registry must stay nil")
	}
	c := r.Counter("x")
	m := r.MaxGauge("x")
	h := r.Histogram("x")
	if c != nil || m != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	c.Inc()
	c.Add(7)
	c.AddSince(c.StartNs())
	if c.Load() != 0 {
		t.Fatal("nil counter loads 0")
	}
	if c.StartNs() != 0 {
		t.Fatal("nil counter StartNs must be 0 (no clock read)")
	}
	m.Record(9)
	if m.Load() != 0 {
		t.Fatal("nil max gauge loads 0")
	}
	h.ObserveNs(5)
	h.ObserveSince(h.StartNs())
	if h.StartNs() != 0 {
		t.Fatal("nil histogram StartNs must be 0 (no clock read)")
	}
	var cm *ChannelMetrics
	cm.Done(cm.Begin(), true)
	r.SetSource("x", func(*Snapshot) {})
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshots empty")
	}
	var e *Exchange
	e.EndSpan("open", e.Start(), "")
	var tr *Tracer
	tr.Record(e)
	if tr.Exchanges() != nil || tr.Total() != 0 {
		t.Fatal("nil tracer is empty")
	}
	if SerializedProgressf(nil) != nil {
		t.Fatal("serializing a nil progressf must stay nil")
	}
}

// TestZeroAllocDisabled pins "no allocation on the disabled path"
// dynamically; the studyvet hotpath analyzer pins it statically.
func TestZeroAllocDisabled(t *testing.T) {
	var c *Counter
	var m *MaxGauge
	var h *Histogram
	var cm *ChannelMetrics
	var e *Exchange
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		c.AddSince(c.StartNs())
		m.Record(2)
		h.ObserveNs(10)
		h.ObserveSince(h.StartNs())
		cm.Done(cm.Begin(), false)
		e.EndSpan("x", e.Start(), "")
	}); n != 0 {
		t.Fatalf("disabled telemetry allocated %.1f/op, want 0", n)
	}
}

// TestZeroAllocEnabledHotOps pins that the enabled fast path (resolved
// instrument handles, no lookups) stays allocation-free too.
func TestZeroAllocEnabledHotOps(t *testing.T) {
	r := New()
	c := r.Counter("c")
	m := r.MaxGauge("m")
	h := r.Histogram("h")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		m.Record(9)
		h.ObserveNs(1e6)
	}); n != 0 {
		t.Fatalf("enabled hot ops allocated %.1f/op, want 0", n)
	}
}

func TestRegistryScopesAndIdentity(t *testing.T) {
	r := New()
	a := r.Counter("hits")
	if a != r.Counter("hits") {
		t.Fatal("same name must yield the same counter")
	}
	w1 := r.Scope("wave", "1")
	w2 := r.Scope("wave", "2")
	w1.Counter("hits").Add(3)
	w2.Counter("hits").Add(5)
	a.Inc()
	nested := w1.Scope("shard", "0")
	nested.Counter("hits").Add(10)
	s := r.Snapshot()
	want := map[string]uint64{
		"hits":                     1,
		`hits{wave="1"}`:           3,
		`hits{wave="2"}`:           5,
		`hits{wave="1",shard="0"}`: 10,
	}
	if !reflect.DeepEqual(s.Counters, want) {
		t.Fatalf("counters = %v, want %v", s.Counters, want)
	}
	if got := s.CounterTotal("hits"); got != 19 {
		t.Fatalf("CounterTotal(hits) = %d, want 19", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]int64{100, 1000})
	h.ObserveNs(50)   // bucket 0 (<=100)
	h.ObserveNs(100)  // bucket 0 (inclusive upper bound)
	h.ObserveNs(500)  // bucket 1
	h.ObserveNs(5000) // +Inf bucket
	h.ObserveNs(-7)   // clamped to 0, bucket 0
	s := h.snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if want := []uint64{3, 1, 1}; !reflect.DeepEqual(s.Buckets, want) {
		t.Fatalf("buckets = %v, want %v", s.Buckets, want)
	}
	if s.SumNs != 50+100+500+5000 {
		t.Fatalf("sum = %d", s.SumNs)
	}
	if s.MeanNs() != int64(s.SumNs/5) {
		t.Fatalf("mean = %d", s.MeanNs())
	}
}

func TestMaxGaugeRaces(t *testing.T) {
	var m MaxGauge
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Record(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if m.Load() != 7999 {
		t.Fatalf("max = %d, want 7999", m.Load())
	}
}

func TestSnapshotSourcesRunSorted(t *testing.T) {
	r := New()
	var order []string
	r.SetSource("b", func(s *Snapshot) { order = append(order, "b"); s.SetCounter("src_b", 2) })
	r.SetSource("a", func(s *Snapshot) { order = append(order, "a"); s.SetGauge("src_a", 1) })
	s := r.Snapshot()
	if !reflect.DeepEqual(order, []string{"a", "b"}) {
		t.Fatalf("source order = %v", order)
	}
	if s.Counters["src_b"] != 2 || s.Gauges["src_a"] != 1 {
		t.Fatalf("source values missing: %v %v", s.Counters, s.Gauges)
	}
}

func TestMergeSnapshots(t *testing.T) {
	r1, r2 := New(), New()
	r1.Counter("n").Add(3)
	r2.Counter("n").Add(4)
	r1.MaxGauge("hw").Record(7)
	r2.MaxGauge("hw").Record(12)
	r1.Histogram("lat").ObserveNs(200e3)
	r2.Histogram("lat").ObserveNs(2e6)
	s1, s2 := r1.Snapshot(), r2.Snapshot()
	s1.SetGauge("g", 10)
	s2.SetGauge("g", 5)
	s1.Shard = "0"
	s2.Shard = "1"
	total, err := MergeSnapshots("total", s1, s2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if total.Counters["n"] != 7 || total.Gauges["g"] != 15 || total.Max["hw"] != 12 {
		t.Fatalf("merge: %v %v %v", total.Counters, total.Gauges, total.Max)
	}
	h := total.Histograms["lat"]
	if h.Count != 2 || h.SumNs != uint64(200e3+2e6) {
		t.Fatalf("merged histogram: %+v", h)
	}
	if !total.Final || total.Shard != "total" {
		t.Fatalf("merged snapshot metadata: %+v", total)
	}

	bad := &Snapshot{Histograms: map[string]*HistogramSnapshot{
		"lat": {BoundsNs: []int64{1, 2}, Buckets: []uint64{0, 0, 0}},
	}}
	if _, err := MergeSnapshots("total", s1, bad); err == nil {
		t.Fatal("mismatched histogram layouts must fail the merge")
	}
}

func TestSnapshotNDJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("a").Add(1)
	r.Histogram("h").ObserveNs(3e6)
	s := r.Snapshot()
	s.Shard = "2"
	s.Final = true
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var got []*Snapshot
	for dec := json.NewDecoder(&buf); dec.More(); {
		s := &Snapshot{}
		if err := dec.Decode(s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 2 {
		t.Fatalf("read %d snapshots, want 2", len(got))
	}
	// omitempty drops empty maps, so compare populated fields.
	if got[0].UnixNs != s.UnixNs || got[0].Shard != s.Shard || !got[0].Final {
		t.Fatalf("round trip metadata mismatch: %+v", got[0])
	}
	if !reflect.DeepEqual(got[0].Counters, s.Counters) {
		t.Fatalf("round trip counters: %v != %v", got[0].Counters, s.Counters)
	}
	if !reflect.DeepEqual(got[0].Histograms["h"], s.Histograms["h"]) {
		t.Fatalf("round trip histogram: %+v != %+v", got[0].Histograms["h"], s.Histograms["h"])
	}
}

func TestExchangeIDDeterministic(t *testing.T) {
	a := ExchangeID(42, 3, "10.0.0.1:4840")
	b := ExchangeID(42, 3, "10.0.0.1:4840")
	if a != b {
		t.Fatal("exchange IDs must be deterministic")
	}
	if a == ExchangeID(42, 4, "10.0.0.1:4840") || a == ExchangeID(43, 3, "10.0.0.1:4840") ||
		a == ExchangeID(42, 3, "10.0.0.2:4840") {
		t.Fatal("exchange IDs must depend on seed, wave, and address")
	}
}

func TestTracerRingBound(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		e := NewExchange(1, 0, string(rune('a'+i)))
		e.EndSpan("open", e.Start(), "")
		tr.Record(e)
	}
	got := tr.Exchanges()
	if len(got) != 4 {
		t.Fatalf("ring retained %d, want 4", len(got))
	}
	if tr.Total() != 10 {
		t.Fatalf("total = %d, want 10", tr.Total())
	}
	if got[0].Address != "g" || got[3].Address != "j" {
		t.Fatalf("ring order wrong: %s..%s", got[0].Address, got[3].Address)
	}
	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 4 {
		t.Fatalf("NDJSON lines = %d, want 4", lines)
	}
}

// TestRegistryConcurrent hammers lookups, updates, and snapshots from
// many goroutines; run under -race in CI.
func TestRegistryConcurrent(t *testing.T) {
	r := New()
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scope := r.Scope("wave", string(rune('0'+w%4)))
			c := scope.Counter("ops")
			h := scope.Histogram("lat")
			for i := 0; i < 500; i++ {
				c.Inc()
				h.ObserveNs(int64(i))
				scope.MaxGauge("hw").Record(int64(i))
				e := NewExchange(int64(w), i, "addr")
				e.EndSpan("open", e.Start(), "")
				tr.Record(e)
			}
		}(w)
	}
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for i := 0; i < 50; i++ {
			_ = r.Snapshot()
			_ = tr.Exchanges()
		}
	}()
	wg.Wait()
	snapWG.Wait()
	s := r.Snapshot()
	if got := s.CounterTotal("ops"); got != 8*500 {
		t.Fatalf("ops total = %d, want %d", got, 8*500)
	}
}

func TestSerializedProgressf(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	f := SerializedProgressf(func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, format)
	})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); f("line %d", 1) }()
	}
	wg.Wait()
	if len(lines) != 16 {
		t.Fatalf("got %d lines, want 16", len(lines))
	}
}

func TestServeDebug(t *testing.T) {
	r := New()
	r.Counter("dbg").Add(3)
	addr, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		t.Fatal("no bound address")
	}
}
