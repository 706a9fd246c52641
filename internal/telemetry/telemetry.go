// Package telemetry is the campaign's observability substrate: a
// stdlib-only, concurrency-safe metrics registry (atomic counters,
// high-water gauges, fixed-bucket latency histograms, labeled
// per-wave/per-shard scopes; snapshot sources add gauges), point-in-time
// snapshots streamable as NDJSON, a bounded span-style exchange tracer,
// and the serialized progress writer.
//
// Zero-cost-when-disabled contract (DESIGN.md §7): a nil *Registry is
// the disabled state, and every instrument it hands out is then nil
// too. Every instrument method is safe on a nil receiver and does
// nothing beyond one pointer check — no allocation, no clock read, no
// atomic — so hot paths hold instrument pointers unconditionally and
// never branch on "is telemetry on". The //studyvet:hotpath analyzer
// plus testing.AllocsPerRun budgets pin this statically and
// dynamically.
//
// Observers never mutate campaign state: the registry is strictly
// write-only from the instrumented code's perspective and read-only
// from snapshotters'. Wall-clock reads are confined to NowNs, the
// sanctioned exemption from the deterministic path's no-clock rule —
// telemetry measures the run, it never feeds the dataset, which is why
// a campaign with telemetry enabled is byte-identical to one without.
package telemetry

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// NowNs is telemetry's only clock: wall time in nanoseconds since the
// Unix epoch. Instruments call it exclusively after their nil checks,
// so the disabled path never reads the clock.
//
//studyvet:entropy-exempt — telemetry clock: measures the run, never feeds the dataset
func NowNs() int64 { return time.Now().UnixNano() }

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter is a no-op.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// StartNs returns the current clock for a later AddSince, or 0 without
// reading the clock when the counter is nil.
func (c *Counter) StartNs() int64 {
	if c == nil {
		return 0
	}
	return NowNs()
}

// AddSince accumulates the nanoseconds elapsed since startNs (a prior
// StartNs result) — the shape used for cumulative blocked/busy time.
func (c *Counter) AddSince(startNs int64) {
	if c == nil {
		return
	}
	c.v.Add(uint64(NowNs() - startNs))
}

// Load returns the current value (0 for nil).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// MaxGauge retains the maximum value ever recorded (high-water marks).
// MaxGauges take the max across shards when snapshots merge. A nil
// *MaxGauge is a no-op.
type MaxGauge struct{ v atomic.Int64 }

// Record raises the high-water mark to v if v exceeds it.
func (m *MaxGauge) Record(v int64) {
	if m == nil {
		return
	}
	for {
		cur := m.v.Load()
		if v <= cur || m.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the high-water mark (0 for nil).
func (m *MaxGauge) Load() int64 {
	if m == nil {
		return 0
	}
	return m.v.Load()
}

// DefaultLatencyBoundsNs are the fixed histogram bucket upper bounds
// (nanoseconds): a 1-3-10 ladder from 100µs to 30s, sized for simulated
// handshake RTTs and queue waits. The final implicit bucket is +Inf.
var DefaultLatencyBoundsNs = []int64{
	100e3, 300e3, 1e6, 3e6, 10e6, 30e6, 100e6, 300e6, 1e9, 3e9, 10e9, 30e9,
}

// Histogram is a fixed-bucket latency histogram: cumulative count and
// sum plus one atomic counter per bucket. Bounds are fixed at creation;
// Observe never allocates. A nil *Histogram is a no-op.
type Histogram struct {
	bounds  []int64 // ascending upper bounds, ns
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // total ns
}

// NewHistogram builds a histogram with the given ascending bucket
// upper bounds (nil = DefaultLatencyBoundsNs).
func NewHistogram(boundsNs []int64) *Histogram {
	if boundsNs == nil {
		boundsNs = DefaultLatencyBoundsNs
	}
	return &Histogram{bounds: boundsNs, buckets: make([]atomic.Uint64, len(boundsNs)+1)}
}

// ObserveNs records one duration.
func (h *Histogram) ObserveNs(ns int64) {
	if h == nil {
		return
	}
	if ns < 0 {
		ns = 0
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return ns <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(uint64(ns))
}

// StartNs returns the current clock for a later ObserveSince, or 0
// without reading the clock when the histogram is nil.
func (h *Histogram) StartNs() int64 {
	if h == nil {
		return 0
	}
	return NowNs()
}

// ObserveSince records the time elapsed since startNs (a prior StartNs
// result).
func (h *Histogram) ObserveSince(startNs int64) {
	if h == nil {
		return
	}
	h.ObserveNs(NowNs() - startNs)
}

// snapshot copies the histogram's counters.
func (h *Histogram) snapshot() *HistogramSnapshot {
	s := &HistogramSnapshot{
		Count:    h.count.Load(),
		SumNs:    h.sum.Load(),
		BoundsNs: h.bounds,
		Buckets:  make([]uint64, len(h.buckets)),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// ChannelMetrics bundles the secure-channel handshake instruments of
// one (policy, mode) scope. uasc.Open drives Begin/Done around the OPN
// round trip; the scanner owns classification counters it can only
// decide itself (certificate rejections). A nil *ChannelMetrics is a
// no-op.
type ChannelMetrics struct {
	Attempts     *Counter
	OK           *Counter
	Failed       *Counter
	CertRejected *Counter
	HandshakeNs  *Histogram
}

// Begin counts one attempt and starts the handshake timer (0 and no
// clock read when nil).
func (m *ChannelMetrics) Begin() int64 {
	if m == nil {
		return 0
	}
	m.Attempts.Inc()
	return NowNs()
}

// Done records the handshake latency and outcome.
func (m *ChannelMetrics) Done(startNs int64, ok bool) {
	if m == nil {
		return
	}
	m.HandshakeNs.ObserveNs(NowNs() - startNs)
	if ok {
		m.OK.Inc()
	} else {
		m.Failed.Inc()
	}
}

// Registry is a labeled metrics registry. Instruments are created on
// first lookup (mutex-guarded) and updated lock-free thereafter;
// looking a name up twice returns the same instrument. Scope derives
// label-qualified views (per wave, per shard) sharing one backing
// store. A nil *Registry is the disabled state: every method is a
// no-op returning nil instruments.
type Registry struct {
	core   *regCore
	labels string // `k="v",k2="v2"` in scope order, "" at the root
}

type regCore struct {
	mu       sync.Mutex
	counters map[string]*Counter
	maxes    map[string]*MaxGauge
	hists    map[string]*Histogram
	sources  map[string]func(*Snapshot)
}

// New returns an empty enabled registry.
func New() *Registry {
	return &Registry{core: &regCore{
		counters: map[string]*Counter{},
		maxes:    map[string]*MaxGauge{},
		hists:    map[string]*Histogram{},
		sources:  map[string]func(*Snapshot){},
	}}
}

// Scope returns a view whose instruments carry the additional
// key="value" label (per-wave, per-shard, per-policy scopes). Scoping
// a nil registry stays nil.
func (r *Registry) Scope(key, value string) *Registry {
	if r == nil {
		return nil
	}
	label := key + `="` + value + `"`
	if r.labels != "" {
		label = r.labels + "," + label
	}
	return &Registry{core: r.core, labels: label}
}

// qualify builds the full metric identity: name{labels}.
func (r *Registry) qualify(name string) string {
	if r.labels == "" {
		return name
	}
	return name + "{" + r.labels + "}"
}

// Counter returns (creating if needed) the named counter in this
// scope, or nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	key := r.qualify(name)
	c := r.core
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.counters[key]; ok {
		return v
	}
	v := &Counter{}
	c.counters[key] = v
	return v
}

// MaxGauge returns (creating if needed) the named high-water gauge in
// this scope, or nil on a nil registry.
func (r *Registry) MaxGauge(name string) *MaxGauge {
	if r == nil {
		return nil
	}
	key := r.qualify(name)
	c := r.core
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.maxes[key]; ok {
		return v
	}
	v := &MaxGauge{}
	c.maxes[key] = v
	return v
}

// Histogram returns (creating if needed) the named latency histogram
// (DefaultLatencyBoundsNs buckets) in this scope, or nil on a nil
// registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	key := r.qualify(name)
	c := r.core
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.hists[key]; ok {
		return v
	}
	v := NewHistogram(nil)
	c.hists[key] = v
	return v
}

// SetSource registers (or replaces) a named external snapshot source:
// fn runs during Snapshot and may fold foreign counters in — the hook
// that re-exports the uarsa engine's hit/miss/evict counters through
// the registry. No-op on a nil registry.
func (r *Registry) SetSource(name string, fn func(*Snapshot)) {
	if r == nil {
		return
	}
	r.core.mu.Lock()
	defer r.core.mu.Unlock()
	r.core.sources[name] = fn
}

// Snapshot captures every instrument's current value plus the external
// sources' contributions. Nil registries snapshot to an empty,
// timestamped snapshot. Safe to call concurrently with instrument
// updates: counters are read atomically (the snapshot is per-instrument
// consistent, not globally serialized).
func (r *Registry) Snapshot() *Snapshot {
	s := NewSnapshot()
	if r == nil {
		return s
	}
	c := r.core
	c.mu.Lock()
	for k, v := range c.counters {
		s.Counters[k] = v.Load()
	}
	for k, v := range c.maxes {
		s.Max[k] = v.Load()
	}
	for k, v := range c.hists {
		s.Histograms[k] = v.snapshot()
	}
	sources := make([]func(*Snapshot), 0, len(c.sources))
	names := make([]string, 0, len(c.sources))
	for name := range c.sources {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sources = append(sources, c.sources[name])
	}
	c.mu.Unlock()
	// Sources run outside the registry lock: they may call Stats() on
	// engines that take their own locks.
	for _, fn := range sources {
		fn(s)
	}
	return s
}

// baseName strips the {labels} qualifier from a full metric key.
func baseName(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}
