package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Snapshot is a point-in-time copy of a registry's instruments,
// serializable as one NDJSON line. Map keys are full metric identities
// (`name{k="v"}`); encoding/json sorts map keys, so the encoding of a
// given snapshot is deterministic.
type Snapshot struct {
	UnixNs     int64                         `json:"unix_ns"`
	Shard      string                        `json:"shard,omitempty"`
	Final      bool                          `json:"final,omitempty"`
	Counters   map[string]uint64             `json:"counters,omitempty"`
	Gauges     map[string]int64              `json:"gauges,omitempty"`
	Max        map[string]int64              `json:"max,omitempty"`
	Histograms map[string]*HistogramSnapshot `json:"histograms,omitempty"`
}

// HistogramSnapshot is a histogram's copied state. Buckets has one
// entry per bound plus the final +Inf bucket.
type HistogramSnapshot struct {
	Count    uint64   `json:"count"`
	SumNs    uint64   `json:"sum_ns"`
	BoundsNs []int64  `json:"bounds_ns"`
	Buckets  []uint64 `json:"buckets"`
}

// NewSnapshot returns an empty timestamped snapshot.
func NewSnapshot() *Snapshot {
	return &Snapshot{
		UnixNs:     NowNs(),
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Max:        map[string]int64{},
		Histograms: map[string]*HistogramSnapshot{},
	}
}

// AddCounter adds v to the snapshot's counter key. External snapshot
// sources report through it, so several sources folding into one key
// (one per published crypto engine) sum.
func (s *Snapshot) AddCounter(key string, v uint64) { s.Counters[key] += v }

// AddGauge adds v to the snapshot's gauge key.
func (s *Snapshot) AddGauge(key string, v int64) { s.Gauges[key] += v }

// CounterTotal sums every counter whose base name (identity minus the
// {labels} qualifier) equals name — the cross-label rollup used for
// summary tables.
func (s *Snapshot) CounterTotal(name string) uint64 {
	var total uint64
	for k, v := range s.Counters {
		if baseName(k) == name {
			total += v
		}
	}
	return total
}

// MaxTotal returns the maximum across every MaxGauge sharing base name.
func (s *Snapshot) MaxTotal(name string) int64 {
	var max int64
	for k, v := range s.Max {
		if baseName(k) == name && v > max {
			max = v
		}
	}
	return max
}

// HistogramTotal merges every histogram sharing base name into one
// (nil when none match or bounds disagree).
func (s *Snapshot) HistogramTotal(name string) *HistogramSnapshot {
	var out *HistogramSnapshot
	keys := make([]string, 0, len(s.Histograms))
	for k := range s.Histograms {
		if baseName(k) == name {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		h := s.Histograms[k]
		if out == nil {
			out = h.clone()
			continue
		}
		if !out.merge(h) {
			return nil
		}
	}
	return out
}

func (h *HistogramSnapshot) clone() *HistogramSnapshot {
	c := &HistogramSnapshot{Count: h.Count, SumNs: h.SumNs}
	c.BoundsNs = append([]int64(nil), h.BoundsNs...)
	c.Buckets = append([]uint64(nil), h.Buckets...)
	return c
}

// merge folds o into h; false when bucket layouts disagree.
func (h *HistogramSnapshot) merge(o *HistogramSnapshot) bool {
	if len(h.BoundsNs) != len(o.BoundsNs) || len(h.Buckets) != len(o.Buckets) {
		return false
	}
	for i, b := range o.BoundsNs {
		if h.BoundsNs[i] != b {
			return false
		}
	}
	h.Count += o.Count
	h.SumNs += o.SumNs
	for i, b := range o.Buckets {
		h.Buckets[i] += b
	}
	return true
}

// MeanNs returns the mean observation in nanoseconds (0 when empty).
func (h *HistogramSnapshot) MeanNs() int64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	return int64(h.SumNs / h.Count)
}

// MergeSnapshots folds per-shard snapshots into one total: counters,
// gauges, and histogram buckets sum; high-water marks take the max;
// the timestamp is the latest input's. Snapshots with mismatched
// histogram layouts under one key return an error rather than a
// silently partial merge.
func MergeSnapshots(shard string, snaps ...*Snapshot) (*Snapshot, error) {
	out := NewSnapshot()
	out.Shard = shard
	out.Final = true
	out.UnixNs = 0
	for _, s := range snaps {
		if s == nil {
			continue
		}
		if s.UnixNs > out.UnixNs {
			out.UnixNs = s.UnixNs
		}
		for k, v := range s.Counters {
			out.Counters[k] += v
		}
		for k, v := range s.Gauges {
			out.Gauges[k] += v
		}
		for k, v := range s.Max {
			if v > out.Max[k] {
				out.Max[k] = v
			}
		}
		for k, h := range s.Histograms {
			if cur, ok := out.Histograms[k]; ok {
				if !cur.merge(h) {
					return nil, fmt.Errorf("telemetry: merging %q: histogram bucket layouts disagree", k)
				}
			} else {
				out.Histograms[k] = h.clone()
			}
		}
	}
	return out, nil
}

// WriteSnapshot appends one snapshot as an NDJSON line.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	enc := json.NewEncoder(w)
	return enc.Encode(s)
}
