package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/pipeline"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (nothing inside the program is instrumented). Spans of one
// rep share (workload, rep); Parent is the ID of the span that caused
// this one, 0 for a root. BusyNs, when set, is time spent inside the
// span's callee that the interval alone does not show (the EncoderSink
// time inside one wave's first-to-last Put window).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Wave     int    `json:"wave"` // -1 when the span covers no single wave
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	BusyNs   int64  `json:"busy_ns,omitempty"`
	// SelfNs is the span's duration minus its direct children's, filled
	// in when the trace is written.
	SelfNs int64 `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []*span
	// workload and rep label the spans begun from now on.
	workload string
	rep      int
}

// begin opens a span; the caller ends it with end. A nil tracer records
// nothing, so untraced runs pay one pointer check.
func (t *tracer) begin(parent *span, wave int, name string) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &span{ID: len(t.spans) + 1, Workload: t.workload, Rep: t.rep,
		Wave: wave, Name: name, StartNs: time.Now().UnixNano()}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.spans = append(t.spans, s)
	return s
}

func (s *span) end() {
	if s != nil {
		s.EndNs = time.Now().UnixNano()
	}
}

// writeNDJSON fills in the self times and writes one span per line.
func (t *tracer) writeNDJSON(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	byID := make(map[int]*span, len(t.spans))
	for _, s := range t.spans {
		s.SelfNs = s.EndNs - s.StartNs
		byID[s.ID] = s
	}
	for _, s := range t.spans {
		if p := byID[s.Parent]; p != nil {
			p.SelfNs -= s.EndNs - s.StartNs
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// tracedSink wraps a campaign's RecordSink: per wave it stamps the
// first and last Put as a "sink.wave" span and sums the time spent
// inside the downstream sink into the span's BusyNs.
type tracedSink struct {
	down   pipeline.RecordSink
	t      *tracer
	parent *span
	cur    *span
}

func (s *tracedSink) Put(rec *dataset.HostRecord) error {
	if s.cur == nil || s.cur.Wave != rec.Wave {
		s.cur.end()
		s.cur = s.t.begin(s.parent, rec.Wave, "sink.wave")
	}
	start := time.Now()
	err := s.down.Put(rec)
	s.cur.BusyNs += int64(time.Since(start))
	s.cur.end()
	return err
}

func (s *tracedSink) Close() error { return s.down.Close() }
