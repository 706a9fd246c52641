// Package pipeline is the campaign's streaming record plumbing: sinks
// that consume measurement records one at a time, an incremental
// analyzer that folds a wave-ordered record stream into the paper's
// per-wave and longitudinal analyses, and the deterministic merge of
// sharded worker streams.
//
// Ownership rules (DESIGN.md §5): whoever constructs a sink closes it,
// exactly once, after the last Put. A wrapping sink (Tee) owns its
// downstreams — closing the wrapper closes what it wraps. The
// campaign never closes a sink the caller passed in
// (opcuastudy.CampaignConfig.RecordSink), because the caller may have
// more streams to feed it.
package pipeline

import (
	"io"

	"repro/internal/dataset"
)

// RecordSink consumes a stream of host records. Put and Close must not
// be called after Close; unless an implementation says otherwise, Put
// is single-goroutine.
type RecordSink interface {
	Put(rec *dataset.HostRecord) error
	Close() error
}

// EncoderSink streams records to NDJSON, optionally applying the
// release anonymization to a copy of each record (originals are never
// mutated, and the anonymizer's sequence numbers follow stream order,
// so one sink anonymizes a whole campaign consistently). Close flushes
// but does not close the underlying writer, which the caller owns.
type EncoderSink struct {
	enc  *dataset.Encoder
	anon *dataset.Anonymizer
}

// NewEncoderSink returns an EncoderSink writing NDJSON to w.
func NewEncoderSink(w io.Writer, anonymize bool) *EncoderSink {
	s := &EncoderSink{enc: dataset.NewEncoder(w)}
	if anonymize {
		s.anon = dataset.NewAnonymizer()
	}
	return s
}

// Put encodes one record.
func (s *EncoderSink) Put(rec *dataset.HostRecord) error {
	if s.anon != nil {
		rec = s.anon.AnonymizedCopy(rec)
	}
	return s.enc.Encode(rec)
}

// Close flushes the encoder.
func (s *EncoderSink) Close() error { return s.enc.Flush() }

// SliceSink accumulates records in memory, for callers that want a
// pipeline stage to terminate in a plain slice (tests, ad-hoc
// analysis); production campaign paths stream instead.
type SliceSink struct {
	Records []*dataset.HostRecord
}

// Put appends the record.
func (s *SliceSink) Put(rec *dataset.HostRecord) error {
	s.Records = append(s.Records, rec)
	return nil
}

// Close is a no-op.
func (s *SliceSink) Close() error { return nil }

// Tee fans one stream out to several sinks. Put forwards to every sink
// in order and stops at the first error; Close closes every sink (the
// tee owns them) and returns the first error.
func Tee(sinks ...RecordSink) RecordSink { return teeSink(sinks) }

type teeSink []RecordSink

func (t teeSink) Put(rec *dataset.HostRecord) error {
	for _, s := range t {
		if err := s.Put(rec); err != nil {
			return err
		}
	}
	return nil
}

func (t teeSink) Close() error {
	var first error
	for _, s := range t {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
