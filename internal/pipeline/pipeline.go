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
	"sync/atomic"

	"repro/internal/dataset"
)

// RecordSink consumes a stream of host records. Put and Close must not
// be called after Close; unless an implementation says otherwise, Put
// is single-goroutine. A record is read-only once put: a sink may keep
// it and read it on another goroutine (an EncoderSink encodes it beside
// the sinks before it in a Tee, the delta tracker keeps a wave's records
// for the next), so neither the producer nor any sink may change it
// afterwards.
type RecordSink interface {
	Put(rec *dataset.HostRecord) error
	Close() error
}

// EncoderSink streams records to NDJSON, optionally applying the
// release anonymization to a copy of each record (originals are never
// mutated, and the anonymizer's sequence numbers follow stream order,
// so one sink anonymizes a whole campaign consistently).
//
// The sink encodes on a goroutine of its own, fed the records in
// batches and in order, so whatever puts them — the analyzer beside it
// in a Tee, a campaign's fold — does not wait for the encoding: Put only
// queues the record, which is read-only from then on. An error (a
// record that cannot be encoded, a failed write) returns from a later
// Put or from Close, and nothing after it is written. Close waits for
// every record put before it and flushes, but does not close the
// underlying writer, which the caller owns.
type EncoderSink struct {
	enc  *dataset.Encoder
	anon *dataset.Anonymizer
	bg   *behind
}

// NewEncoderSink returns an EncoderSink writing NDJSON to w.
func NewEncoderSink(w io.Writer, anonymize bool) *EncoderSink {
	s := &EncoderSink{enc: dataset.NewEncoder(w)}
	if anonymize {
		s.anon = dataset.NewAnonymizer()
	}
	s.bg = runBehind(s.encode)
	return s
}

// Put queues one record for encoding.
func (s *EncoderSink) Put(rec *dataset.HostRecord) error { return s.bg.put(rec) }

// encode writes one record, on the sink's goroutine.
func (s *EncoderSink) encode(rec *dataset.HostRecord) error {
	if s.anon != nil {
		rec = s.anon.AnonymizedCopy(rec)
	}
	return s.enc.Encode(rec)
}

// Close waits for the queued records and flushes what was encoded.
func (s *EncoderSink) Close() error {
	err := s.bg.close()
	if ferr := s.enc.Flush(); err == nil {
		err = ferr
	}
	return err
}

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
// tee owns them) and returns the first error. A sink that does its work
// on a goroutine of its own, as EncoderSink does, runs beside the sinks
// before it.
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

// behindBatch is how many records a behind goroutine is handed at once:
// enough that the handoff costs nothing per record, few enough that it
// stays within a fraction of a wave of the producer.
const behindBatch = 256

// behind runs a sink's work on a goroutine of its own. Batches
// circulate: the one being filled, at most cap(full) waiting and the
// one being worked through; free holds the rest, so once all exist
// neither side allocates.
type behind struct {
	do     func(*dataset.HostRecord) error
	batch  []*dataset.HostRecord
	full   chan []*dataset.HostRecord
	free   chan []*dataset.HostRecord
	done   chan struct{}
	closed bool
	failed atomic.Bool
	err    error // do's error: written before failed is set
}

func runBehind(do func(*dataset.HostRecord) error) *behind {
	// A few batches of slack let the producer run through a burst — a
	// wave's first records, each encoded in full — without waiting, and
	// free holds every batch that can exist besides the one being filled.
	const waiting = 4
	b := &behind{
		do:   do,
		full: make(chan []*dataset.HostRecord, waiting),
		free: make(chan []*dataset.HostRecord, waiting+2),
		done: make(chan struct{}),
	}
	go b.run()
	return b
}

// run does every record of every batch until the first error, and
// drains the batches after it, so put never blocks on a failed sink.
func (b *behind) run() {
	defer close(b.done)
	for batch := range b.full {
		for _, rec := range batch {
			if b.err != nil {
				break
			}
			if b.err = b.do(rec); b.err != nil {
				b.failed.Store(true)
			}
		}
		clear(batch)
		b.free <- batch[:0]
	}
}

// put queues rec, or returns the error that stopped the goroutine.
func (b *behind) put(rec *dataset.HostRecord) error {
	if b.failed.Load() {
		return b.err
	}
	b.batch = append(b.batch, rec)
	if len(b.batch) == behindBatch {
		b.full <- b.batch
		select {
		case b.batch = <-b.free:
		default:
			b.batch = make([]*dataset.HostRecord, 0, behindBatch)
		}
	}
	return nil
}

// close hands over the partial batch, ends the stream and returns the
// goroutine's error once it has done every record.
func (b *behind) close() error {
	if !b.closed {
		b.closed = true
		if len(b.batch) > 0 {
			b.full <- b.batch
			b.batch = nil
		}
		close(b.full)
	}
	<-b.done
	return b.err
}
