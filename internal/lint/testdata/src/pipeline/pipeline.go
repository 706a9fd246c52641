// Package pipeline is a miniature of the real record pipeline, for the
// sinkctx golden tests (the test Config.SinkPkg points here).
package pipeline

// Record is one streamed record.
type Record struct{ ID int }

// RecordSink consumes a stream of records.
type RecordSink interface {
	Put(*Record) error
	Close() error
}

// Tee fans one stream out to several sinks.
type Tee []RecordSink

// Put forwards to every sink: a sink feeding sinks is the pipeline
// itself, not a producer — no diagnostic expected inside the sink
// package, context or not.
func (t Tee) Put(r *Record) error {
	for _, s := range t {
		if err := s.Put(r); err != nil {
			return err
		}
	}
	return nil
}

// Close closes every sink.
func (t Tee) Close() error {
	for _, s := range t {
		_ = s.Close()
	}
	return nil
}

// Drain replays records into a sink from inside the sink package.
func Drain(s RecordSink, recs []*Record) error {
	for _, r := range recs {
		if err := s.Put(r); err != nil {
			return err
		}
	}
	return nil
}
