// Package producer exercises the sinkctx producer rules against the
// fake pipeline package.
package producer

import (
	"context"

	"pipeline"
)

func noCtx(s pipeline.RecordSink, recs []*pipeline.Record) error {
	for _, r := range recs {
		if err := s.Put(r); err != nil { // want "noCtx produces into a RecordSink but takes no context.Context"
			return err
		}
	}
	return nil
}

func ctxUnused(ctx context.Context, s pipeline.RecordSink, recs []*pipeline.Record) error {
	for _, r := range recs {
		if err := s.Put(r); err != nil { // want "ctxUnused produces into a RecordSink without consulting its context"
			return err
		}
	}
	return nil
}

func ctxChecked(ctx context.Context, s pipeline.RecordSink, recs []*pipeline.Record) error {
	for _, r := range recs {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := s.Put(r); err != nil {
			return err
		}
	}
	return nil
}

// replay re-encodes retained records synchronously; there is no
// upstream producer to cancel.
//
//studyvet:sink-exempt — golden: sanctioned synchronous replay
func replay(s pipeline.RecordSink, recs []*pipeline.Record) error {
	for _, r := range recs {
		if err := s.Put(r); err != nil {
			return err
		}
	}
	return nil
}

// netSink mirrors the fabric's network sink: a RecordSink adapter
// whose Put forwards records onto a transport. Sink methods ARE the
// sink contract, not producers — no diagnostic expected.
type netSink struct {
	frames int
}

func (s *netSink) Put(r *pipeline.Record) error {
	s.frames++
	return nil
}

func (s *netSink) Close() error { return nil }

var _ pipeline.RecordSink = (*netSink)(nil)

// shardPump mirrors the fabric worker's shard loop: a producer driving
// a leased shard into a sink, cancellation-aware via ctx.Done().
func shardPump(ctx context.Context, s pipeline.RecordSink, recs []*pipeline.Record) error {
	for _, r := range recs {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if err := s.Put(r); err != nil {
			return err
		}
	}
	return nil
}
