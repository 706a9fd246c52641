package fabric

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/telemetry"
)

// NetSink is the dialer-side pipeline.RecordSink of one leased shard:
// every Put frames the record as one NDJSON line (dataset.AppendRecord,
// the bytes dataset.Encoder writes) tagged with the shard index and
// writes it under the framer's bounded write deadline. The coordinator
// buffers the lines verbatim per (worker, shard) and, only after the
// shard's Done frame, commits them; Coordinator.Run returns the
// committed streams and its caller decodes them (dataset.Decoder, via
// pipeline.MergeShardStreams): what reaches the merge is the byte stream
// RunCampaignShard would have written to any other EncoderSink.
//
// A NetSink does not own the connection (the worker session does);
// Close is a no-op kept for the RecordSink contract. Put is
// single-goroutine per the RecordSink contract — one shard runs on one
// goroutine — while the framer's own mutex serializes it against the
// session's heartbeat frames.
type NetSink struct {
	fr      *framer
	shard   int
	n       int // records streamed on this shard
	faults  FaultInjector
	records *telemetry.Counter
	frame   []byte // the record frame's payload, reused
}

func newNetSink(fr *framer, shard int, faults FaultInjector, records *telemetry.Counter) *NetSink {
	if faults == nil {
		faults = NopFaults{}
	}
	return &NetSink{fr: fr, shard: shard, faults: faults, records: records}
}

// Put frames one record. After the frame is on the wire the fault
// injector may sever the connection, wedge the session, or kill the
// worker run (ErrWorkerKilled) — the failure points the test matrix
// drives.
//
//studyvet:hotpath — once per record a worker streams; a steady-state Put allocates nothing
func (s *NetSink) Put(rec *dataset.HostRecord) error {
	frame, err := dataset.AppendRecord(appendShard(s.frame[:0], s.shard), rec)
	if err != nil {
		return fmt.Errorf("fabric: encode record: %w", err) //studyvet:alloc-ok — failure path
	}
	s.frame = append(frame, '\n')
	if err := s.fr.send(FrameRecord, s.frame); err != nil {
		return err
	}
	s.n++
	s.records.Inc()
	switch s.faults.RecordPut(s.shard, s.n) {
	case FaultSever:
		s.fr.conn.Close()
		return ErrSessionSevered
	case FaultWedge:
		s.fr.wedge()
	case FaultKill:
		s.fr.conn.Close()
		return ErrWorkerKilled
	}
	return nil
}

// Close is a no-op: the worker session owns the connection and sends
// the shard's Done/Fail frame itself.
func (s *NetSink) Close() error { return nil }
