package fabric

import "sync/atomic"

// FaultAction tells the fabric how to fail at an injection point.
type FaultAction int

const (
	// FaultNone proceeds normally.
	FaultNone FaultAction = iota
	// FaultSever closes the connection immediately — the torn-stream
	// failure a kill -9 or network partition produces. Worker sessions
	// end with ErrSessionSevered and follow the normal reconnect path.
	FaultSever
	// FaultWedge stops all sends (records and heartbeats) while
	// keeping the connection open — the stalled-worker failure only the
	// coordinator's heartbeat deadline can detect.
	FaultWedge
	// FaultKill aborts the worker run abruptly: the connection is
	// severed and RunWorker returns ErrWorkerKilled without reconnecting
	// — the in-process stand-in for kill -9 (cmd/measure exits on it).
	FaultKill
)

// FaultInjector drives the fabric's failure test matrix by injecting
// deterministic worker-side faults at the transport's seams.
// Implementations must be safe for concurrent use: hooks run on the
// framer's send path and the heartbeat goroutine. NopFaults is the
// embeddable no-op base.
type FaultInjector interface {
	// FrameWritten is consulted after the worker's nth frame (1-based,
	// per connection lifetime) hits the wire.
	FrameWritten(n int) FaultAction
	// RecordPut is consulted after the worker streams record n
	// (1-based, per shard) of the given shard.
	RecordPut(shard, n int) FaultAction
	// HeartbeatDue is consulted before the worker's nth heartbeat;
	// FaultWedge suppresses this and all later sends.
	HeartbeatDue(n int) FaultAction
}

// NopFaults injects nothing; embed it to implement one hook.
type NopFaults struct{}

// FrameWritten proceeds normally.
func (NopFaults) FrameWritten(int) FaultAction { return FaultNone }

// RecordPut proceeds normally.
func (NopFaults) RecordPut(int, int) FaultAction { return FaultNone }

// HeartbeatDue proceeds normally.
func (NopFaults) HeartbeatDue(int) FaultAction { return FaultNone }

// KillAfterRecords aborts the worker run (FaultKill) once it has
// streamed n records in total — the mid-shard worker-kill scenario.
type KillAfterRecords struct {
	NopFaults
	N     int64
	total atomic.Int64
}

// RecordPut kills the worker at the nth record, once.
func (k *KillAfterRecords) RecordPut(int, int) FaultAction {
	if k.total.Add(1) == k.N {
		return FaultKill
	}
	return FaultNone
}

// StallAfterRecords wedges the session (FaultWedge) once the worker
// has streamed n records in total: the framer stops writing — records
// and heartbeats alike — while the connection stays open, the
// stalled-worker failure only the coordinator's heartbeat deadline can
// detect. The wedge is framer state, so it dies with the session: once
// the coordinator declares the worker dead and closes the connection,
// the reconnected session behaves normally — the lease-expiry recovery
// scenario.
type StallAfterRecords struct {
	NopFaults
	N     int64
	total atomic.Int64
}

// RecordPut wedges at the nth record, once.
func (s *StallAfterRecords) RecordPut(int, int) FaultAction {
	if s.total.Add(1) == s.N {
		return FaultWedge
	}
	return FaultNone
}

// DropAfterFrames severs the connection (FaultSever) after the nth
// frame of the first session — the broken-stream-mid-flight scenario;
// the worker's seeded backoff then drives the reconnect.
type DropAfterFrames struct {
	NopFaults
	N     int64
	total atomic.Int64
}

// FrameWritten severs at the nth frame, once.
func (d *DropAfterFrames) FrameWritten(int) FaultAction {
	if d.total.Add(1) == d.N {
		return FaultSever
	}
	return FaultNone
}
