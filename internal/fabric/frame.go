// Package fabric is the campaign's fault-tolerant distributed shard
// runtime: a network transport that replaces the file/stdout shard
// exchange of DESIGN.md §5 with length-prefixed framed record streams
// behind pipeline.RecordSink, and a lease-based coordinator/worker
// protocol that survives worker loss without giving up the
// byte-identical merge guarantee.
//
// The model (DESIGN.md §8): the coordinator owns the campaign's N
// deterministic shards and leases them to connected workers over one
// TCP connection per worker, one lease per worker at a time: a worker
// is granted its next shard only once its previous one committed or
// failed. A worker streams its leased shard's records as framed
// NDJSON; the coordinator buffers them per worker and commits the
// shard only when its Done frame arrives — so a worker that dies
// mid-shard (broken stream or missed heartbeats) loses exactly its
// uncommitted partial buffer, and the coordinator re-queues that shard
// to another worker. Shard execution is a pure function of (seed,
// plan, shard index), so a re-run on any machine reproduces the
// identical record stream and the merged campaign stays byte-identical
// to a single-process run.
package fabric

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/study"
	"repro/internal/telemetry"
)

// FrameType tags one length-prefixed protocol frame.
type FrameType uint8

// Protocol frames. Worker→coordinator frames carry the shard index in
// the first 4 payload bytes where they concern one shard. The values
// are wire constants; 4 and 6 are retired and stay unused.
const (
	// FrameJoin (worker→coord) opens a session; payload is the worker
	// name (informational, used in logs and lease accounting).
	FrameJoin FrameType = 1
	// FrameHello (coord→worker) answers a Join; payload is the
	// coordinator's opaque campaign payload (cmd/measure: CampaignSpec
	// JSON) — workers derive their entire configuration from it, so a
	// fleet cannot diverge on flags.
	FrameHello FrameType = 2
	// FrameGrant (coord→worker) leases one shard; payload is the shard
	// index. A worker's next grant follows only its Done or Fail for
	// the previous one.
	FrameGrant FrameType = 3
	// FrameShutdown (coord→worker) ends the session: every shard is
	// committed, the worker should exit cleanly.
	FrameShutdown FrameType = 5
	// FrameRecord (worker→coord) carries one NDJSON record line of a
	// shard's stream; payload is shard index + line bytes.
	FrameRecord FrameType = 7
	// FrameDone (worker→coord) commits a shard: its buffered stream is
	// complete; payload is the shard index.
	FrameDone FrameType = 8
	// FrameFail (worker→coord) reports a shard run error; payload is
	// shard index + error text. The coordinator re-queues the shard
	// (bounded by its attempt budget, maxAttempts).
	FrameFail FrameType = 9
	// FrameHeartbeat (worker→coord) is the liveness beacon; any frame
	// refreshes the worker's heartbeat clock, this one exists so idle
	// or long-grabbing workers stay visibly alive.
	FrameHeartbeat FrameType = 10
	// FrameRefuse (worker→coord) is a FrameFail whose cause holds for
	// every shard of the campaign, a Hello from another build
	// (ErrOtherBuild): the worker exits after sending it, and the
	// coordinator aborts the campaign with the cause instead of leasing
	// the shard again to a fleet that would refuse it too.
	FrameRefuse FrameType = 11
)

func (t FrameType) String() string {
	switch t {
	case FrameJoin:
		return "join"
	case FrameHello:
		return "hello"
	case FrameGrant:
		return "grant"
	case FrameShutdown:
		return "shutdown"
	case FrameRecord:
		return "record"
	case FrameDone:
		return "done"
	case FrameFail:
		return "fail"
	case FrameHeartbeat:
		return "heartbeat"
	case FrameRefuse:
		return "refuse"
	}
	return fmt.Sprintf("frame(%d)", uint8(t))
}

// maxFramePayload bounds one frame (a record line plus header slack);
// dataset.Decoder tolerates lines up to 16 MiB, frames match it.
const maxFramePayload = 16 << 20

// frameHeaderLen is the wire header: uint32 payload length + uint8 type.
const frameHeaderLen = 5

var (
	// errFrameTooLarge aborts a connection whose peer framed more than
	// maxFramePayload bytes — a corrupt length prefix, not a record.
	errFrameTooLarge = errors.New("fabric: frame exceeds payload bound")
	// ErrSessionSevered is returned by worker I/O after a fault
	// injector dropped the connection.
	ErrSessionSevered = errors.New("fabric: connection severed by fault injector")
	// ErrOtherBuild is DecodeSpec's refusal of a Hello whose Build is not
	// study.CurrentBuild. No lease of that campaign can succeed on this
	// worker, so RunWorker reports it (FrameRefuse) and returns it.
	ErrOtherBuild = errors.New("fabric: Hello from another build")
)

// writeTimeout bounds every frame write and the wait for the opening
// Join/Hello exchange on both sides of a connection.
const writeTimeout = 30 * time.Second

// ioDeadline is writeTimeout from now. The fabric reads the wall clock
// through telemetry.NowNs, the repository's one sanctioned wall-clock
// read; readings drive transport deadlines and heartbeat-gap decisions
// only and never reach record bytes.
func ioDeadline() time.Time { return time.Unix(0, telemetry.NowNs()).Add(writeTimeout) }

// framer serializes frame writes on one connection: one mutex, a write
// deadline per frame (bounded writes — a stalled peer cannot wedge the
// writer forever), a frame counter feeding the fault injector, and a
// wedge mode that simulates a stalled-but-connected peer.
type framer struct {
	conn   net.Conn
	faults FaultInjector

	mu     sync.Mutex
	frame  []byte // the frame being written, header and payload: one write; reused
	n      int    // frames written
	wedged bool   // fault-injected stall: no further writes
	dead   chan struct{}
}

func newFramer(conn net.Conn, faults FaultInjector) *framer {
	if faults == nil {
		faults = NopFaults{}
	}
	return &framer{conn: conn, faults: faults, dead: make(chan struct{})}
}

// markDead unblocks wedged senders; called once by the connection's
// read loop when the peer goes away.
func (f *framer) markDead() {
	f.mu.Lock()
	select {
	case <-f.dead:
	default:
		close(f.dead)
	}
	f.mu.Unlock()
}

// send writes one frame under the write deadline. In wedge mode it
// blocks until the connection dies — the stalled-worker simulation —
// and then reports the severed session.
func (f *framer) send(typ FrameType, payload []byte) error {
	f.mu.Lock()
	if f.wedged {
		f.mu.Unlock()
		<-f.dead
		return ErrSessionSevered
	}
	if err := f.conn.SetWriteDeadline(ioDeadline()); err != nil {
		f.mu.Unlock()
		return fmt.Errorf("fabric: write deadline: %w", err)
	}
	f.frame = binary.BigEndian.AppendUint32(f.frame[:0], uint32(len(payload)))
	f.frame = append(append(f.frame, uint8(typ)), payload...)
	if _, err := f.conn.Write(f.frame); err != nil {
		f.mu.Unlock()
		return fmt.Errorf("fabric: send %s: %w", typ, err)
	}
	f.n++
	action := f.faults.FrameWritten(f.n)
	f.mu.Unlock()
	switch action {
	case FaultSever:
		f.conn.Close()
		return ErrSessionSevered
	case FaultWedge:
		f.wedge()
	}
	return nil
}

// wedge switches the framer into stall mode: subsequent sends block
// until the peer closes the connection.
func (f *framer) wedge() {
	f.mu.Lock()
	f.wedged = true
	f.mu.Unlock()
}

// readFrame reads one length-prefixed frame into *buf, which grows to
// the largest payload read and is reused: the payload aliases it until
// the next call, so a caller that keeps payload bytes longer copies them.
func readFrame(r io.Reader, buf *[]byte) (FrameType, []byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	typ := FrameType(hdr[4])
	if n > maxFramePayload {
		return 0, nil, errFrameTooLarge
	}
	if n == 0 {
		return typ, nil, nil
	}
	if uint32(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	payload := (*buf)[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("fabric: truncated %s frame: %w", typ, err)
	}
	return typ, payload, nil
}

// appendShard appends the tag that opens a shard payload, the shard
// index; extra bytes (a record line, error text) follow it.
func appendShard(dst []byte, shard int) []byte {
	return binary.BigEndian.AppendUint32(dst, uint32(shard))
}

// decodeShard splits a shard-tagged payload.
func decodeShard(payload []byte) (int, []byte, error) {
	if len(payload) < 4 {
		return 0, nil, errors.New("fabric: short shard payload")
	}
	return int(binary.BigEndian.Uint32(payload[:4])), payload[4:], nil
}

// CampaignSpec is the coordinator-authored description of a networked
// campaign, delivered verbatim to every worker in the Hello frame —
// the single source of truth a fleet configures itself from. The
// embedded Study is what the campaign measures: every field that can
// shape a record byte, so every worker must agree on it. Build names
// the code that turns it into bytes, so every worker must run the
// coordinator's. The rest is how: GrabWorkers and Delta let a worker
// execute like its coordinator asked (neither changes a byte), and
// Shards and HeartbeatMs are the fleet's own. Sinks, telemetry and
// analysis stay per-process.
type CampaignSpec struct {
	study.Study
	Build       study.Build `json:"build"`
	GrabWorkers int         `json:"grab_workers"`
	Delta       bool        `json:"delta,omitempty"`
	// Shards is the campaign's total shard count — every worker must
	// slice the probe space the same N ways for the merge to be exact.
	Shards int `json:"shards"`
	// HeartbeatMs is the worker heartbeat cadence the coordinator was
	// given, recorded for information only: no worker reads it. Each
	// worker beats at its own WorkerConfig.HeartbeatEvery (measure
	// -connect -heartbeat), and the coordinator declares a worker dead
	// by its own CoordinatorConfig.DeadAfter.
	HeartbeatMs int64 `json:"heartbeat_ms"`
}

// Encode serializes the spec for the Hello frame.
func (s *CampaignSpec) Encode() ([]byte, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("fabric: encode spec: %w", err)
	}
	return b, nil
}

// DecodeSpec parses a Hello payload. A key this build does not know is
// an error: a worker that dropped it would run another campaign than
// the one its coordinator described. So is a Build other than
// study.CurrentBuild: the worker would stream other bytes for the same
// study, and the merge would take them.
func DecodeSpec(b []byte) (*CampaignSpec, error) {
	s := new(CampaignSpec)
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("fabric: decode spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("fabric: decode spec: data after the spec")
	}
	if s.Build != study.CurrentBuild {
		return nil, fmt.Errorf("%w: study %s is build %+v, this worker is build %+v",
			ErrOtherBuild, s.Study.ID(), s.Build, study.CurrentBuild)
	}
	return s, nil
}
