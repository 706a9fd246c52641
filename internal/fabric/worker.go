package fabric

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
)

// ErrWorkerKilled is returned by RunWorker when the fault injector
// killed the run mid-shard (FaultKill): the connection was severed
// abruptly, no Done frame was sent, and no reconnect is attempted —
// the in-process equivalent of kill -9. cmd/measure exits on it so a
// subprocess worker dies exactly like a killed one.
var ErrWorkerKilled = errors.New("fabric: worker killed by fault injector")

// ShardRunner executes one leased shard: it derives its configuration
// from the coordinator's hello payload, streams every record of shard
// `shard` into sink in wave order, and returns nil only when the
// shard's stream is complete. The runner must honor ctx cancellation —
// a lost session ends in-flight runs through the sink's write errors
// and the context.
type ShardRunner func(ctx context.Context, hello []byte, shard int, sink pipeline.RecordSink) error

// WorkerConfig tunes one fabric worker.
type WorkerConfig struct {
	// Addr is the coordinator's listen address.
	Addr string
	// Name identifies the worker in coordinator logs.
	Name string
	// HeartbeatEvery is the liveness beacon cadence (default 2s). Keep
	// it well under the coordinator's DeadAfter.
	HeartbeatEvery time.Duration
	// RetrySeed seeds the deterministic dial/reconnect backoff;
	// derive it from (campaign seed, worker identity) so a fleet's
	// retry schedules are reproducible yet mutually de-synchronized.
	RetrySeed int64
	// RetryBase/RetryCap shape the backoff (defaults
	// backoff.DefaultBase/backoff.DefaultCap).
	RetryBase, RetryCap time.Duration
	// MaxDials bounds consecutive failed dial attempts before the
	// worker gives up (default 8).
	MaxDials int
	// Metrics receives the worker-side fabric counters (nil disables).
	Metrics *telemetry.Registry
	// Faults injects failures for the test matrix (nil = none).
	Faults FaultInjector
	// Logf receives worker status lines (nil = silent).
	Logf func(format string, args ...any)
}

func (cfg *WorkerConfig) logf(format string, args ...any) {
	if cfg.Logf != nil {
		cfg.Logf(format, args...)
	}
}

type workerMetrics struct {
	dialRetries *telemetry.Counter
	reconnects  *telemetry.Counter
	grants      *telemetry.Counter
	records     *telemetry.Counter
	shardsDone  *telemetry.Counter
	shardsFail  *telemetry.Counter
}

func newWorkerMetrics(reg *telemetry.Registry) workerMetrics {
	return workerMetrics{
		dialRetries: reg.Counter("fabric_dial_retries"),
		reconnects:  reg.Counter("fabric_reconnects"),
		grants:      reg.Counter("fabric_grants"),
		records:     reg.Counter("fabric_records_sent"),
		shardsDone:  reg.Counter("fabric_shards_done"),
		shardsFail:  reg.Counter("fabric_shards_failed"),
	}
}

// dialTimeout bounds one dial attempt.
const dialTimeout = 10 * time.Second

// RunWorker dials the coordinator and executes leased shards until the
// coordinator sends Shutdown (returns nil), the context is cancelled,
// the fault injector kills the run (ErrWorkerKilled), a shard fails with
// ErrOtherBuild (returned after the worker reports it), or the retry
// budget is exhausted. Connection loss mid-session follows the seeded
// backoff and reconnects; a reconnected worker joins as a fresh
// session and the coordinator re-leases work to it.
func RunWorker(ctx context.Context, cfg WorkerConfig, run ShardRunner) error {
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 2 * time.Second
	}
	if cfg.MaxDials <= 0 {
		cfg.MaxDials = 8
	}
	if cfg.Faults == nil {
		cfg.Faults = NopFaults{}
	}
	m := newWorkerMetrics(cfg.Metrics)
	bo := backoff.New(cfg.RetrySeed, cfg.RetryBase, cfg.RetryCap)

	dialer := net.Dialer{Timeout: dialTimeout}
	dialFails := 0
	sessions := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		conn, err := dialer.DialContext(ctx, "tcp", cfg.Addr)
		if err != nil {
			dialFails++
			m.dialRetries.Inc()
			if dialFails >= cfg.MaxDials {
				return fmt.Errorf("fabric: worker %s: %d consecutive dial failures: %w",
					cfg.Name, dialFails, err)
			}
			if serr := sleepCtx(ctx, bo.Next()); serr != nil {
				return serr
			}
			continue
		}
		dialFails = 0
		sessions++
		if sessions > 1 {
			m.reconnects.Inc()
		}
		done, err := runSession(ctx, &cfg, conn, run, m, bo)
		if done {
			return nil
		}
		if errors.Is(err, ErrOtherBuild) {
			return err
		}
		if errors.Is(err, ErrWorkerKilled) || ctx.Err() != nil {
			if ctx.Err() != nil && !errors.Is(err, ErrWorkerKilled) {
				return ctx.Err()
			}
			return err
		}
		cfg.logf("fabric worker %s: session lost (%v); reconnecting", cfg.Name, err)
		if serr := sleepCtx(ctx, bo.Next()); serr != nil {
			return serr
		}
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	//studyvet:entropy-exempt — liveness: the reconnect backoff waits on the wall; its durations replay from the seed
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// session is the mutable state of one worker connection: the granted
// lease waiting to run and the terminal flags, guarded by mu and
// signalled via wake.
type session struct {
	mu       sync.Mutex
	queue    []int // granted, not yet started; the coordinator leases one at a time
	shutdown bool
	readErr  error
	wake     chan struct{}
}

func (s *session) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// runSession drives one connection lifetime. done=true means the
// coordinator sent Shutdown and the worker should exit cleanly.
func runSession(ctx context.Context, cfg *WorkerConfig, conn net.Conn, run ShardRunner, m workerMetrics, bo *backoff.Backoff) (done bool, err error) {
	defer conn.Close()
	fr := newFramer(conn, cfg.Faults)
	if err := fr.send(FrameJoin, []byte(cfg.Name)); err != nil {
		return false, err
	}
	br := bufio.NewReader(conn)
	// The hello must arrive promptly; afterwards reads block until the
	// coordinator has something to say.
	if err := conn.SetReadDeadline(ioDeadline()); err != nil {
		return false, err
	}
	typ, hello, err := readFrame(br, new([]byte)) // the runner keeps hello
	if err != nil {
		return false, fmt.Errorf("fabric: awaiting hello: %w", err)
	}
	if typ != FrameHello {
		return false, fmt.Errorf("fabric: expected hello, got %s", typ)
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		return false, err
	}
	// The session is established: the next outage restarts the backoff
	// from its base (the exponent rewinds; the jitter stream does not).
	bo.Reset()
	cfg.logf("fabric worker %s: joined %s", cfg.Name, cfg.Addr)

	st := &session{wake: make(chan struct{}, 1)}

	// Reader: grants and shutdown. Any read error (including the
	// coordinator closing a dead worker's connection) collapses the
	// session and unblocks wedged senders.
	go func() {
		var buf []byte
		for {
			typ, payload, rerr := readFrame(br, &buf)
			if rerr != nil {
				st.mu.Lock()
				if st.readErr == nil {
					st.readErr = rerr
				}
				st.mu.Unlock()
				fr.markDead()
				st.kick()
				return
			}
			switch typ {
			case FrameGrant:
				shard, _, derr := decodeShard(payload)
				if derr != nil {
					continue
				}
				m.grants.Inc()
				st.mu.Lock()
				st.queue = append(st.queue, shard)
				st.mu.Unlock()
				st.kick()
			case FrameShutdown:
				st.mu.Lock()
				st.shutdown = true
				st.mu.Unlock()
				st.kick()
				return
			}
		}
	}()

	// Heartbeat beacon. Send errors are left to the reader/run loop to
	// surface; a wedge fault silences the beacon without closing the
	// connection.
	hbStop := make(chan struct{})
	defer close(hbStop)
	go func() {
		//studyvet:entropy-exempt — liveness: heartbeats are wall time between processes; no record reads them
		t := time.NewTicker(cfg.HeartbeatEvery)
		defer t.Stop()
		for n := 1; ; n++ {
			select {
			case <-hbStop:
				return
			case <-t.C:
			}
			switch cfg.Faults.HeartbeatDue(n) {
			case FaultWedge:
				fr.wedge()
				continue
			case FaultSever:
				conn.Close()
				return
			case FaultKill:
				conn.Close()
				return
			}
			if err := fr.send(FrameHeartbeat, nil); err != nil {
				return
			}
		}
	}()

	for {
		st.mu.Lock()
		down, rerr := st.shutdown, st.readErr
		var shard int
		hasShard := false
		if !down && len(st.queue) > 0 {
			shard, st.queue = st.queue[0], st.queue[1:]
			hasShard = true
		}
		st.mu.Unlock()

		if !hasShard {
			// The coordinator says shutdown only once every shard is
			// committed.
			if down {
				return true, nil
			}
			if rerr != nil {
				return false, rerr
			}
			select {
			case <-st.wake:
			case <-ctx.Done():
				return false, ctx.Err()
			}
			continue
		}

		cfg.logf("fabric worker %s: running shard %d", cfg.Name, shard)
		sink := newNetSink(fr, shard, cfg.Faults, m.records)
		rerr = run(ctx, hello, shard, sink)
		switch {
		case rerr == nil:
			if err := fr.send(FrameDone, appendShard(nil, shard)); err != nil {
				return false, err
			}
			m.shardsDone.Inc()
		case errors.Is(rerr, ErrWorkerKilled):
			return false, rerr
		case errors.Is(rerr, ErrSessionSevered) || ctx.Err() != nil:
			return false, rerr
		default:
			// A shard-level failure the connection survived: report it
			// so the coordinator re-queues within its attempt budget, or,
			// when no lease of this campaign can succeed here, aborts.
			m.shardsFail.Inc()
			cfg.logf("fabric worker %s: shard %d failed: %v", cfg.Name, shard, rerr)
			typ := FrameFail
			if errors.Is(rerr, ErrOtherBuild) {
				typ = FrameRefuse
			}
			if err := fr.send(typ, append(appendShard(nil, shard), rerr.Error()...)); err != nil {
				return false, err
			}
			if typ == FrameRefuse {
				return false, rerr
			}
		}
	}
}
