package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/study"
	"repro/internal/telemetry"
)

const helloPayload = "fabric-test-hello"

// testRecords is the deterministic record stream of one shard: n
// records across waves of three, addresses unique per (shard, index).
func testRecords(shard, n int) []*dataset.HostRecord {
	recs := make([]*dataset.HostRecord, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, &dataset.HostRecord{
			Wave:         i / 3,
			Date:         time.Unix(0, int64(shard)*1e9+int64(i)).UTC(),
			Address:      fmt.Sprintf("10.%d.0.%d:4840", shard, i),
			Via:          "portscan",
			ReachedOPCUA: true,
		})
	}
	return recs
}

// wantStream is the exact NDJSON byte stream a committed shard must
// carry: the byte-identity oracle for every fault scenario.
func wantStream(t *testing.T, shard, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, rec := range testRecords(shard, n) {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// testRunner emits testRecords(shard, n) with an optional per-record
// delay, propagating sink errors (the fault injectors surface there).
func testRunner(n int, delay time.Duration) ShardRunner {
	return func(ctx context.Context, hello []byte, shard int, sink pipeline.RecordSink) error {
		if string(hello) != helloPayload {
			return fmt.Errorf("bad hello payload %q", hello)
		}
		for _, rec := range testRecords(shard, n) {
			if delay > 0 {
				if err := sleepCtx(ctx, delay); err != nil {
					return err
				}
			}
			if err := sink.Put(rec); err != nil {
				return err
			}
		}
		return sink.Close()
	}
}

// fleet runs one coordinator plus workers to completion and collects
// every side's outcome.
type fleet struct {
	streams  [][]byte
	runErr   error
	coordReg *telemetry.Registry
	wRegs    []*telemetry.Registry
	wErrs    []error
}

// runFleet wires a coordinator and one worker per workerFaults entry
// over loopback TCP, every worker running run. Worker configs get their
// Addr, Name, Metrics and timing filled in.
func runFleet(t *testing.T, ccfg CoordinatorConfig, workerFaults []FaultInjector, run ShardRunner) *fleet {
	t.Helper()
	return runFleetEach(t, ccfg, workerFaults, func(*telemetry.Registry) ShardRunner { return run })
}

// runFleetEach is runFleet with a runner per worker, built from the
// worker's own metrics registry.
func runFleetEach(t *testing.T, ccfg CoordinatorConfig, workerFaults []FaultInjector, runnerFor func(*telemetry.Registry) ShardRunner) *fleet {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	if ccfg.Hello == nil {
		ccfg.Hello = []byte(helloPayload)
	}
	if ccfg.Metrics == nil {
		ccfg.Metrics = telemetry.New()
	}
	ccfg.Logf = t.Logf
	coord := NewCoordinator(ln, ccfg)

	fl := &fleet{
		coordReg: ccfg.Metrics,
		wRegs:    make([]*telemetry.Registry, len(workerFaults)),
		wErrs:    make([]error, len(workerFaults)),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	for i, faults := range workerFaults {
		reg := telemetry.New()
		fl.wRegs[i] = reg
		cfg := WorkerConfig{
			Addr:           ln.Addr().String(),
			Name:           fmt.Sprintf("w%d", i),
			HeartbeatEvery: 25 * time.Millisecond,
			RetrySeed:      int64(1000 + i),
			RetryBase:      5 * time.Millisecond,
			RetryCap:       50 * time.Millisecond,
			MaxDials:       5,
			Metrics:        reg,
			Faults:         faults,
			Logf:           t.Logf,
		}
		wg.Add(1)
		go func(i int, cfg WorkerConfig, run ShardRunner) {
			defer wg.Done()
			fl.wErrs[i] = RunWorker(ctx, cfg, run)
		}(i, cfg, runnerFor(reg))
	}

	fl.streams, fl.runErr = coord.Run(ctx)

	wgDone := make(chan struct{})
	go func() { wg.Wait(); close(wgDone) }()
	select {
	case <-wgDone:
	case <-time.After(30 * time.Second):
		t.Fatal("workers did not exit after coordinator shutdown")
	}
	return fl
}

// checkStreams asserts every committed shard stream is byte-identical
// to the deterministic re-run — the invariant every fault recovery
// must preserve.
func (fl *fleet) checkStreams(t *testing.T, shards, recs int) {
	t.Helper()
	if fl.runErr != nil {
		t.Fatalf("coordinator: %v", fl.runErr)
	}
	if len(fl.streams) != shards {
		t.Fatalf("got %d streams, want %d", len(fl.streams), shards)
	}
	for shard, got := range fl.streams {
		if want := wantStream(t, shard, recs); !bytes.Equal(got, want) {
			t.Errorf("shard %d stream diverged:\n got %d bytes: %.120q\nwant %d bytes: %.120q",
				shard, len(got), got, len(want), want)
		}
	}
}

func counter(reg *telemetry.Registry, name string) uint64 {
	return reg.Counter(name).Load()
}

func TestFabricCommitsAllShards(t *testing.T) {
	const shards, recs, workers = 8, 5, 3
	// Eight five-record shards take one worker a millisecond: hold every
	// shard until the whole fleet has joined, or a worker that dials in
	// after the last commit finds the listener closed and fails the
	// no-worker-errored assertion below with its dial budget spent.
	reg := telemetry.New()
	emit := testRunner(recs, 0)
	fl := runFleet(t,
		CoordinatorConfig{Shards: shards, DeadAfter: 2 * time.Second, Metrics: reg},
		make([]FaultInjector, workers),
		func(ctx context.Context, hello []byte, shard int, sink pipeline.RecordSink) error {
			for counter(reg, "fabric_workers_joined") < workers {
				if err := sleepCtx(ctx, time.Millisecond); err != nil {
					return err
				}
			}
			return emit(ctx, hello, shard, sink)
		})
	fl.checkStreams(t, shards, recs)
	if got := counter(fl.coordReg, "fabric_shards_committed"); got != shards {
		t.Errorf("fabric_shards_committed = %d, want %d", got, shards)
	}
	if got := counter(fl.coordReg, "fabric_leases_granted"); got != shards {
		t.Errorf("fabric_leases_granted = %d, want %d", got, shards)
	}
	var done uint64
	for _, reg := range fl.wRegs {
		done += counter(reg, "fabric_shards_done")
	}
	if done < shards {
		t.Errorf("workers report %d shards done, want >= %d", done, shards)
	}
	for i, err := range fl.wErrs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
}

// TestFabricOneLeasePerWorker pins lease-at-a-time: a worker is
// granted its next shard only once its previous one committed. Each
// shard waits a few milliseconds before it emits, time enough for any
// grant already sent to land, and then the worker must have been
// granted exactly the shards it has started.
func TestFabricOneLeasePerWorker(t *testing.T) {
	const shards, recs = 6, 3
	emit := testRunner(recs, 0)
	fl := runFleetEach(t,
		CoordinatorConfig{Shards: shards, DeadAfter: 2 * time.Second},
		make([]FaultInjector, 2),
		func(reg *telemetry.Registry) ShardRunner {
			var started uint64 // this worker's shards, run one after another
			return func(ctx context.Context, hello []byte, shard int, sink pipeline.RecordSink) error {
				started++
				if err := sleepCtx(ctx, 5*time.Millisecond); err != nil {
					return err
				}
				if got := counter(reg, "fabric_grants"); got != started {
					t.Errorf("shard %d: worker holds %d grants after starting %d shards", shard, got, started)
				}
				return emit(ctx, hello, shard, sink)
			}
		})
	fl.checkStreams(t, shards, recs)
	if got := counter(fl.coordReg, "fabric_leases_granted"); got != shards {
		t.Errorf("fabric_leases_granted = %d, want %d", got, shards)
	}
}

// TestFabricMergeFromNetworkStreams replays committed network streams
// through dataset.Decoder and pipeline.MergeShardStreams, proving the
// transport is invisible to the pipeline.
func TestFabricMergeFromNetworkStreams(t *testing.T) {
	const shards, recs = 4, 6
	fl := runFleet(t,
		CoordinatorConfig{Shards: shards, DeadAfter: 2 * time.Second},
		[]FaultInjector{nil, nil},
		testRunner(recs, 0))
	fl.checkStreams(t, shards, recs)

	decs := make([]*dataset.Decoder, shards)
	for i, stream := range fl.streams {
		decs[i] = dataset.NewDecoder(bytes.NewReader(stream))
	}
	var sink pipeline.SliceSink
	if err := pipeline.MergeShardStreams(&sink, decs...); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if got, want := len(sink.Records), shards*recs; got != want {
		t.Fatalf("merged %d records, want %d", got, want)
	}
	for i := 1; i < len(sink.Records); i++ {
		if sink.Records[i].Wave < sink.Records[i-1].Wave {
			t.Fatalf("merge broke wave order at %d: wave %d after %d",
				i, sink.Records[i].Wave, sink.Records[i-1].Wave)
		}
	}
}

// TestFabricWorkerKillRequeues kills one worker mid-shard: its partial
// buffers must be discarded, its shards re-queued, and the survivor's
// re-run must land byte-identical streams.
func TestFabricWorkerKillRequeues(t *testing.T) {
	const shards, recs = 4, 6
	fl := runFleet(t,
		CoordinatorConfig{Shards: shards, DeadAfter: 2 * time.Second},
		[]FaultInjector{&KillAfterRecords{N: 2}, nil},
		testRunner(recs, 2*time.Millisecond))
	fl.checkStreams(t, shards, recs)
	if !errors.Is(fl.wErrs[0], ErrWorkerKilled) {
		t.Errorf("killed worker returned %v, want ErrWorkerKilled", fl.wErrs[0])
	}
	if err := fl.wErrs[1]; err != nil {
		t.Errorf("surviving worker: %v", err)
	}
	if got := counter(fl.coordReg, "fabric_workers_dead"); got < 1 {
		t.Errorf("fabric_workers_dead = %d, want >= 1", got)
	}
	if got := counter(fl.coordReg, "fabric_leases_requeued"); got < 1 {
		t.Errorf("fabric_leases_requeued = %d, want >= 1", got)
	}
}

// TestFabricHeartbeatStallLeaseExpiry wedges one worker mid-shard with
// the connection held open: only the heartbeat deadline can notice.
// The lease must expire, the shard re-queue, and the campaign finish
// byte-identical.
func TestFabricHeartbeatStallLeaseExpiry(t *testing.T) {
	const shards, recs = 4, 6
	deadAfter := 400 * time.Millisecond
	fl := runFleet(t,
		CoordinatorConfig{Shards: shards, DeadAfter: deadAfter},
		[]FaultInjector{&StallAfterRecords{N: 2}, nil},
		testRunner(recs, 2*time.Millisecond))
	fl.checkStreams(t, shards, recs)
	if got := counter(fl.coordReg, "fabric_workers_dead"); got < 1 {
		t.Errorf("fabric_workers_dead = %d, want >= 1 (lease expiry)", got)
	}
	if got := counter(fl.coordReg, "fabric_leases_requeued"); got < 1 {
		t.Errorf("fabric_leases_requeued = %d, want >= 1", got)
	}
	if gap := fl.coordReg.MaxGauge("fabric_heartbeat_gap_ns").Load(); gap <= deadAfter.Nanoseconds() {
		t.Errorf("fabric_heartbeat_gap_ns = %d, want > %d (the stall must be visible)",
			gap, deadAfter.Nanoseconds())
	}
}

// TestFabricReconnectAfterDrop severs the worker's only connection
// mid-stream; the seeded backoff must reconnect it and the re-run must
// restore byte-identity. The drop follows the fifth frame (the Join
// and four records), inside the first shard.
func TestFabricReconnectAfterDrop(t *testing.T) {
	const shards, recs = 3, 6
	fl := runFleet(t,
		CoordinatorConfig{Shards: shards, DeadAfter: 2 * time.Second},
		[]FaultInjector{&DropAfterFrames{N: 5}},
		testRunner(recs, time.Millisecond))
	fl.checkStreams(t, shards, recs)
	if err := fl.wErrs[0]; err != nil {
		t.Errorf("worker after reconnect: %v", err)
	}
	if got := counter(fl.wRegs[0], "fabric_reconnects"); got < 1 {
		t.Errorf("fabric_reconnects = %d, want >= 1", got)
	}
	if got := counter(fl.coordReg, "fabric_leases_requeued"); got < 1 {
		t.Errorf("fabric_leases_requeued = %d, want >= 1", got)
	}
	// Records of the severed shard reached the coordinator and were
	// discarded with its lease: the drop landed mid-shard.
	if got := counter(fl.coordReg, "fabric_records_received"); got <= shards*recs {
		t.Errorf("fabric_records_received = %d, want > %d", got, shards*recs)
	}
}

// TestFabricShardFailureRequeues reports a transient shard error via
// the Fail frame; the shard must re-queue and succeed on retry.
func TestFabricShardFailureRequeues(t *testing.T) {
	const shards, recs = 3, 4
	var failed atomic.Int64
	inner := testRunner(recs, 0)
	run := func(ctx context.Context, hello []byte, shard int, sink pipeline.RecordSink) error {
		if shard == 1 && failed.Add(1) == 1 {
			return errors.New("transient shard failure")
		}
		return inner(ctx, hello, shard, sink)
	}
	fl := runFleet(t,
		CoordinatorConfig{Shards: shards, DeadAfter: 2 * time.Second},
		[]FaultInjector{nil},
		run)
	fl.checkStreams(t, shards, recs)
	if got := counter(fl.coordReg, "fabric_leases_requeued"); got < 1 {
		t.Errorf("fabric_leases_requeued = %d, want >= 1", got)
	}
	if got := counter(fl.wRegs[0], "fabric_shards_failed"); got != 1 {
		t.Errorf("fabric_shards_failed = %d, want 1", got)
	}
}

// TestFabricAttemptBudgetAborts pins the ping-pong bound: a shard that
// fails deterministically must abort the campaign after maxAttempts
// leases, not circulate forever, with an error that says why the shard
// failed.
func TestFabricAttemptBudgetAborts(t *testing.T) {
	const shards, recs = 2, 3
	inner := testRunner(recs, 0)
	run := func(ctx context.Context, hello []byte, shard int, sink pipeline.RecordSink) error {
		if shard == 0 {
			return errors.New("poisoned shard")
		}
		return inner(ctx, hello, shard, sink)
	}
	fl := runFleet(t,
		CoordinatorConfig{Shards: shards, DeadAfter: 2 * time.Second},
		[]FaultInjector{nil},
		run)
	if fl.runErr == nil {
		t.Fatal("coordinator succeeded despite a deterministically failing shard")
	}
	if !strings.Contains(fl.runErr.Error(), "attempt budget") {
		t.Errorf("error %q does not name the attempt budget", fl.runErr)
	}
	if !strings.Contains(fl.runErr.Error(), "poisoned shard") {
		t.Errorf("error %q does not carry the worker's failure", fl.runErr)
	}
}

// TestFabricRefusesOtherBuild: a worker refuses a Hello from another
// build after one lease and returns the refusal, naming both builds, and
// the same refusal is the error the coordinator's Run returns.
func TestFabricRefusesOtherBuild(t *testing.T) {
	spec := CampaignSpec{Study: study.Study{Seed: 2020, Waves: []int{7}, NoiseProb: 0.01}, Build: study.CurrentBuild, Shards: 2}
	spec.Build.Records++
	hello, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	run := func(ctx context.Context, hello []byte, shard int, sink pipeline.RecordSink) error {
		if _, err := DecodeSpec(hello); err != nil {
			return err
		}
		return errors.New("ran a shard of another build's Hello")
	}
	fl := runFleet(t,
		CoordinatorConfig{Shards: spec.Shards, Hello: hello, DeadAfter: 2 * time.Second},
		[]FaultInjector{nil},
		run)
	if fl.runErr == nil {
		t.Fatal("coordinator succeeded with a worker of another build")
	}
	if !errors.Is(fl.wErrs[0], ErrOtherBuild) {
		t.Errorf("worker returned %v, want ErrOtherBuild", fl.wErrs[0])
	}
	for _, want := range []string{fmt.Sprintf("%+v", spec.Build), fmt.Sprintf("%+v", study.CurrentBuild)} {
		for who, err := range map[string]error{"coordinator": fl.runErr, "worker": fl.wErrs[0]} {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s error %v does not name build %s", who, err, want)
			}
		}
	}
	if got := counter(fl.wRegs[0], "fabric_grants"); got != 1 {
		t.Errorf("the refusing worker took %d leases, want 1", got)
	}
}

// TestFabricDialRetryBudget pins the give-up path: a coordinator that
// never answers exhausts MaxDials over the seeded backoff.
func TestFabricDialRetryBudget(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	reg := telemetry.New()
	err = RunWorker(context.Background(), WorkerConfig{
		Addr:      addr,
		Name:      "orphan",
		RetrySeed: 7,
		RetryBase: 2 * time.Millisecond,
		RetryCap:  10 * time.Millisecond,
		MaxDials:  3,
		Metrics:   reg,
	}, testRunner(1, 0))
	if err == nil {
		t.Fatal("RunWorker succeeded with no coordinator")
	}
	if !strings.Contains(err.Error(), "consecutive dial failures") {
		t.Errorf("error %q does not report the dial budget", err)
	}
	if got := counter(reg, "fabric_dial_retries"); got != 3 {
		t.Errorf("fabric_dial_retries = %d, want 3", got)
	}
}

// TestCampaignSpecRoundTrip pins the Hello payload codec.
func TestCampaignSpecRoundTrip(t *testing.T) {
	spec := &CampaignSpec{
		Study: study.Study{Seed: 2020, Waves: []int{6, 7}, TestKeySizes: true,
			NoiseProb: 1e-5, MaxHosts: 60, ChaosProfile: "mixed", ChaosSeed: 7},
		Build:       study.CurrentBuild,
		GrabWorkers: 8, Delta: true, Shards: 5, HeartbeatMs: 2000,
	}
	b, err := spec.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeSpec(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, spec) {
		t.Errorf("round trip diverged:\n got %+v\nwant %+v", got, spec)
	}
}

// TestCampaignSpecRejectsUnknownKeys pins that a worker refuses a Hello
// it cannot read in full: a key from another build (a field this one
// dropped, or a Study field it does not have yet) would otherwise be
// dropped silently and the worker would run another campaign than its
// coordinator described.
func TestCampaignSpecRejectsUnknownKeys(t *testing.T) {
	b, err := (&CampaignSpec{Study: study.Study{Seed: 2020}, Build: study.CurrentBuild, Shards: 2}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"crypto_cache", "world_image"} {
		hello := append([]byte(`{"`+key+`":-1,`), b[1:]...)
		if _, err := DecodeSpec(hello); err == nil || !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Errorf("DecodeSpec(%s): err %v, want one naming %q", hello, err, key)
		}
	}
	if _, err := DecodeSpec(append(b, "{}"...)); err == nil {
		t.Error("DecodeSpec accepted data after the spec")
	}
}

// TestCampaignSpecRefusesOtherBuild bumps each Build version in turn: the
// worker refuses the Hello, naming both builds and the study's ID.
func TestCampaignSpecRefusesOtherBuild(t *testing.T) {
	st := study.Study{Seed: 2020, Waves: []int{7}, NoiseProb: 0.01}
	for i := 0; i < reflect.TypeFor[study.Build]().NumField(); i++ {
		spec := CampaignSpec{Study: st, Build: study.CurrentBuild, Shards: 2}
		v := reflect.ValueOf(&spec.Build).Elem().Field(i)
		v.SetInt(v.Int() + 1)
		hello, err := spec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		_, err = DecodeSpec(hello)
		for _, want := range []string{fmt.Sprintf("%+v", spec.Build), fmt.Sprintf("%+v", study.CurrentBuild), st.ID()} {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("Build.%s bumped: err %v, want one naming %s", reflect.TypeFor[study.Build]().Field(i).Name, err, want)
			}
		}
	}
}

// discardConn is a net.Conn whose writes succeed and land in w.
type discardConn struct {
	net.Conn
	w bytes.Buffer
}

func (c *discardConn) Write(p []byte) (int, error)      { return c.w.Write(p) }
func (c *discardConn) SetWriteDeadline(time.Time) error { return nil }

// TestNetSinkPut pins a record frame, shard tag then the line
// json.Marshal writes, and checks that a steady-state Put allocates
// nothing.
func TestNetSinkPut(t *testing.T) {
	rec := testRecords(3, 1)[0]
	rec.Endpoints = []dataset.EndpointRecord{{URL: "opc.tcp://10.3.0.0:4840", Mode: "None", TokenTypes: []string{"Anonymous"}}}
	rec.Cert = &dataset.CertRecord{Thumbprint: "ab12", SubjectOrg: "B&R", NotBefore: rec.Date, NotAfter: rec.Date.AddDate(10, 0, 0)}
	conn := new(discardConn)
	reg := telemetry.New()
	sink := newNetSink(newFramer(conn, nil), 3, nil, reg.Counter("records"))
	if err := sink.Put(rec); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(&conn.w, new([]byte))
	if err != nil {
		t.Fatal(err)
	}
	shard, line, err := decodeShard(payload)
	want, _ := json.Marshal(rec)
	if err != nil || typ != FrameRecord || shard != 3 || string(line) != string(want)+"\n" {
		t.Fatalf("frame %s shard %d line %q (%v), want record, 3, %q", typ, shard, line, err, want)
	}
	conn.w.Grow(1 << 20)
	if allocs := testing.AllocsPerRun(1000, func() {
		conn.w.Reset()
		if err := sink.Put(rec); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Put allocates %.1f times per record, want 0", allocs)
	}
}

// TestCoordinatorCommitsConcatenatedLines drives the coordinator with
// a raw-frame worker. On shard 0, record lines of mixed sizes (one
// longer than a lease block, several blocks in all) interleaved with
// heartbeats must commit as exactly their concatenation, whatever the
// reused read buffer held before each line. On shard 1 a lease fails
// part-way: its lines are discarded, the re-granted lease commits only
// its own, and the logged failure message survives the reads after it.
func TestCoordinatorCommitsConcatenatedLines(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var logged [][]any // arguments kept unformatted until the run is over
	coord := NewCoordinator(ln, CoordinatorConfig{Shards: 2, Hello: []byte(helloPayload),
		Logf: func(format string, args ...any) {
			mu.Lock()
			logged = append(logged, append([]any{format}, args...))
			mu.Unlock()
		}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var streams [][]byte
	runErr := make(chan error, 1)
	go func() {
		var err error
		streams, err = coord.Run(ctx)
		runErr <- err
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fr := newFramer(conn, nil)
	send := func(typ FrameType, payload []byte) {
		t.Helper()
		if err := fr.send(typ, payload); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(conn)
	var buf []byte
	expect := func(want FrameType, shard int) {
		t.Helper()
		typ, payload, err := readFrame(br, &buf)
		if err != nil || typ != want {
			t.Fatalf("got %s (%v), want %s", typ, err, want)
		}
		if want == FrameGrant {
			if got, _, err := decodeShard(payload); err != nil || got != shard {
				t.Fatalf("granted shard %d (%v), want %d", got, err, shard)
			}
		}
	}
	// sendLines sends n lines on shard, line i of length size(i), and
	// returns their concatenation.
	sendLines := func(shard, n int, size func(i int) int) []byte {
		var all []byte
		for i := 0; i < n; i++ {
			line := bytes.Repeat([]byte{byte('a' + (shard+i)%26)}, size(i))
			line[len(line)-1] = '\n'
			all = append(all, line...)
			send(FrameRecord, append(appendShard(nil, shard), line...))
			if i%5 == 0 {
				send(FrameHeartbeat, nil)
			}
		}
		return all
	}

	send(FrameJoin, []byte("raw"))
	expect(FrameHello, 0)
	expect(FrameGrant, 0)
	want0 := sendLines(0, 600, func(i int) int {
		if i == 300 {
			return leaseBlock + 1
		}
		return 1 + i*7919%8000
	})
	if len(want0) < 3*leaseBlock {
		t.Fatalf("stream of %d bytes spans fewer than three lease blocks", len(want0))
	}
	send(FrameDone, appendShard(nil, 0))

	expect(FrameGrant, 1)
	sendLines(1, 20, func(i int) int { return 3000 + i })
	const failMsg = "runner failed"
	send(FrameFail, append(appendShard(nil, 1), failMsg...))
	expect(FrameGrant, 1)
	want1 := sendLines(1, 40, func(i int) int { return 1 + i*31%2000 })
	send(FrameDone, appendShard(nil, 1))

	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	for shard, want := range [][]byte{want0, want1} {
		if !bytes.Equal(streams[shard], want) {
			t.Errorf("shard %d: committed stream (%d bytes) is not the %d bytes of its lease's lines",
				shard, len(streams[shard]), len(want))
		}
	}
	mu.Lock()
	defer mu.Unlock()
	failed := 0
	for _, args := range logged {
		if line := fmt.Sprintf(args[0].(string), args[1:]...); strings.Contains(line, "failed shard") {
			failed++
			if !strings.HasSuffix(line, ": "+failMsg) {
				t.Errorf("logged %q, want the failure message %q", line, failMsg)
			}
		}
	}
	if failed != 1 {
		t.Errorf("logged %d shard failures, want 1", failed)
	}
}
