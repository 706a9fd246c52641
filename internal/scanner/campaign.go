package scanner

import (
	"context"
	"sync"
	"time"

	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// DefaultMaxFollowDepth bounds transitive reference following: a
// reference found at this depth is not followed. Delta campaigns replay
// the same bound when deciding which carried-over references a skipped
// referrer still surfaces.
const DefaultMaxFollowDepth = 2

// WaveConfig controls one weekly measurement.
type WaveConfig struct {
	// Date labels the wave (the paper scans 2020-02-09 … 2020-08-30).
	Date time.Time
	// FollowReferences enables scanning host/port combinations announced
	// by other servers; the paper added this on 2020-05-04.
	FollowReferences bool
	// GrabWorkers parallelizes the application-layer stage. The grab
	// work queue's channel buffer is twice this; the pending frontier
	// itself is unbounded (the dispatcher holds overflow), so workers
	// never block when they discover follow-up references.
	GrabWorkers int
	PortScan    PortScanConfig
	// Metrics receives the grab-stage instruments (grab_targets,
	// grab_done, grab_opcua, grab_noise, grab_followups,
	// grab_queue_depth high-water, grab_queue_wait_ns histogram); nil
	// disables telemetry at zero cost. The campaign runtime passes a
	// per-wave scope; it is also copied into PortScan.Metrics by callers
	// that want the discovery stage counted under the same scope.
	Metrics *telemetry.Registry
	// Delta, when non-nil, narrows the wave to its fingerprint misses:
	// targets the campaign proved unchanged since the prior wave are
	// dropped (their prior records are cloned outside the scanner) and
	// references carried over from skipped referrers are injected. The
	// port scan itself still sweeps the full range, so OpenPorts stays
	// the full wave's count.
	Delta *WaveDelta
}

// WaveDelta is a delta campaign's grab-narrowing instruction for one
// wave (see internal/wavediff and DESIGN.md §10). Skip reports whether
// an address's record is provably unchanged since the prior wave; such
// addresses are removed from the port-scan seed targets and never
// enqueued as follow-up references. Inject seeds the references a
// skipped referrer was observed to surface in its last real grab —
// the wave must still grab the ones whose own fingerprint missed.
type WaveDelta struct {
	Skip   func(addr string) bool
	Inject []InjectTarget
}

// InjectTarget is one carried-over reference target. Depth is the
// follow-up depth the reference entered the prior scan at (referrer
// depth + 1), replayed so the DefaultMaxFollowDepth cutoff behaves
// exactly as in a full scan.
type InjectTarget struct {
	Addr  string
	Depth int
}

// Wave is the outcome of one measurement run.
type Wave struct {
	Date time.Time
	// Results holds one entry per grabbed target, sorted deterministically
	// (port-scan targets before follow-references, then by address) so
	// equal campaigns produce byte-identical datasets regardless of
	// worker scheduling.
	Results []*Result
	// OpenPorts is the number of addresses with TCP 4840 open (most are
	// not OPC UA).
	OpenPorts int
	// Partial is true when the wave was cut short by context
	// cancellation; Results then holds only the grabs that completed.
	Partial  bool
	Duration time.Duration
}

// RunWave executes a full measurement: port scan, grab, follow-ups.
//
// Targets flow through a single work queue consumed by a fixed pool of
// cfg.GrabWorkers goroutines; follow-up references discovered mid-grab
// are enqueued immediately (deduplicated against everything already
// queued) instead of waiting for a whole depth to drain.
//
// The wave only reads nw — any simnet.View works, including the
// immutable worldview snapshots the campaign materializes per wave, so
// multiple RunWave calls against different views may run concurrently.
// The scanner's Dialer should point at the same view so grabs observe
// the population the port scan discovered.
//
// Cancellation contract: if ctx is cancelled mid-wave, RunWave returns
// the partial wave — every grab that completed before cancellation,
// with Wave.Partial set — together with ctx's error. A cancellation
// that lands during the port-scan stage returns an empty partial wave
// (no grabs ran), so callers can always tell an interrupted wave from
// one never started; the wave is never nil alongside a non-nil error.
func RunWave(ctx context.Context, nw simnet.View, sc *Scanner, cfg WaveConfig) (*Wave, error) {
	return runWaveRange(ctx, nw, sc, cfg, 0, nw.Universe().Size())
}

// grabJob is one queued target with its follow-up depth (0 = port scan)
// and the telemetry clock at enqueue time (0 when telemetry is off).
type grabJob struct {
	target     Target
	depth      int
	enqueuedNs int64
}

// grabMetrics bundles the grab-stage instruments, resolved once per
// wave so the scheduler never touches the registry mid-flight. The zero
// value (all-nil instruments, the product of a nil registry) is the
// disabled state: every observation is one pointer check.
type grabMetrics struct {
	targets   *telemetry.Counter
	done      *telemetry.Counter
	opcua     *telemetry.Counter
	noise     *telemetry.Counter
	followups *telemetry.Counter

	queueDepth *telemetry.MaxGauge
	queueWait  *telemetry.Histogram
}

func newGrabMetrics(reg *telemetry.Registry) grabMetrics {
	return grabMetrics{
		targets:    reg.Counter("grab_targets"),
		done:       reg.Counter("grab_done"),
		opcua:      reg.Counter("grab_opcua"),
		noise:      reg.Counter("grab_noise"),
		followups:  reg.Counter("grab_followups"),
		queueDepth: reg.MaxGauge("grab_queue_depth"),
		queueWait:  reg.Histogram("grab_queue_wait_ns"),
	}
}

// observe classifies one finished grab: real OPC UA server vs port-4840
// noise (the paper's 0.5‰ split).
func (m grabMetrics) observe(r *Result) {
	m.done.Inc()
	if r.ReachedOPCUA {
		m.opcua.Inc()
	} else {
		m.noise.Inc()
	}
}

// grabOutcome is one finished grab plus the depth it ran at, so the
// dispatcher can decide whether its follow-ups are still in range.
type grabOutcome struct {
	res   *Result
	depth int
}

// runStreaming is the streaming scheduler: a fixed worker pool consumes
// a single queue, and the dispatcher feeds follow-up references back in
// as soon as the grab that discovered them completes. No depth barrier:
// a depth-2 target can run while depth-0 stragglers are still in flight.
func runStreaming(ctx context.Context, sc *Scanner, initial []Target, cfg WaveConfig) []*Result {
	queue := make(chan grabJob, 2*cfg.GrabWorkers)
	outcomes := make(chan grabOutcome, cfg.GrabWorkers)
	gm := newGrabMetrics(cfg.Metrics)

	var wg sync.WaitGroup
	for w := 0; w < cfg.GrabWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				gm.queueWait.ObserveSince(j.enqueuedNs)
				res := sc.Grab(ctx, j.target)
				res.FollowDepth = j.depth
				outcomes <- grabOutcome{res: res, depth: j.depth}
			}
		}()
	}

	seen := make(map[string]bool, len(initial))
	pending := make([]grabJob, 0, len(initial))
	for _, t := range initial {
		if seen[t.Address] {
			continue
		}
		seen[t.Address] = true
		pending = append(pending, grabJob{target: t, enqueuedNs: gm.queueWait.StartNs()})
	}
	if cfg.Delta != nil {
		// Carried-over references from skipped referrers enter behind
		// the port-scan seeds, mirroring the full scan's port-scan-first
		// enqueue order (and its dedup: a port-scanned address is never
		// re-grabbed via a reference).
		for _, in := range cfg.Delta.Inject {
			if seen[in.Addr] {
				continue
			}
			seen[in.Addr] = true
			pending = append(pending, grabJob{
				target:     Target{Address: in.Addr, Via: ViaReference},
				depth:      in.Depth,
				enqueuedNs: gm.queueWait.StartNs(),
			})
			gm.followups.Inc()
		}
	}
	gm.targets.Add(uint64(len(pending)))

	// The dispatcher selects on {enqueue next pending, receive outcome,
	// cancellation} simultaneously, so a full queue can never deadlock
	// against workers blocked on the outcome channel.
	var results []*Result
	inflight := 0
	done := ctx.Done()
	cancelled := false
	for inflight > 0 || len(pending) > 0 {
		var dispatch chan grabJob
		var next grabJob
		if len(pending) > 0 {
			dispatch = queue
			next = pending[0]
		}
		select {
		case dispatch <- next:
			pending = pending[1:]
			inflight++
			gm.queueDepth.Record(int64(len(pending) + inflight))
		case out := <-outcomes:
			inflight--
			results = append(results, out.res)
			gm.observe(out.res)
			// After cancellation, don't start new targets — only drain
			// what is in flight.
			if !cancelled && cfg.FollowReferences && out.depth < DefaultMaxFollowDepth {
				for _, addr := range out.res.FollowUp {
					if seen[addr] {
						continue
					}
					if cfg.Delta != nil && cfg.Delta.Skip(addr) {
						// Unchanged since the prior wave: the campaign
						// clones its prior record instead of grabbing.
						continue
					}
					seen[addr] = true
					pending = append(pending, grabJob{
						target:     Target{Address: addr, Via: ViaReference},
						depth:      out.depth + 1,
						enqueuedNs: gm.queueWait.StartNs(),
					})
					gm.targets.Inc()
					gm.followups.Inc()
				}
			}
		case <-done:
			// Stop dispatching; in-flight grabs observe ctx themselves
			// and finish quickly. Nil the channel so the loop drains
			// outcomes instead of spinning on Done.
			done = nil
			cancelled = true
			pending = nil
		}
	}
	close(queue)
	wg.Wait()
	return results
}

// sortResults orders a wave deterministically: port-scan discoveries
// first (mirroring the pre-streaming depth order), then by address —
// the shared SortShardItems order, which shard merges also apply.
func sortResults(results []*Result) {
	SortShardItems(results,
		func(r *Result) string { return r.Address },
		func(r *Result) bool { return r.Via == ViaPortScan })
}

// DatasetResults filters a wave down to the results that become dataset
// records: hosts that speak OPC UA plus — under the failure taxonomy —
// classified failures. Without Resilience.Classify no result carries a
// FailureClass, so this is exactly OPCUAResults and chaos-off datasets
// stay byte-identical to the pre-taxonomy baseline.
func (w *Wave) DatasetResults() []*Result {
	var out []*Result
	for _, r := range w.Results {
		if r.ReachedOPCUA || r.FailureClass != "" {
			out = append(out, r)
		}
	}
	return out
}
