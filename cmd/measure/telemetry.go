package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/report"
	"repro/internal/scanner"
	"repro/internal/telemetry"
	"repro/internal/uaclient"
	"repro/internal/uarsa"
)

// metricsOptions carries the observability flags through the run modes.
type metricsOptions struct {
	Path      string        // NDJSON snapshot stream ("-" = stdout, "" = off)
	Interval  time.Duration // periodic snapshot cadence (0 = final only)
	TracePath string        // exchange-trace NDJSON dump ("" = off)
	DebugAddr string        // expvar/pprof listener ("" = off)
}

// metricsStreamer periodically snapshots a registry as NDJSON and
// writes the closing Final snapshot on Stop. Safe with a nil writer
// (all methods no-op).
type metricsStreamer struct {
	reg   *telemetry.Registry
	w     io.Writer
	c     io.Closer
	shard string

	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex // serializes snapshot writes (ticker vs Stop)
}

// newMetricsStreamer opens path ("-" = stdout) and, when interval > 0,
// starts the periodic snapshot goroutine. A "" path returns a no-op
// streamer.
func newMetricsStreamer(path string, interval time.Duration, reg *telemetry.Registry, shard string) (*metricsStreamer, error) {
	if path == "" {
		return &metricsStreamer{}, nil
	}
	s := &metricsStreamer{reg: reg, shard: shard, stop: make(chan struct{})}
	if path == "-" {
		s.w = os.Stdout
	} else {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		s.w = f
		s.c = f
	}
	if interval > 0 {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					s.write(false)
				case <-s.stop:
					return
				}
			}
		}()
	}
	return s, nil
}

func (s *metricsStreamer) write(final bool) {
	if s.w == nil {
		return
	}
	snap := s.reg.Snapshot()
	snap.Shard = s.shard
	snap.Final = final
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := telemetry.WriteSnapshot(s.w, snap); err != nil {
		fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
	}
}

// Stop halts the ticker, writes the Final snapshot, and closes the
// file. Call exactly once, after the campaign finishes.
func (s *metricsStreamer) Stop() error {
	if s.w == nil {
		return nil
	}
	close(s.stop)
	s.wg.Wait()
	s.write(true)
	if s.c != nil {
		return s.c.Close()
	}
	return nil
}

// writeSnapshots emits a fabric campaign's closing snapshots to the
// -metrics path ("" = nowhere, "-" = stdout) and returns their union
// for the summary table. Workers stream their own registries
// (measure -connect -metrics).
func writeSnapshots(path string, snaps ...*telemetry.Snapshot) (*telemetry.Snapshot, error) {
	if path != "" {
		w := io.Writer(os.Stdout)
		var c io.Closer
		if path != "-" {
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			w, c = f, f
		}
		for _, s := range snaps {
			if err := telemetry.WriteSnapshot(w, s); err != nil {
				if c != nil {
					c.Close()
				}
				return nil, err
			}
		}
		if c != nil {
			if err := c.Close(); err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "telemetry snapshots written to %s\n", path)
		}
	}
	return telemetry.MergeSnapshots("", snaps...)
}

// dumpTrace writes the tracer's retained exchanges as NDJSON.
func dumpTrace(path string, tr *telemetry.Tracer) error {
	if path == "" || tr == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteNDJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "exchange trace written to %s (%d exchanges retained of %d recorded)\n",
		path, len(tr.Exchanges()), tr.Total())
	return nil
}

// serveDebug starts the expvar/pprof listener when addr is set.
func serveDebug(addr string, reg *telemetry.Registry) error {
	if addr == "" {
		return nil
	}
	bound, err := telemetry.ServeDebug(addr, reg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "debug listener on http://%s/debug/vars (pprof under /debug/pprof/)\n", bound)
	return nil
}

// summaryTable condenses the closing snapshot into the one-screen
// campaign summary: discovery volume, grab outcomes, handshake
// outcomes, crypto-cache efficiency, and grab-queue depth.
func summaryTable(s *telemetry.Snapshot) *report.Table {
	count := func(name string) string {
		return strconv.FormatUint(s.CounterTotal(name), 10)
	}
	dur := func(ns uint64) string {
		return time.Duration(ns).Round(time.Microsecond).String()
	}
	t := &report.Table{
		Title:  "Campaign summary (closing telemetry snapshot)",
		Header: []string{"metric", "value"},
	}
	add := func(metric, value string) { t.Rows = append(t.Rows, []string{metric, value}) }
	// labeled sums the counters of one base name that carry label=value,
	// across every other scope (wave, shard).
	labeled := func(name, label, value string) uint64 {
		needle := label + `="` + value + `"`
		var total uint64
		for k, v := range s.Counters {
			if strings.HasPrefix(k, name+"{") && strings.Contains(k, needle) {
				total += v
			}
		}
		return total
	}

	add("hosts probed", count("scan_probes"))
	add("open ports", count("scan_open_ports"))
	add("grab targets", count("grab_targets"))
	add("grabs completed", count("grab_done"))
	add("OPC UA hosts", count("grab_opcua"))
	add("port noise (non-OPC UA)", count("grab_noise"))
	add("follow-up references", count("grab_followups"))
	add("dataset records", count("campaign_records"))

	// Delta rows appear only for -delta campaigns (the counters exist
	// solely when the wave differ planned skips).
	if s.CounterTotal("wave_delta_hits") > 0 || s.CounterTotal("wave_delta_fallbacks") > 0 {
		add("delta hits (records cloned, no channel opened)", count("wave_delta_hits"))
		add("delta misses (real grabs)", count("wave_delta_misses"))
		add("delta fallback waves (full scans)", count("wave_delta_fallbacks"))
	}

	// Chaos rows appear only when the failure taxonomy classified
	// anything (a -chaos campaign, or armor retries firing).
	if s.CounterTotal("grab_failures") > 0 || s.CounterTotal("grab_retries") > 0 {
		add("grab retries", count("grab_retries"))
		for _, class := range scanner.FailureClasses() {
			add("grab failures: "+class, strconv.FormatUint(labeled("grab_failures", "class", class), 10))
		}
	}

	add("handshakes attempted", count("handshake_attempts"))
	add("handshakes ok", count("handshake_ok"))
	add("handshakes failed", count("handshake_failed"))
	add("certificates rejected", count("handshake_cert_rejected"))
	if h := s.HistogramTotal("handshake_ns"); h != nil && h.Count > 0 {
		add("handshake latency (mean)", dur(uint64(h.MeanNs())))
	}

	// Connections attempted, by outcome: what the grab stage costs the
	// scanned hosts before any request (a host is dialed once or twice;
	// hello_failed is port noise and adversarial hosts).
	for _, result := range uaclient.DialResults() {
		if total := labeled("ua_dials", "result", result); total > 0 {
			add("dials: "+result, strconv.FormatUint(total, 10))
		}
	}

	// Service requests sent, per service: the exact message count behind
	// the grab stage (a walked host costs a handful of browse requests,
	// not one per node).
	for _, service := range uaclient.ServiceNames() {
		if total := labeled("ua_requests", "service", service); total > 0 {
			add("requests: "+service, strconv.FormatUint(total, 10))
		}
	}

	// World build by stage: what this process (merged: every worker) paid
	// before the first probe. Busy is summed over a stage's parallel jobs.
	var stages []string
	for k := range s.Counters {
		if stage, ok := strings.CutPrefix(k, `world_build_count{stage="`); ok {
			stages = append(stages, strings.TrimSuffix(stage, `"}`))
		}
	}
	sort.Strings(stages)
	for _, stage := range stages {
		add("world build: "+stage, fmt.Sprintf("%d in %s (busy %s)", labeled("world_build_count", "stage", stage),
			dur(labeled("world_build_wall_ns", "stage", stage)), dur(labeled("world_build_busy_ns", "stage", stage))))
	}

	var hits, misses uint64
	for _, op := range []string{"sign", "verify", "decrypt", "encrypt"} {
		hits += s.CounterTotal("crypto_" + op + "_hits")
		misses += s.CounterTotal("crypto_" + op + "_misses")
	}
	if hits+misses > 0 {
		rate := uarsa.OpStats{Hits: hits, Misses: misses}.HitRate()
		add("RSA cache hit rate", fmt.Sprintf("%.1f%% (%d/%d)", 100*rate, hits, hits+misses))
	} else {
		add("RSA cache hit rate", "n/a (cache disabled or idle)")
	}

	add("grab queue high-water", strconv.FormatInt(s.MaxTotal("grab_queue_depth"), 10))

	// Fabric rows appear only for networked campaigns (the counters
	// exist solely in the coordinator's snapshot).
	if s.CounterTotal("fabric_workers_joined") > 0 {
		add("fabric workers joined / dead", fmt.Sprintf("%s / %s",
			count("fabric_workers_joined"), count("fabric_workers_dead")))
		add("fabric leases granted", count("fabric_leases_granted"))
		add("fabric leases re-queued", count("fabric_leases_requeued"))
		add("fabric duplicate streams discarded", count("fabric_duplicates_discarded"))
		add("fabric records received", count("fabric_records_received"))
		add("fabric max heartbeat gap", dur(uint64(s.MaxTotal("fabric_heartbeat_gap_ns"))))
	}
	return t
}
