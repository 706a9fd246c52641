package pipeline

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/dataset"
	"repro/internal/scanner"
)

// MergeShardStreams merges N wave-ordered shard record streams (what
// RunCampaignShard emits per shard, decoded) into the deterministic
// record order of an unsharded run and forwards every surviving record
// to sink. It is the record-level twin of scanner.MergeWaveShards, for
// coordinators that only have the workers' serialized outputs:
//
//   - Streams advance wave-aligned: all shards' wave-w records merge
//     before any shard's wave w+1 record reaches the sink, so the output
//     is wave-ordered (what the Analyzer requires).
//   - Within a wave, duplicates — one shard grabbed by port scan what
//     another reached via a follow-up reference — dedup by address,
//     port-scan record first, then lowest shard index.
//   - Survivors are sorted port-scan-first-then-address, the same order
//     scanner.sortResults gives an unsharded wave.
//
// Each stream decodes on its own goroutine, a wave run ahead of the
// merge, so decoding runs in parallel across shards and overlaps the
// merge and whatever the sink does. In memory at once: the wave being
// merged plus, per shard, at most one decoded run waiting in its one-slot
// channel and the next one being decoded.
//
// Errors are those of decoding the streams in turn on one goroutine:
// the error that ends a shard's run travels with the run, so the merge
// fails in the lowest failing wave, at the lowest failing shard index,
// before any record of that wave reaches the sink. Every decoder
// goroutine has stopped when the merge returns.
//
// The sink stays open: the caller owns it and closes it after merging
// (it may have more streams to feed). A stream whose wave numbering
// decreases is corrupt and aborts the merge.
func MergeShardStreams(sink RecordSink, shards ...*dataset.Decoder) error {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	runs := make([]chan waveRun, len(shards))
	for i, dec := range shards {
		runs[i] = make(chan waveRun, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			decodeRuns(i, dec, runs[i], stop)
		}()
	}

	// heads[i] is shard i's next unmerged run, nil once its stream ended.
	// A merged run's successor is received only when the next wave is
	// chosen, so the decoder works on it while the sink takes this wave.
	heads := make([]*waveRun, len(shards))
	next := func(i int) {
		heads[i] = nil
		if run, ok := <-runs[i]; ok {
			heads[i] = &run
		}
	}
	for i := range shards {
		next(i)
		if h := heads[i]; h != nil && len(h.recs) == 0 {
			return h.err // the stream's first record failed
		}
	}
	var batches [][]*dataset.HostRecord // the last merged wave's runs, by shard
	for {
		for i, b := range batches {
			if b != nil {
				next(i)
			}
		}
		wave, any := 0, false
		for _, h := range heads {
			if h != nil && (!any || h.wave < wave) {
				wave, any = h.wave, true
			}
		}
		if !any {
			return nil
		}

		// Take every shard's run of wave-w records, then apply the
		// shard-merge rules through the same scanner helper the
		// in-process Result merge uses — one implementation of the
		// dedup and ordering that byte-identity depends on.
		batches = make([][]*dataset.HostRecord, len(shards))
		for i, h := range heads {
			if h == nil || h.wave != wave {
				continue
			}
			if h.err != nil {
				return h.err
			}
			batches[i] = h.recs
		}
		recs := scanner.MergeShardItems(batches,
			func(r *dataset.HostRecord) string { return r.Address },
			func(r *dataset.HostRecord) bool { return r.Via == string(scanner.ViaPortScan) })
		for _, rec := range recs {
			if err := sink.Put(rec); err != nil {
				return err
			}
		}
	}
}

// waveRun is a shard stream's consecutive records of one wave, with the
// error that ended the run: nil at a wave change or the stream's end.
// A stream whose first record fails yields one run without records.
type waveRun struct {
	wave int
	recs []*dataset.HostRecord
	err  error
}

// decodeRuns decodes shard i's stream into runs on out, which it closes
// when it returns: after the stream's end, after a run that carries an
// error, or once stop is closed.
func decodeRuns(i int, dec *dataset.Decoder, out chan<- waveRun, stop <-chan struct{}) {
	defer close(out)
	var run waveRun
	send := func() bool {
		select {
		case out <- run:
			return true
		case <-stop:
			return false
		}
	}
	for {
		select {
		case <-stop:
			return
		default:
		}
		rec, err := dec.Decode()
		if err == io.EOF {
			if len(run.recs) > 0 {
				send()
			}
			return
		}
		if err != nil {
			run.err = fmt.Errorf("pipeline: shard %d: %w", i, err)
			send()
			return
		}
		if len(run.recs) > 0 && rec.Wave != run.wave {
			if rec.Wave < run.wave {
				run.err = fmt.Errorf("pipeline: shard %d stream not wave-ordered (wave %d after %d)",
					i, rec.Wave, run.wave)
				send()
				return
			}
			if !send() {
				return
			}
			run = waveRun{}
		}
		run.wave = rec.Wave
		run.recs = append(run.recs, rec)
	}
}
