package pipeline

import (
	"fmt"
	"io"

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
//     before any shard's wave w+1 is read, so the output is
//     wave-ordered (what the Analyzer requires) while only one wave of
//     records is in memory at a time.
//   - Within a wave, duplicates — one shard grabbed by port scan what
//     another reached via a follow-up reference — dedup by address,
//     port-scan record first, then lowest shard index.
//   - Survivors are sorted port-scan-first-then-address, the same order
//     scanner.sortResults gives an unsharded wave.
//
// The sink stays open: the caller owns it and closes it after merging
// (it may have more streams to feed). A stream whose wave numbering
// decreases is corrupt and aborts the merge.
func MergeShardStreams(sink RecordSink, shards ...*dataset.Decoder) error {
	heads := make([]*dataset.HostRecord, len(shards))
	advance := func(i int) error {
		rec, err := shards[i].Decode()
		if err == io.EOF {
			heads[i] = nil
			return nil
		}
		if err != nil {
			return fmt.Errorf("pipeline: shard %d: %w", i, err)
		}
		if heads[i] != nil && rec.Wave < heads[i].Wave {
			return fmt.Errorf("pipeline: shard %d stream not wave-ordered (wave %d after %d)",
				i, rec.Wave, heads[i].Wave)
		}
		heads[i] = rec
		return nil
	}
	for i := range shards {
		if err := advance(i); err != nil {
			return err
		}
	}

	for {
		wave, any := 0, false
		for _, h := range heads {
			if h != nil && (!any || h.Wave < wave) {
				wave, any = h.Wave, true
			}
		}
		if !any {
			return nil
		}

		// Drain every shard's run of wave-w records, then apply the
		// shard-merge rules through the same scanner helper the
		// in-process Result merge uses — one implementation of the
		// dedup and ordering that byte-identity depends on.
		batches := make([][]*dataset.HostRecord, 0, len(shards))
		for i := range shards {
			var batch []*dataset.HostRecord
			for heads[i] != nil && heads[i].Wave == wave {
				batch = append(batch, heads[i])
				if err := advance(i); err != nil {
					return err
				}
			}
			batches = append(batches, batch)
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
