package pipeline

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// encodeStream serializes records as one shard's NDJSON output.
func encodeStream(t *testing.T, recs ...*dataset.HostRecord) *dataset.Decoder {
	t.Helper()
	var buf bytes.Buffer
	if err := dataset.Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return dataset.NewDecoder(&buf)
}

// TestMergeShardStreams covers the deterministic record-level merge:
// wave alignment across streams, cross-shard dedup with port-scan
// preference, and the unsharded sort order.
func TestMergeShardStreams(t *testing.T) {
	// Shard 0: waves 6 and 7. In wave 6 it reaches host 5 via a
	// follow-up reference; shard 1 owns host 5's index and port-scans
	// it, so the merge must keep shard 1's record.
	ref5 := synthRecord(6, 5, "follow-reference", 0)
	s0 := encodeStream(t,
		synthRecord(6, 1, "portscan", 0),
		synthRecord(6, 3, "portscan", 0),
		ref5,
		synthRecord(7, 1, "portscan", 0),
	)
	scan5 := synthRecord(6, 5, "portscan", 0)
	s1 := encodeStream(t,
		scan5,
		synthRecord(6, 9, "follow-reference", 0),
		// Shard 1 has nothing in wave 7.
	)

	slice := &SliceSink{}
	if err := MergeShardStreams(slice, s0, s1); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range slice.Records {
		got = append(got, r.Via+" "+r.Address+" w"+string(rune('0'+r.Wave)))
	}
	want := []string{
		"portscan " + synthRecord(6, 1, "portscan", 0).Address + " w6",
		"portscan " + synthRecord(6, 3, "portscan", 0).Address + " w6",
		"portscan " + scan5.Address + " w6",
		"follow-reference " + synthRecord(6, 9, "", 0).Address + " w6",
		"portscan " + synthRecord(7, 1, "portscan", 0).Address + " w7",
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d records, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	// The duplicate must have resolved to the port-scan copy.
	for _, r := range slice.Records {
		if r.Address == scan5.Address && r.Wave == 6 && r.Via != "portscan" {
			t.Error("dedup kept the follow-reference copy over the port scan")
		}
	}
}

// TestMergeShardStreamsRejectsUnordered pins the corrupt-stream check.
func TestMergeShardStreamsRejectsUnordered(t *testing.T) {
	s := encodeStream(t,
		synthRecord(7, 1, "portscan", 0),
		synthRecord(6, 2, "portscan", 0),
	)
	if err := MergeShardStreams(&SliceSink{}, s); err == nil {
		t.Error("decreasing wave numbering accepted")
	}
}

// TestMergeShardStreamsSingle is the degenerate case: one shard's
// stream passes through with only the per-wave sort applied.
func TestMergeShardStreamsSingle(t *testing.T) {
	a, b := synthRecord(7, 2, "portscan", 0), synthRecord(7, 1, "portscan", 0)
	s := encodeStream(t, a, b) // out of address order within the wave
	slice := &SliceSink{}
	if err := MergeShardStreams(slice, s); err != nil {
		t.Fatal(err)
	}
	if len(slice.Records) != 2 || slice.Records[0].Address != b.Address {
		t.Errorf("single-stream merge order wrong: %+v", slice.Records)
	}
}

// TestMergeShardStreamsSurfacesTruncation pins the error chain the
// fabric coordinator relies on: a shard stream
// torn mid-record fails the merge with dataset.ErrTruncatedStream
// still detectable through the shard-index wrapping.
func TestMergeShardStreamsSurfacesTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := dataset.Write(&buf, []*dataset.HostRecord{
		synthRecord(6, 1, "portscan", 0),
		synthRecord(6, 2, "portscan", 0),
	}); err != nil {
		t.Fatal(err)
	}
	torn := dataset.NewDecoder(bytes.NewReader(buf.Bytes()[:buf.Len()-10]))
	whole := encodeStream(t, synthRecord(6, 3, "portscan", 0))

	err := MergeShardStreams(&SliceSink{}, whole, torn)
	if err == nil {
		t.Fatal("merge accepted a truncated shard stream")
	}
	if !errors.Is(err, dataset.ErrTruncatedStream) {
		t.Errorf("err = %v, want errors.Is(dataset.ErrTruncatedStream)", err)
	}
	if !strings.Contains(err.Error(), "shard 1") {
		t.Errorf("err = %v, want the failing shard index named", err)
	}
}
