package pipeline

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
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

// rawStream builds one shard's NDJSON stream from records and raw
// strings, the latter standing in for corruption.
func rawStream(t *testing.T, parts ...any) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, p := range parts {
		switch p := p.(type) {
		case *dataset.HostRecord:
			if err := dataset.Write(&buf, []*dataset.HostRecord{p}); err != nil {
				t.Fatal(err)
			}
		case string:
			buf.WriteString(p)
		default:
			t.Fatalf("rawStream: unsupported part %T", p)
		}
	}
	return buf.Bytes()
}

// cappedSink accepts limit records, then fails every Put.
type cappedSink struct {
	SliceSink
	limit int
}

var errSinkFull = errors.New("sink full")

func (s *cappedSink) Put(r *dataset.HostRecord) error {
	if len(s.Records) >= s.limit {
		return errSinkFull
	}
	return s.SliceSink.Put(r)
}

// TestMergeShardStreamsErrorGolden pins what a sink sees when a merge
// fails: the exact record prefix that reached it and the exact error
// text. The rows were recorded on the serial merge (one goroutine
// decoding every stream in turn); any merge must reproduce them, so the
// error of the lowest failing wave wins, within it the lowest shard
// index, and nothing of the failing wave reaches the sink.
func TestMergeShardStreamsErrorGolden(t *testing.T) {
	r := func(wave, host int) *dataset.HostRecord { return synthRecord(wave, host, "portscan", 0) }
	whole := rawStream(t, r(6, 4))
	torn := string(whole[:len(whole)-10])
	for _, tc := range []struct {
		name    string
		streams [][]byte
		limit   int      // sink capacity; 0 = unlimited
		want    []string // "w<wave> <address>" of every record the sink accepted
		wantErr string
	}{
		{
			name: "decode error mid-wave",
			streams: [][]byte{
				rawStream(t, r(5, 1), r(6, 1), "garbage\n", r(6, 3)),
				rawStream(t, r(5, 2), r(6, 2)),
			},
			want:    []string{"w5 100.64.0.2:4840", "w5 100.64.0.3:4840"},
			wantErr: "pipeline: shard 0: dataset: line 3: invalid character 'g' looking for beginning of value",
		},
		{
			name: "decode error on the first record of the next wave",
			streams: [][]byte{
				rawStream(t, r(5, 1), r(6, 1), "garbage\n"),
				rawStream(t, r(5, 2), r(6, 2), r(7, 2)),
			},
			want:    []string{"w5 100.64.0.2:4840", "w5 100.64.0.3:4840"},
			wantErr: "pipeline: shard 0: dataset: line 3: invalid character 'g' looking for beginning of value",
		},
		{
			name: "wave regression",
			streams: [][]byte{
				rawStream(t, r(5, 1), r(6, 1), r(7, 1)),
				rawStream(t, r(5, 2), r(6, 2), r(5, 4)),
			},
			want:    []string{"w5 100.64.0.2:4840", "w5 100.64.0.3:4840"},
			wantErr: "pipeline: shard 1 stream not wave-ordered (wave 5 after 6)",
		},
		{
			name: "torn tail",
			streams: [][]byte{
				rawStream(t, r(5, 1), r(6, 1)),
				rawStream(t, r(5, 2), r(6, 2), torn),
			},
			want:    []string{"w5 100.64.0.2:4840", "w5 100.64.0.3:4840"},
			wantErr: "pipeline: shard 1: dataset: line 3: dataset: stream truncated mid-record (unexpected end of JSON input)",
		},
		{
			name: "sink error mid-wave",
			streams: [][]byte{
				rawStream(t, r(5, 1), r(6, 1), r(6, 3)),
				rawStream(t, r(5, 2), r(6, 2)),
			},
			limit:   3,
			want:    []string{"w5 100.64.0.2:4840", "w5 100.64.0.3:4840", "w6 100.64.0.2:4840"},
			wantErr: "sink full",
		},
		{
			name: "bad first record of shard 2",
			streams: [][]byte{
				rawStream(t, r(5, 1), r(6, 1)),
				rawStream(t, r(5, 2)),
				rawStream(t, "garbage\n", r(5, 3)),
			},
			want:    nil,
			wantErr: "pipeline: shard 2: dataset: line 1: invalid character 'g' looking for beginning of value",
		},
		{
			name: "two shards failing in one wave",
			streams: [][]byte{
				rawStream(t, r(5, 1), r(6, 1)),
				rawStream(t, r(5, 2), r(6, 2), r(6, 4), "bad\n"),
				rawStream(t, r(5, 3), r(6, 3), "bad\n"),
			},
			want:    []string{"w5 100.64.0.2:4840", "w5 100.64.0.3:4840", "w5 100.64.0.4:4840"},
			wantErr: "pipeline: shard 1: dataset: line 4: invalid character 'b' looking for beginning of value",
		},
		{
			name: "lower shard failing in a later wave",
			streams: [][]byte{
				rawStream(t, r(5, 1), r(6, 1), r(7, 1), "bad\n"),
				rawStream(t, r(5, 2), r(6, 2), "bad\n"),
			},
			want:    []string{"w5 100.64.0.2:4840", "w5 100.64.0.3:4840"},
			wantErr: "pipeline: shard 1: dataset: line 3: invalid character 'b' looking for beginning of value",
		},
		{
			name: "shard without records in a wave failing after it",
			streams: [][]byte{
				rawStream(t, r(5, 1), r(6, 1), r(7, 1)),
				rawStream(t, r(5, 2), r(7, 2), "bad\n"),
			},
			want:    []string{"w5 100.64.0.2:4840", "w5 100.64.0.3:4840", "w6 100.64.0.2:4840"},
			wantErr: "pipeline: shard 1: dataset: line 3: invalid character 'b' looking for beginning of value",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			decoders := make([]*dataset.Decoder, len(tc.streams))
			for i, s := range tc.streams {
				decoders[i] = dataset.NewDecoder(bytes.NewReader(s))
			}
			sink := &cappedSink{limit: tc.limit}
			if tc.limit == 0 {
				sink.limit = 1 << 30
			}
			err := MergeShardStreams(sink, decoders...)
			var got []string
			for _, rec := range sink.Records {
				got = append(got, fmt.Sprintf("w%d %s", rec.Wave, rec.Address))
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("sink saw %q, want %q", got, tc.want)
			}
			if err == nil || err.Error() != tc.wantErr {
				t.Errorf("err = %v, want %q", err, tc.wantErr)
			}
		})
	}
}

// TestMergeShardStreamsReturnsCleanly fails the sink's first Put while
// four large streams are still decoding: the merge must return the sink
// error with every decoder goroutine gone.
func TestMergeShardStreamsReturnsCleanly(t *testing.T) {
	streams := make([][]byte, 4)
	for s := range streams {
		var recs []*dataset.HostRecord
		for wave := 0; wave < 8; wave++ {
			for h := s; h < 1000; h += len(streams) {
				recs = append(recs, synthRecord(wave, h, "portscan", 64))
			}
		}
		var buf bytes.Buffer
		if err := dataset.Write(&buf, recs); err != nil {
			t.Fatal(err)
		}
		streams[s] = buf.Bytes()
	}
	baseline := runtime.NumGoroutine()
	decoders := make([]*dataset.Decoder, len(streams))
	for i, s := range streams {
		decoders[i] = dataset.NewDecoder(bytes.NewReader(s))
	}
	if err := MergeShardStreams(&cappedSink{}, decoders...); !errors.Is(err, errSinkFull) {
		t.Fatalf("err = %v, want %v", err, errSinkFull)
	}
	if n := runtime.NumGoroutine(); n != baseline {
		t.Errorf("%d goroutines after the merge returned, want the %d before it", n, baseline)
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
