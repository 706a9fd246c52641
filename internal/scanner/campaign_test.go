package scanner

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/uaclient"
)

// resultKey is the order-independent identity of one grab.
type resultKey struct {
	Address      string
	Via          Via
	ReachedOPCUA bool
}

func resultSet(t *testing.T, w *Wave) map[resultKey]bool {
	t.Helper()
	set := make(map[resultKey]bool, len(w.Results))
	for _, r := range w.Results {
		k := resultKey{Address: r.Address, Via: r.Via, ReachedOPCUA: r.ReachedOPCUA}
		if set[k] {
			t.Errorf("duplicate grab of %v", k)
		}
		set[k] = true
	}
	return set
}

// TestRunWaveSchedulersAgree runs the streaming pipeline at several
// worker counts and requires the exact same result set (addresses,
// discovery channel, OPC UA flag) and, thanks to the deterministic
// sort, the same result order. Run under -race this also exercises the
// dispatcher/worker interplay.
func TestRunWaveSchedulersAgree(t *testing.T) {
	nw, _ := buildWorld(t)
	sc := newScanner(t, nw)
	cfg := WaveConfig{
		Date:             time.Date(2020, 5, 4, 0, 0, 0, 0, time.UTC),
		FollowReferences: true,
	}

	run := func(workers int) *Wave {
		t.Helper()
		c := cfg
		c.GrabWorkers = workers
		w, err := RunWave(context.Background(), nw, sc, c)
		if err != nil {
			t.Fatal(err)
		}
		if w.Partial {
			t.Error("uncancelled wave marked partial")
		}
		return w
	}

	ref := run(1)
	want := resultSet(t, ref)
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"streaming-2", 2},
		{"streaming-8", 8},
		{"streaming-64", 64},
	} {
		w := run(tc.workers)
		got := resultSet(t, w)
		if len(got) != len(want) {
			t.Fatalf("%s: %d results, want %d", tc.name, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Errorf("%s: missing %v", tc.name, k)
			}
		}
		for i, r := range w.Results {
			if r.Address != ref.Results[i].Address {
				t.Fatalf("%s: order diverges at %d: %s vs %s",
					tc.name, i, r.Address, ref.Results[i].Address)
			}
		}
	}
}

// cancelAfterDials cancels a context once a fixed number of dials have
// been observed, so cancellation deterministically lands mid-wave
// (after the port scan, before the grab frontier drains).
type cancelAfterDials struct {
	inner  uaclient.Dialer
	left   atomic.Int32
	cancel context.CancelFunc
}

func (d *cancelAfterDials) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	if d.left.Add(-1) == 0 {
		d.cancel()
	}
	return d.inner.DialContext(ctx, network, address)
}

// TestRunWaveCancellationReturnsPartialWave pins the documented error
// contract: a cancelled context yields the partial wave (grabs that
// completed), Wave.Partial set, and the context's error.
func TestRunWaveCancellationReturnsPartialWave(t *testing.T) {
	nw, _ := buildWorld(t)
	sc := newScanner(t, nw)
	cfg := WaveConfig{
		Date:             time.Date(2020, 5, 4, 0, 0, 0, 0, time.UTC),
		FollowReferences: true,
		GrabWorkers:      1,
	}

	full, err := RunWave(context.Background(), nw, sc, cfg)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wrapped := &cancelAfterDials{inner: nw, cancel: cancel}
	wrapped.left.Store(3)
	cancelled := *sc
	cancelled.Dialer = wrapped

	wave, err := RunWave(ctx, nw, &cancelled, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if wave == nil {
		t.Fatal("cancelled wave is nil; contract promises partial results")
	}
	if !wave.Partial {
		t.Error("cancelled wave not marked partial")
	}
	if len(wave.Results) >= len(full.Results) {
		t.Errorf("partial wave has %d results, full wave %d", len(wave.Results), len(full.Results))
	}
	// Everything that did complete must be a target the full run saw.
	want := resultSet(t, full)
	for _, r := range wave.Results {
		if !want[resultKey{Address: r.Address, Via: r.Via, ReachedOPCUA: r.ReachedOPCUA}] {
			// Grabs racing cancellation may fail where the full run
			// succeeded; only the address set must stay plausible.
			if !want[resultKey{Address: r.Address, Via: r.Via, ReachedOPCUA: true}] {
				t.Errorf("partial wave grabbed unknown target %s (%s)", r.Address, r.Via)
			}
		}
	}
}

// TestRunWaveQueueSmallerThanFrontier forces a queue buffer far smaller
// than the target frontier — one grab worker derives a queue of 2
// against a frontier of about 15 targets; the select-based dispatcher
// must not deadlock when the worker blocks on a full outcome channel.
func TestRunWaveQueueSmallerThanFrontier(t *testing.T) {
	nw, _ := buildWorld(t)
	sc := newScanner(t, nw)
	wave, err := RunWave(context.Background(), nw, sc, WaveConfig{
		Date:             time.Date(2020, 5, 4, 0, 0, 0, 0, time.UTC),
		FollowReferences: true,
		GrabWorkers:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(opcuaResults(wave)); n != 3 {
		t.Errorf("OPC UA hosts = %d, want 3", n)
	}
}
