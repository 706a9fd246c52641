package worldview

import (
	"context"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"repro/internal/simnet"
)

func testPrefixes(t *testing.T) []simnet.Prefix {
	t.Helper()
	var prefixes []simnet.Prefix
	for _, base := range []string{"192.0.2.0", "198.51.100.0", "203.0.113.0"} {
		p, err := simnet.NewPrefix(base, 24)
		if err != nil {
			t.Fatal(err)
		}
		prefixes = append(prefixes, p)
	}
	return prefixes
}

func testUniverse(t *testing.T) *simnet.Universe {
	t.Helper()
	return simnet.NewUniverse(testPrefixes(t)...)
}

// overlappingUniverse appends a /28 lying inside the first /24 (and
// holding the host at 192.0.2.10): those sixteen addresses are swept
// twice, and at their second position the Locate prefix (3) is not the
// shard PrefixIndex files them under (0).
func overlappingUniverse(t *testing.T) *simnet.Universe {
	t.Helper()
	inner, err := simnet.NewPrefix("192.0.2.0", 28)
	if err != nil {
		t.Fatal(err)
	}
	return simnet.NewUniverse(append(testPrefixes(t), inner)...)
}

// echoHandler answers one byte so dials are observable.
var echoHandler = simnet.HandlerFunc(func(conn net.Conn) {
	defer conn.Close()
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		_, _ = conn.Write(buf)
	}
})

// buildPair registers the same population on a mutable Network and a
// Snapshot so tests can require identical behaviour.
func buildPair(t *testing.T) (*simnet.Network, *Snapshot) {
	t.Helper()
	return buildPairOn(t, testUniverse(t))
}

func buildPairOn(t *testing.T, u *simnet.Universe) (*simnet.Network, *Snapshot) {
	t.Helper()
	nw := simnet.New(u)
	nw.SetNoise(0.25)

	b, err := NewBuilder(Config{Universe: u, Noise: nw.NoiseModel()})
	if err != nil {
		t.Fatal(err)
	}
	add := func(ip string, port, asn int) {
		a := netip.MustParseAddr(ip)
		nw.Register(a, port, asn, echoHandler)
		b.AddHost(a, port, asn, echoHandler)
	}
	add("192.0.2.10", 4840, 65010)
	add("198.51.100.20", 4841, 65020)
	add("203.0.113.30", 4840, 65030)
	add("10.9.9.9", 4840, 65099) // outside the universe (hidden host)
	excl := netip.MustParseAddr("192.0.2.66")
	nw.Register(excl, 4840, 65066, echoHandler)
	b.AddHost(excl, 4840, 65066, echoHandler)
	nw.Exclude(excl)
	b.Exclude(excl)
	return nw, b.Build()
}

// TestSnapshotMatchesNetworkOpenPort sweeps the full universe plus the
// out-of-universe host and requires OpenPort parity with the mutable
// network, including the deterministic noise model — and, on both views,
// parity of the sweep's by-position OpenPortAt with the by-address
// OpenPort at every position. The population covers what the indexed
// form could get wrong: an excluded IP with a host, a host on a non-scan
// port (occupied address, no host on 4840, noise may still answer), an
// out-of-universe host, and a universe whose prefixes overlap.
func TestSnapshotMatchesNetworkOpenPort(t *testing.T) {
	for name, u := range map[string]*simnet.Universe{
		"disjoint":    testUniverse(t),
		"overlapping": overlappingUniverse(t),
	} {
		nw, snap := buildPairOn(t, u)
		noise := 0
		for i := uint64(0); i < u.Size(); i++ {
			addr, err := u.AddrAt(i)
			if err != nil {
				t.Fatal(err)
			}
			prefix, off := u.Locate(i)
			for _, port := range []int{4840, 4841} {
				got, want := snap.OpenPort(addr, port), nw.OpenPort(addr, port)
				if got != want {
					t.Fatalf("%s: OpenPort(%s, %d) = %v, network says %v", name, addr, port, got, want)
				}
				if at := snap.OpenPortAt(prefix, off, port); at != want {
					t.Fatalf("%s: snapshot OpenPortAt(%d, %d, %d) = %v, OpenPort(%s) says %v", name, prefix, off, port, at, addr, want)
				}
				if at := nw.OpenPortAt(prefix, off, port); at != want {
					t.Fatalf("%s: network OpenPortAt(%d, %d, %d) = %v, OpenPort(%s) says %v", name, prefix, off, port, at, addr, want)
				}
				if got && port == 4840 {
					noise++
				}
			}
		}
		if noise < 30 {
			t.Errorf("%s: open 4840 ports = %d, noise model not applied", name, noise)
		}
		out := netip.MustParseAddr("10.9.9.9")
		if !snap.OpenPort(out, 4840) || snap.OpenPort(out, 4841) {
			t.Errorf("%s: out-of-universe host mishandled", name)
		}
		if snap.OpenPort(netip.MustParseAddr("192.0.2.66"), 4840) {
			t.Errorf("%s: excluded IP reported open", name)
		}
		if !snap.OpenPort(netip.MustParseAddr("192.0.2.10"), 4840) || !snap.OpenPort(netip.MustParseAddr("198.51.100.20"), 4841) {
			t.Errorf("%s: registered host reported closed", name)
		}
	}
}

func TestSnapshotASOf(t *testing.T) {
	nw, snap := buildPair(t)
	for _, ip := range []string{"192.0.2.10", "198.51.100.20", "10.9.9.9", "192.0.2.200", "8.8.8.8"} {
		a := netip.MustParseAddr(ip)
		if got, want := snap.ASOf(a), nw.ASOf(a); got != want {
			t.Errorf("ASOf(%s) = %d, network says %d", ip, got, want)
		}
	}
}

func TestSnapshotDialContext(t *testing.T) {
	_, snap := buildPair(t)
	ctx := context.Background()

	dial := func(addr string) (net.Conn, error) {
		t.Helper()
		return snap.DialContext(ctx, "tcp", addr)
	}
	// Registered host answers.
	conn, err := dial("198.51.100.20:4841")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{0x7}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err != nil || buf[0] != 0x7 {
		t.Fatalf("echo = %v %v", buf, err)
	}
	conn.Close()

	// Closed port refuses.
	if _, err := dial("192.0.2.50:4841"); err == nil {
		t.Error("closed port did not refuse")
	} else if _, ok := err.(simnet.ErrRefused); !ok {
		t.Errorf("closed port error = %T", err)
	}
	// Excluded IP refuses even though a host is registered.
	if _, err := dial("192.0.2.66:4840"); err == nil {
		t.Error("excluded IP did not refuse")
	}
	// Unsupported network.
	if _, err := snap.DialContext(ctx, "udp", "192.0.2.10:4840"); err == nil {
		t.Error("udp dial accepted")
	}
}

func TestSnapshotNoiseServesHTTP(t *testing.T) {
	u := testUniverse(t)
	b, err := NewBuilder(Config{Universe: u, Noise: simnet.Noise{Prob: 1.0}})
	if err != nil {
		t.Fatal(err)
	}
	snap := b.Build()
	conn, err := snap.DialContext(context.Background(), "tcp", "192.0.2.77:4840")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("HEL")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := conn.Read(buf)
	if err != nil || n == 0 {
		t.Fatalf("noise read = %d, %v", n, err)
	}
	if string(buf[:4]) != "HTTP" {
		t.Errorf("noise response = %q", buf[:n])
	}
}

func TestSnapshotLatency(t *testing.T) {
	u := testUniverse(t)
	b, err := NewBuilder(Config{Universe: u, Latency: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ip := netip.MustParseAddr("192.0.2.10")
	b.AddHost(ip, 4840, 65010, echoHandler)
	snap := b.Build()

	start := time.Now()
	conn, err := snap.DialContext(context.Background(), "tcp", "192.0.2.10:4840")
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("dial took %v, latency not applied", elapsed)
	}
	// A cancelled context aborts the latency wait.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := snap.DialContext(ctx, "tcp", "192.0.2.10:4840"); err == nil {
		t.Error("cancelled dial succeeded")
	}
}

// TestSnapshotSharding pins the shard layout: one shard per universe
// prefix plus the catch-all, and hosts of different prefixes are
// reachable (i.e. land in a shard at all).
func TestSnapshotSharding(t *testing.T) {
	_, snap := buildPair(t)
	if snap.NumShards() != 4 {
		t.Fatalf("shards = %d, want 3 prefixes + 1 catch-all", snap.NumShards())
	}
	if snap.NumHosts() != 5 {
		t.Errorf("hosts = %d, want 5", snap.NumHosts())
	}
	for _, addr := range []string{"192.0.2.10:4840", "198.51.100.20:4841", "203.0.113.30:4840", "10.9.9.9:4840"} {
		conn, err := snap.DialContext(context.Background(), "tcp", addr)
		if err != nil {
			t.Errorf("dial %s: %v", addr, err)
			continue
		}
		conn.Close()
	}
}

// TestSnapshotConcurrentReaders hammers one snapshot from many
// goroutines; under -race this proves reads are lock-free safe.
func TestSnapshotConcurrentReaders(t *testing.T) {
	_, snap := buildPair(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				snap.OpenPort(netip.MustParseAddr("192.0.2.10"), 4840)
				snap.ASOf(netip.MustParseAddr("203.0.113.30"))
				conn, err := snap.DialContext(context.Background(), "tcp", "192.0.2.10:4840")
				if err != nil {
					t.Errorf("dial: %v", err)
					return
				}
				conn.Close()
			}
		}()
	}
	wg.Wait()
}

func TestBuilderValidation(t *testing.T) {
	if _, err := NewBuilder(Config{}); err == nil {
		t.Error("nil universe accepted")
	}
	b, err := NewBuilder(Config{Universe: testUniverse(t)})
	if err != nil {
		t.Fatal(err)
	}
	b.Build()
	defer func() {
		if recover() == nil {
			t.Error("second Build did not panic")
		}
	}()
	b.Build()
}
