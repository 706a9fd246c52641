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
type echoHandler struct{}

func (echoHandler) HandleConn(conn net.Conn) {
	defer conn.Close()
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		_, _ = conn.Write(buf)
	}
}

// population is what buildSnapshot registers: endpoint → ASN. The last
// host lies outside the universe (a hidden host).
var population = map[netip.AddrPort]int{
	netip.MustParseAddrPort("192.0.2.10:4840"):    65010,
	netip.MustParseAddrPort("198.51.100.20:4841"): 65020,
	netip.MustParseAddrPort("203.0.113.30:4840"):  65030,
	netip.MustParseAddrPort("10.9.9.9:4840"):      65099,
}

var testNoise = simnet.NewNoise(0.25, 0x9E3779B97F4A7C15)

func buildSnapshot(t *testing.T, u *simnet.Universe) *Snapshot {
	t.Helper()
	b, err := NewBuilder(Config{Universe: u, Noise: testNoise})
	if err != nil {
		t.Fatal(err)
	}
	for ap, asn := range population {
		b.AddHost(ap.Addr(), int(ap.Port()), asn, echoHandler{})
	}
	return b.Build()
}

// openOracle is whether a connect to the endpoint succeeds, computed the
// plain way: a registered endpoint answers, and otherwise a universe
// address answers when the noise model says so.
func openOracle(u *simnet.Universe, ip netip.Addr, port int) bool {
	if _, ok := population[netip.AddrPortFrom(ip, uint16(port))]; ok {
		return true
	}
	return u.Contains(ip) && testNoise.HitU32(simnet.AddrToU32(ip), port)
}

// TestSnapshotMatchesNetworkOpenPort sweeps the full universe plus the
// out-of-universe host and requires OpenPort to match openOracle,
// including the deterministic noise model — and the sweep's by-position
// OpenPortAt to match the by-address OpenPort at every position. The
// population covers what the indexed form could get wrong: a host on a
// non-scan port (occupied address, no host on 4840, noise may still
// answer), an out-of-universe host, and a universe whose prefixes
// overlap.
func TestSnapshotMatchesNetworkOpenPort(t *testing.T) {
	for name, u := range map[string]*simnet.Universe{
		"disjoint":    testUniverse(t),
		"overlapping": overlappingUniverse(t),
	} {
		snap := buildSnapshot(t, u)
		noise := 0
		for i := uint64(0); i < u.Size(); i++ {
			prefix, off := u.Locate(i)
			addr := u.Prefix(prefix).AddrAt(off)
			for _, port := range []int{4840, 4841} {
				got, want := snap.OpenPort(addr, port), openOracle(u, addr, port)
				if got != want {
					t.Fatalf("%s: OpenPort(%s, %d) = %v, oracle says %v", name, addr, port, got, want)
				}
				if at := snap.OpenPortAt(prefix, off, port); at != want {
					t.Fatalf("%s: OpenPortAt(%d, %d, %d) = %v, OpenPort(%s) says %v", name, prefix, off, port, at, addr, want)
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
		if !snap.OpenPort(netip.MustParseAddr("192.0.2.10"), 4840) || !snap.OpenPort(netip.MustParseAddr("198.51.100.20"), 4841) {
			t.Errorf("%s: registered host reported closed", name)
		}
	}
}

func TestSnapshotASOf(t *testing.T) {
	snap := buildSnapshot(t, testUniverse(t))
	for ap, asn := range population {
		if got := snap.ASOf(ap.Addr()); got != asn {
			t.Errorf("ASOf(%s) = %d, want %d", ap.Addr(), got, asn)
		}
	}
	for _, a := range []netip.Addr{netip.MustParseAddr("192.0.2.200"), netip.MustParseAddr("8.8.8.8")} {
		if got := snap.ASOf(a); got != simnet.DefaultASN(a) {
			t.Errorf("ASOf(%s) = %d, want the fallback %d", a, got, simnet.DefaultASN(a))
		}
	}
}

func TestSnapshotDialContext(t *testing.T) {
	snap := buildSnapshot(t, testUniverse(t))
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
	// Unsupported network, malformed addresses.
	if _, err := snap.DialContext(ctx, "udp", "192.0.2.10:4840"); err == nil {
		t.Error("udp dial accepted")
	}
	for _, addr := range []string{"192.0.2.10", "192.0.2.10:foo", "nothost:4840"} {
		if _, err := dial(addr); err == nil {
			t.Errorf("dial %q accepted", addr)
		}
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
	b.AddHost(ip, 4840, 65010, echoHandler{})
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
	snap := buildSnapshot(t, testUniverse(t))
	if len(snap.shards) != 4 {
		t.Fatalf("shards = %d, want 3 prefixes + 1 catch-all", len(snap.shards))
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
	snap := buildSnapshot(t, testUniverse(t))
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
