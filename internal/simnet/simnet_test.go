package simnet

import (
	"context"
	"hash/fnv"
	"math"
	"math/rand"
	"net"
	"net/netip"
	"testing"
	"time"
)

func mustPrefix(t *testing.T, base string, bits int) Prefix {
	t.Helper()
	p, err := NewPrefix(base, bits)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPrefixAndUniverse(t *testing.T) {
	p := mustPrefix(t, "192.0.2.0", 24)
	if p.Size != 256 {
		t.Errorf("size = %d", p.Size)
	}
	if !p.Contains(netip.MustParseAddr("192.0.2.255")) {
		t.Error("should contain .255")
	}
	if p.Contains(netip.MustParseAddr("192.0.3.0")) {
		t.Error("should not contain .3.0")
	}
	if got := p.AddrAt(7).String(); got != "192.0.2.7" {
		t.Errorf("AddrAt(7) = %s", got)
	}

	u := NewUniverse(p, mustPrefix(t, "198.51.100.0", 24))
	if u.Size() != 512 {
		t.Errorf("universe size = %d", u.Size())
	}
	a, err := u.AddrAt(256)
	if err != nil || a.String() != "198.51.100.0" {
		t.Errorf("AddrAt(256) = %v, %v", a, err)
	}
	if _, err := u.AddrAt(512); err == nil {
		t.Error("out-of-range index accepted")
	}
	if !u.Contains(netip.MustParseAddr("198.51.100.9")) {
		t.Error("universe should contain second prefix")
	}
}

func TestNewPrefixValidation(t *testing.T) {
	if _, err := NewPrefix("not-an-ip", 24); err == nil {
		t.Error("bad IP accepted")
	}
	if _, err := NewPrefix("2001:db8::1", 64); err == nil {
		t.Error("IPv6 accepted")
	}
	if _, err := NewPrefix("10.0.0.0", 40); err == nil {
		t.Error("bad prefix length accepted")
	}
}

func TestDialRegisteredHost(t *testing.T) {
	u := NewUniverse(mustPrefix(t, "192.0.2.0", 24))
	nw := New(u)
	ip := netip.MustParseAddr("192.0.2.10")
	nw.Register(ip, 4840, 65001, HandlerFunc(func(conn net.Conn) {
		defer conn.Close()
		_, _ = conn.Write([]byte("pong"))
	}))

	conn, err := nw.DialContext(context.Background(), "tcp", "192.0.2.10:4840")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 4)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "pong" {
		t.Errorf("read %q", buf)
	}
	if nw.ASOf(ip) != 65001 {
		t.Errorf("ASN = %d", nw.ASOf(ip))
	}
	if nw.NumHosts() != 1 || len(nw.Hosts()) != 1 {
		t.Error("host registry wrong")
	}
}

func TestDialClosedPortRefused(t *testing.T) {
	nw := New(NewUniverse(mustPrefix(t, "192.0.2.0", 24)))
	_, err := nw.DialContext(context.Background(), "tcp", "192.0.2.10:4840")
	if _, ok := err.(ErrRefused); !ok {
		t.Errorf("err = %v, want ErrRefused", err)
	}
	if err.Error() == "" || err.(ErrRefused).Timeout() {
		t.Error("refusal should carry a message and not be a timeout")
	}
}

func TestUnregisterAndExclude(t *testing.T) {
	nw := New(NewUniverse(mustPrefix(t, "192.0.2.0", 24)))
	ip := netip.MustParseAddr("192.0.2.10")
	nw.Register(ip, 4840, 1, HandlerFunc(func(c net.Conn) { c.Close() }))
	if !nw.OpenPort(ip, 4840) {
		t.Error("port should be open")
	}
	nw.Unregister(ip, 4840)
	if nw.OpenPort(ip, 4840) {
		t.Error("port should be closed after unregister")
	}

	nw.Register(ip, 4840, 1, HandlerFunc(func(c net.Conn) { c.Close() }))
	nw.Exclude(ip)
	if nw.OpenPort(ip, 4840) {
		t.Error("excluded IP should look closed")
	}
	if _, err := nw.DialContext(context.Background(), "tcp", "192.0.2.10:4840"); err == nil {
		t.Error("dialing excluded IP should fail")
	}
}

func TestNoiseHostsAnswerButAreNotOPCUA(t *testing.T) {
	nw := New(NewUniverse(mustPrefix(t, "192.0.2.0", 24)))
	nw.SetNoise(1.0) // every unregistered universe address answers
	conn, err := nw.DialContext(context.Background(), "tcp", "192.0.2.200:4840")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("HEL")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := conn.Read(buf)
	if err != nil || n == 0 {
		t.Fatalf("noise host read: %d, %v", n, err)
	}
	if string(buf[:4]) == "ACK\x00" {
		t.Error("noise host should not speak OPC UA")
	}
	// Noise only exists on port 4840 and inside the universe.
	if nw.OpenPort(netip.MustParseAddr("192.0.2.200"), 4841) {
		t.Error("noise on non-default port")
	}
	if nw.OpenPort(netip.MustParseAddr("10.9.9.9"), 4840) {
		t.Error("noise outside universe")
	}
}

func TestNoiseDeterministicFraction(t *testing.T) {
	nw := New(NewUniverse(mustPrefix(t, "10.0.0.0", 16)))
	nw.SetNoise(0.25)
	count := 0
	u := nw.Universe()
	for i := uint64(0); i < u.Size(); i++ {
		a, _ := u.AddrAt(i)
		if nw.OpenPort(a, 4840) {
			count++
		}
	}
	frac := float64(count) / float64(u.Size())
	if frac < 0.22 || frac > 0.28 {
		t.Errorf("noise fraction = %.3f, want ≈0.25", frac)
	}
	// Determinism: a second pass gives the identical count.
	count2 := 0
	for i := uint64(0); i < u.Size(); i++ {
		a, _ := u.AddrAt(i)
		if nw.OpenPort(a, 4840) {
			count2++
		}
	}
	if count != count2 {
		t.Error("noise not deterministic")
	}
}

func TestDialLatency(t *testing.T) {
	nw := New(NewUniverse(mustPrefix(t, "192.0.2.0", 30)))
	nw.SetLatency(50 * time.Millisecond)
	start := time.Now()
	_, err := nw.DialContext(context.Background(), "tcp", "192.0.2.1:4840")
	if _, ok := err.(ErrRefused); !ok {
		t.Fatalf("err = %v", err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Errorf("latency not applied: %v", elapsed)
	}
	// Context cancellation beats latency.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := nw.DialContext(ctx, "tcp", "192.0.2.1:4840"); err == nil {
		t.Error("cancelled dial should fail")
	}
}

func TestDialValidation(t *testing.T) {
	nw := New(NewUniverse(mustPrefix(t, "192.0.2.0", 24)))
	if _, err := nw.DialContext(context.Background(), "udp", "192.0.2.1:4840"); err == nil {
		t.Error("udp accepted")
	}
	if _, err := nw.DialContext(context.Background(), "tcp", "192.0.2.1"); err == nil {
		t.Error("missing port accepted")
	}
	if _, err := nw.DialContext(context.Background(), "tcp", "host:foo"); err == nil {
		t.Error("bad port accepted")
	}
	if _, err := nw.DialContext(context.Background(), "tcp", "nothost:4840"); err == nil {
		t.Error("bad IP accepted")
	}
}

func TestASOfUnregisteredIsDeterministic(t *testing.T) {
	nw := New(NewUniverse(mustPrefix(t, "192.0.2.0", 24)))
	a := netip.MustParseAddr("203.0.113.7")
	if nw.ASOf(a) != nw.ASOf(a) {
		t.Error("ASN not deterministic")
	}
	if nw.ASOf(a) < 64512 {
		t.Error("synthetic ASN out of private range")
	}
}

// TestNoiseMatchesFNVReference pins the inlined FNV-1a noise hash
// against the stdlib hash/fnv implementation: noise decisions must stay
// identical across the allocation-free rewrite because every wave's
// open-port population (and therefore every dataset byte) depends on
// them.
func TestNoiseMatchesFNVReference(t *testing.T) {
	z := Noise{Prob: 0.37, Seed: 0x9E3779B97F4A7C15}
	ref := func(ip netip.Addr) bool {
		h := fnv.New64a()
		b := ip.As4()
		h.Write(b[:])
		v := h.Sum64() ^ z.Seed
		return float64(v%1000000)/1000000.0 < z.Prob
	}
	for i := 0; i < 5000; i++ {
		ip := netip.AddrFrom4([4]byte{byte(i >> 8), byte(i), byte(i * 7), byte(i * 13)})
		if got, want := z.HitInUniverse(ip, 4840), ref(ip); got != want {
			t.Fatalf("HitInUniverse(%s) = %v, want %v", ip, got, want)
		}
	}
}

// TestNoiseLimitMatchesFloatPredicate pins the integer noise threshold
// against the float predicate it replaced, on every residue: for each
// probability the repository uses (and a seeded sample of others,
// including values on and next to a residue boundary) r < noiseLimit(p)
// must equal float64(r)/1e6 < p, or a wave's open-port set would change.
func TestNoiseLimitMatchesFloatPredicate(t *testing.T) {
	probs := []float64{0, 1e-5, 0.001, 0.002, 0.01, 0.37, 0.5, 1, 1.5, -1, math.NaN(),
		math.SmallestNonzeroFloat64, math.Nextafter(1, 0), math.Nextafter(1, 2)}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 24; i++ {
		p := rng.Float64()
		if i%3 == 0 {
			p *= 0.01 // the range noise probabilities live in
		}
		k := float64(rng.Intn(noiseResidues)) / noiseResidues
		probs = append(probs, p, k, math.Nextafter(k, 0), math.Nextafter(k, 1))
	}
	for _, p := range probs {
		limit := noiseLimit(p)
		for r := uint32(0); r < noiseResidues; r++ {
			if got, want := r < limit, float64(r)/1000000.0 < p; got != want {
				t.Fatalf("p=%v: residue %d: r < %d is %v, float predicate %v", p, r, limit, got, want)
			}
		}
	}
}

// TestNoiseModelResolvedMatchesLiteral checks that the threshold
// NoiseModel resolves once and the one a Noise literal resolves per call
// decide every address alike.
func TestNoiseModelResolvedMatchesLiteral(t *testing.T) {
	for _, p := range []float64{0, 1e-5, 0.002, 0.37, 1} {
		nw := New(NewUniverse(mustPrefix(t, "100.64.0.0", 16)))
		nw.SetNoise(p)
		resolved := nw.NoiseModel()
		literal := Noise{Prob: resolved.Prob, Seed: resolved.Seed}
		if p > 0 && resolved.limit == 0 {
			t.Fatalf("p=%v: NoiseModel left the threshold unresolved", p)
		}
		hits := 0
		for i := uint32(0); i < 200000; i++ {
			addr := i * 2654435761
			got, want := resolved.HitU32(addr, 4840), literal.HitU32(addr, 4840)
			if got != want {
				t.Fatalf("p=%v addr=%#x: resolved %v, literal %v", p, addr, got, want)
			}
			if got {
				hits++
			}
		}
		if (p == 0 && hits != 0) || (p == 1 && hits != 200000) {
			t.Errorf("p=%v: %d of 200000 addresses hit", p, hits)
		}
	}
}

// TestNoiseHitAllocFree gates the per-probe noise decision and position
// lookup at zero heap allocations (both run once per scanned address).
func TestNoiseHitAllocFree(t *testing.T) {
	z := Noise{Prob: 0.5, Seed: 1}
	ip := netip.AddrFrom4([4]byte{100, 64, 3, 9})
	if allocs := testing.AllocsPerRun(1000, func() {
		_ = z.HitInUniverse(ip, 4840)
	}); allocs != 0 {
		t.Errorf("HitInUniverse allocates %.1f objects per call, want 0", allocs)
	}
	for _, u := range []*Universe{
		NewUniverse(mustPrefix(t, "100.64.0.0", 16), mustPrefix(t, "100.65.0.0", 16)), // slot table
		NewUniverse(mustPrefix(t, "100.64.0.0", 12), Prefix{Base: ip, Size: 1}),       // binary search
	} {
		i := uint64(0)
		if allocs := testing.AllocsPerRun(1000, func() {
			_, _ = u.Locate(i % u.Size())
			i += 4099
		}); allocs != 0 {
			t.Errorf("Locate allocates %.1f objects per call (slot table: %v), want 0", allocs, u.slot != nil)
		}
	}
}

// TestUniverseLocate cross-checks Locate (and AddrAt, which is expressed
// through it) against a linear prefix walk at every prefix boundary, for
// both of its paths.
func TestUniverseLocate(t *testing.T) {
	hundred := Prefix{Base: netip.MustParseAddr("10.1.0.0"), Size: 100}
	cases := []struct {
		name     string
		u        *Universe
		shift    uint
		useTable bool
	}{
		{"uniform", NewUniverse(mustPrefix(t, "100.64.0.0", 16), mustPrefix(t, "100.65.0.0", 16),
			mustPrefix(t, "100.70.0.0", 16)), 16, true},
		{"mixed /16 + /24", NewUniverse(mustPrefix(t, "10.0.0.0", 24), mustPrefix(t, "100.64.0.0", 16),
			mustPrefix(t, "10.0.9.0", 24)), 8, true},
		{"non-power-of-two", NewUniverse(hundred, mustPrefix(t, "10.2.0.0", 28), hundred), 2, true},
		{"overlapping", NewUniverse(mustPrefix(t, "100.64.0.0", 16), mustPrefix(t, "100.64.128.0", 24)), 8, true},
		{"empty prefix", NewUniverse(mustPrefix(t, "10.0.0.0", 24), Prefix{Base: hundred.Base},
			mustPrefix(t, "10.0.1.0", 24)), 8, true},
		// 2^20 + 1 addresses with no common factor: 2^20 + 1 slots is
		// past maxLocateSlots, so Locate binary-searches.
		{"no common factor", NewUniverse(mustPrefix(t, "100.64.0.0", 12), Prefix{Base: hundred.Base, Size: 1},
			mustPrefix(t, "10.0.0.0", 24)), 0, false},
	}
	for _, c := range cases {
		u := c.u
		if u.shift != c.shift || (u.slot != nil) != c.useTable {
			t.Errorf("%s: shift %d, slot table %v; want %d, %v", c.name, u.shift, u.slot != nil, c.shift, c.useTable)
		}
		linear := func(i uint64) (int, uint32) {
			for k, p := range u.prefixes {
				if i < uint64(p.Size) {
					return k, uint32(i)
				}
				i -= uint64(p.Size)
			}
			t.Fatalf("%s: index %d outside universe", c.name, i)
			return 0, 0
		}
		check := func(i uint64) {
			wantP, wantOff := linear(i)
			if gotP, gotOff := u.Locate(i); gotP != wantP || gotOff != wantOff {
				t.Fatalf("%s: Locate(%d) = (%d, %d), want (%d, %d)", c.name, i, gotP, gotOff, wantP, wantOff)
			}
			if got, err := u.AddrAt(i); err != nil || got != u.prefixes[wantP].AddrAt(wantOff) {
				t.Fatalf("%s: AddrAt(%d) = %v, %v; want %s", c.name, i, got, err, u.prefixes[wantP].AddrAt(wantOff))
			}
		}
		for k := range u.prefixes {
			// The first and last index of every prefix and their neighbours.
			for _, i := range []uint64{u.cum[k] - 1, u.cum[k], u.cum[k] + 1, u.cum[k+1] - 2, u.cum[k+1] - 1} {
				if i < u.total {
					check(i)
				}
			}
		}
		for i := uint64(0); i < u.total; i += 997 {
			check(i)
		}
		if _, err := u.AddrAt(u.total); err == nil {
			t.Errorf("%s: AddrAt past the universe should error", c.name)
		}
	}
}

// TestUniversePrefixIndexBinarySearch cross-checks the binary-search
// PrefixIndex against a linear first-match walk, including boundary
// addresses and out-of-universe probes, for disjoint and overlapping
// prefix sets.
func TestUniversePrefixIndexBinarySearch(t *testing.T) {
	disjoint := NewUniverse(
		mustPrefix(t, "100.70.0.0", 16),
		mustPrefix(t, "100.64.0.0", 16),
		mustPrefix(t, "10.0.0.0", 24),
	)
	overlapping := NewUniverse(
		mustPrefix(t, "100.64.0.0", 16),
		mustPrefix(t, "100.64.128.0", 24), // inside the first prefix
	)
	linear := func(u *Universe, a netip.Addr) int {
		for i, p := range u.prefixes {
			if p.Contains(a) {
				return i
			}
		}
		return -1
	}
	probes := []string{
		"100.64.0.0", "100.64.255.255", "100.64.128.7", "100.65.0.0",
		"100.70.0.1", "100.70.255.255", "10.0.0.0", "10.0.0.255",
		"10.0.1.0", "9.255.255.255", "203.0.113.5", "0.0.0.0",
		"255.255.255.255",
	}
	for _, u := range []*Universe{disjoint, overlapping} {
		for _, s := range probes {
			a := netip.MustParseAddr(s)
			if got, want := u.PrefixIndex(a), linear(u, a); got != want {
				t.Errorf("PrefixIndex(%s) = %d, want %d", s, got, want)
			}
		}
	}
	if overlapping.byBase != nil {
		t.Error("overlapping universe should fall back to the linear walk")
	}
	if disjoint.byBase == nil {
		t.Error("disjoint universe should use the binary search")
	}
	// AddrAt must agree with the linear prefix walk order.
	for i := uint64(0); i < disjoint.Size(); i += 997 {
		var want netip.Addr
		rem := i
		for _, p := range disjoint.prefixes {
			if rem < uint64(p.Size) {
				want = p.AddrAt(uint32(rem))
				break
			}
			rem -= uint64(p.Size)
		}
		got, err := disjoint.AddrAt(i)
		if err != nil {
			t.Fatalf("AddrAt(%d): %v", i, err)
		}
		if got != want {
			t.Fatalf("AddrAt(%d) = %s, want %s", i, got, want)
		}
	}
	if _, err := disjoint.AddrAt(disjoint.Size()); err == nil {
		t.Error("AddrAt past the universe should error")
	}
}
