package simnet

import (
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
	if p, off := u.Locate(256); u.Prefix(p).AddrAt(off).String() != "198.51.100.0" {
		t.Errorf("Locate(256) = %d, %d", p, off)
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
	// A /0 would truncate to an empty prefix.
	if _, err := NewPrefix("0.0.0.0", 0); err == nil {
		t.Error("/0 accepted")
	}
	// An unaligned base would span a range that is not its /bits: the
	// last address of 255.255.255.0 + 2^16 wraps to 0.0.254.255.
	for base, bits := range map[string]int{"255.255.255.0": 16, "10.0.0.7": 24} {
		if _, err := NewPrefix(base, bits); err == nil {
			t.Errorf("unaligned %s/%d accepted", base, bits)
		}
	}
}

// TestDialClosedPortRefused pins the error a dial to a closed port
// returns: a refusal with a message, immediate rather than a timeout.
func TestDialClosedPortRefused(t *testing.T) {
	var err error = ErrRefused{Addr: "192.0.2.10:4840"}
	if err.Error() == "" || err.(ErrRefused).Timeout() {
		t.Error("refusal should carry a message and not be a timeout")
	}
}

func TestNoiseHostsAnswerButAreNotOPCUA(t *testing.T) {
	client, server := net.Pipe()
	go ServeNoise(server)
	defer client.Close()
	if _, err := client.Write([]byte("HEL")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	_ = client.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := client.Read(buf)
	if err != nil || n == 0 {
		t.Fatalf("noise host read: %d, %v", n, err)
	}
	if string(buf[:4]) == "ACK\x00" {
		t.Error("noise host should not speak OPC UA")
	}
	// Noise only exists on port 4840.
	if NewNoise(1, 0).HitU32(AddrToU32(netip.MustParseAddr("192.0.2.200")), 4841) {
		t.Error("noise on non-default port")
	}
}

func TestNoiseDeterministicFraction(t *testing.T) {
	p := mustPrefix(t, "10.0.0.0", 16)
	count := func() (n int) {
		z := NewNoise(0.25, 0x9E3779B97F4A7C15)
		for off := uint32(0); off < p.Size; off++ {
			if z.HitU32(AddrToU32(p.AddrAt(off)), 4840) {
				n++
			}
		}
		return n
	}
	n := count()
	if frac := float64(n) / float64(p.Size); frac < 0.22 || frac > 0.28 {
		t.Errorf("noise fraction = %.3f, want ≈0.25", frac)
	}
	// Determinism: a second pass gives the identical count.
	if count() != n {
		t.Error("noise not deterministic")
	}
}

func TestASOfUnregisteredIsDeterministic(t *testing.T) {
	a := netip.MustParseAddr("203.0.113.7")
	if DefaultASN(a) != DefaultASN(a) {
		t.Error("ASN not deterministic")
	}
	if DefaultASN(a) < 64512 {
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
		if got, want := z.HitU32(AddrToU32(ip), 4840), ref(ip); got != want {
			t.Fatalf("HitU32(%s) = %v, want %v", ip, got, want)
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
// NewNoise resolves once and the one a Noise literal resolves per call
// decide every address alike.
func TestNoiseModelResolvedMatchesLiteral(t *testing.T) {
	for _, p := range []float64{0, 1e-5, 0.002, 0.37, 1} {
		resolved := NewNoise(p, 0x9E3779B97F4A7C15)
		literal := Noise{Prob: resolved.Prob, Seed: resolved.Seed}
		if p > 0 && resolved.limit == 0 {
			t.Fatalf("p=%v: NewNoise left the threshold unresolved", p)
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

// TestNoiseHitAllocFree gates the noise decision (once per universe
// address in Positions) and the position lookup (once per address a
// sweep reports) at zero heap allocations.
func TestNoiseHitAllocFree(t *testing.T) {
	z := Noise{Prob: 0.5, Seed: 1}
	ip := netip.AddrFrom4([4]byte{100, 64, 3, 9})
	if allocs := testing.AllocsPerRun(1000, func() {
		_ = z.HitU32(AddrToU32(ip), 4840)
	}); allocs != 0 {
		t.Errorf("HitU32 allocates %.1f objects per call, want 0", allocs)
	}
	u := NewUniverse(mustPrefix(t, "100.64.0.0", 12), Prefix{Base: ip, Size: 1})
	i := uint64(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		_, _ = u.Locate(i % u.Size())
		i += 4099
	}); allocs != 0 {
		t.Errorf("Locate allocates %.1f objects per call, want 0", allocs)
	}
}

// locateCases are the universe shapes Locate and Noise.Positions are
// checked over.
func locateCases(t *testing.T) []struct {
	name string
	u    *Universe
} {
	hundred := Prefix{Base: netip.MustParseAddr("10.1.0.0"), Size: 100}
	return []struct {
		name string
		u    *Universe
	}{
		{"uniform", NewUniverse(mustPrefix(t, "100.64.0.0", 16), mustPrefix(t, "100.65.0.0", 16),
			mustPrefix(t, "100.70.0.0", 16))},
		{"mixed /16 + /24", NewUniverse(mustPrefix(t, "10.0.0.0", 24), mustPrefix(t, "100.64.0.0", 16),
			mustPrefix(t, "10.0.9.0", 24))},
		{"non-power-of-two", NewUniverse(hundred, mustPrefix(t, "10.2.0.0", 28), hundred)},
		{"overlapping", NewUniverse(mustPrefix(t, "100.64.0.0", 16), mustPrefix(t, "100.64.128.0", 24))},
		{"empty prefix", NewUniverse(mustPrefix(t, "10.0.0.0", 24), Prefix{Base: hundred.Base},
			mustPrefix(t, "10.0.1.0", 24))},
		{"no common factor", NewUniverse(mustPrefix(t, "100.64.0.0", 12), Prefix{Base: hundred.Base, Size: 1},
			mustPrefix(t, "10.0.0.0", 24))},
	}
}

// TestUniverseLocate cross-checks Locate's binary search against a
// linear prefix walk at every prefix boundary.
func TestUniverseLocate(t *testing.T) {
	for _, c := range locateCases(t) {
		u := c.u
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
}

// TestNoisePositionsMatchHitU32 checks the noise list against HitU32 at
// every linear index of every Locate shape: the list holds exactly the
// indexes whose address noise answers at, ascending, once per index an
// overlapping address occupies.
func TestNoisePositionsMatchHitU32(t *testing.T) {
	for _, c := range locateCases(t) {
		for _, p := range []float64{0, 0.001, 0.3, 1} {
			z := Noise{Prob: p, Seed: 0x9E3779B97F4A7C15}
			var want []uint64
			for i := uint64(0); i < c.u.Size(); i++ {
				k, off := c.u.Locate(i)
				if z.HitU32(AddrToU32(c.u.Prefix(k).AddrAt(off)), ScanPort) {
					want = append(want, i)
				}
			}
			got := z.Positions(c.u)
			if len(got) != len(want) {
				t.Fatalf("%s p=%v: %d positions, HitU32 says %d", c.name, p, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("%s p=%v: position %d is %d, HitU32 says %d", c.name, p, k, got[k], want[k])
				}
			}
		}
	}
}
