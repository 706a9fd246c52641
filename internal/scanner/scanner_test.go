package scanner

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"encoding/binary"
	"hash/fnv"
	mrand "math/rand"
	"net/netip"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/addrspace"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/uacert"
	"repro/internal/uaclient"
	"repro/internal/uamsg"
	"repro/internal/uapolicy"
	"repro/internal/uaserver"
	"repro/internal/worldview"
)

func TestPermutationIsBijective(t *testing.T) {
	for _, n := range []uint64{1, 2, 7, 100, 1000, 4096} {
		p := NewPermutation(n, 12345)
		seen := make(map[uint64]bool, n)
		for i := uint64(0); i < n; i++ {
			v := p.at(i)
			if v >= n {
				t.Fatalf("n=%d: at(%d) = %d out of range", n, i, v)
			}
			if seen[v] {
				t.Fatalf("n=%d: duplicate value %d", n, v)
			}
			seen[v] = true
		}
	}
}

func TestPermutationQuickBijection(t *testing.T) {
	f := func(seed uint64, small uint16) bool {
		n := uint64(small%2000) + 1
		p := NewPermutation(n, seed)
		seen := make(map[uint64]bool, n)
		for i := uint64(0); i < n; i++ {
			v := p.at(i)
			if v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPermutationRoundMatchesFNV pins the inlined FNV-1a round function
// against the stdlib hash/fnv implementation over the exact byte layout
// the pre-inline code hashed: 8 LE bytes of half, 8 LE bytes of the
// seed, then the round byte. Permutations must be stable across the
// allocation-free rewrite so scan orders stay reproducible.
func TestPermutationRoundMatchesFNV(t *testing.T) {
	ref := func(p *Permutation, half uint64, round uint) uint64 {
		var buf [17]byte
		binary.LittleEndian.PutUint64(buf[0:], half)
		binary.LittleEndian.PutUint64(buf[8:], p.seed)
		buf[16] = byte(round)
		h := fnv.New64a()
		h.Write(buf[:])
		return h.Sum64() & p.halfMask
	}
	rng := mrand.New(mrand.NewSource(42))
	// Eight permutations, 25 samples each: every construction of up to
	// 2^32 entries builds its round tables (~4 ms), and the pin is on
	// round, not on the constructor.
	for k := 0; k < 8; k++ {
		p := NewPermutation(rng.Uint64()%(1<<32)+1, rng.Uint64())
		for trial := 0; trial < 25; trial++ {
			half := rng.Uint64()
			round := uint(rng.Intn(4))
			if got, want := p.round(half, round), ref(p, half, round); got != want {
				t.Fatalf("round(%#x, %d) = %#x, want %#x", half, round, got, want)
			}
		}
	}
}

// TestPermutationTablesMatchRound fails if the tabulated Feistel pass
// drifts from the round function it was generated from: every table
// entry at several widths, and at (cycle-walking included) against a
// pass computed from round alone.
func TestPermutationTablesMatchRound(t *testing.T) {
	refAt := func(p *Permutation, x uint64) uint64 {
		for {
			l, r := x>>p.halfBits, x&p.halfMask
			for round := uint(0); round < 4; round++ {
				l, r = r, l^p.round(r, round)
			}
			if x = l<<p.halfBits | r; x < p.n {
				return x
			}
		}
	}
	// 5 and 300 round an odd bit-width up; 2621440 is the study universe
	// (62.5 % of its covering domain, so ~0.6 cycle-walks per index);
	// 1<<40 is too wide to tabulate and must take the round path.
	for _, n := range []uint64{1, 2, 3, 5, 300, 2621440, 1 << 32, 1 << 40} {
		p := NewPermutation(n, 2020)
		if wide := p.halfBits > maxTableHalfBits; wide != (p.tab[0] == nil) {
			t.Fatalf("n=%d: halfBits %d, tables present = %v", n, p.halfBits, p.tab[0] != nil)
		}
		for round, tab := range p.tab {
			if tab != nil && uint64(len(tab)) != p.halfMask+1 {
				t.Fatalf("n=%d: round %d table has %d entries, want %d", n, round, len(tab), p.halfMask+1)
			}
			for half, got := range tab {
				if want := p.round(uint64(half), uint(round)); uint64(got) != want {
					t.Fatalf("n=%d: tab[%d][%#x] = %#x, round says %#x", n, round, half, got, want)
				}
			}
		}
		step := n/5000 + 1
		for i := uint64(0); i < n; i += step {
			if got, want := p.at(i), refAt(p, i); got != want {
				t.Fatalf("n=%d: at(%d) = %d, round-only pass says %d", n, i, got, want)
			}
		}
		if got, want := p.at(n-1), refAt(p, n-1); got != want {
			t.Fatalf("n=%d: at(%d) = %d, round-only pass says %d", n, n-1, got, want)
		}
	}
}

// TestPermutationGolden pins the first 32 steps of two permutations of
// the study universe (40 x /16 = 2,621,440 addresses) to the values the
// pre-table implementation produced: sweepSeed's row is the scan order
// every campaign sweeps in; the seed-2020 row pins the round tables at a
// second seed.
func TestPermutationGolden(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		want []uint64
	}{
		{sweepSeed, []uint64{
			28039, 1199151, 386811, 2165540, 2427761, 268535, 1565615, 1635010,
			932243, 666661, 1491165, 2604091, 1548764, 688516, 481684, 699634,
			1740666, 1771963, 1937486, 1234914, 146147, 2191286, 2095792, 789093,
			33613, 1856993, 665758, 1735813, 1125342, 1770499, 2016178, 2007064,
		}},
		{2020, []uint64{
			710424, 1696437, 357270, 2552834, 2042425, 2517868, 1612158, 2220683,
			1601004, 1529527, 2481496, 1378312, 34227, 1175250, 1196373, 528575,
			2411137, 520715, 1812179, 365686, 1562636, 1154354, 860369, 1748042,
			1687465, 2052365, 1522400, 86693, 1455455, 2294214, 856314, 624507,
		}},
	} {
		p := NewPermutation(2621440, c.seed)
		for i, w := range c.want {
			if got := p.at(uint64(i)); got != w {
				t.Errorf("seed %d: at(%d) = %d, want %d", c.seed, i, got, w)
			}
		}
	}
}

// benchSnapshot is what a campaign sweeps: an immutable snapshot of one
// /16 with noise and one registered host per 1,024 addresses (the study
// world has 1,921 in 2.6 M), alternating between the scan port and a
// port only references reach, so the responsive index holds both hosts
// and noise.
func benchSnapshot(tb testing.TB) *worldview.Snapshot {
	tb.Helper()
	prefix, err := simnet.NewPrefix("10.0.0.0", 16)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := worldview.NewBuilder(worldview.Config{
		Universe: simnet.NewUniverse(prefix),
		Noise:    simnet.Noise{Prob: 0.001, Seed: 0x9E3779B97F4A7C15},
	})
	if err != nil {
		tb.Fatal(err)
	}
	for off := uint32(7); off < prefix.Size; off += 1024 {
		b.AddHost(prefix.AddrAt(off), 4840+int(off>>10&1), 64512, nil)
	}
	return b.Build()
}

// TestPermutationAtAllocFree gates the zero-allocation path each
// responsive address takes through a sweep: Permutation.Index, then
// Universe.Locate and Prefix.AddrAt from its linear index to its
// address. None may touch the heap; neither may at, the order Index
// inverts.
func TestPermutationAtAllocFree(t *testing.T) {
	p := NewPermutation(1<<24, 7)
	i := uint64(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		_ = p.at(i % (1 << 24))
		i++
	}); allocs != 0 {
		t.Errorf("Permutation.at allocates %.1f objects per call, want 0", allocs)
	}
	snap := benchSnapshot(t)
	u := snap.Universe()
	sweep := NewPermutation(u.Size(), sweepSeed)
	open := snap.Responsive()
	next := 0
	var sum uint64
	if allocs := testing.AllocsPerRun(5000, func() {
		pos := open[next%len(open)]
		sum += sweep.Index(pos)
		prefix, off := u.Locate(pos)
		sum += uint64(simnet.AddrToU32(u.Prefix(prefix).AddrAt(off)))
		next++
	}); allocs != 0 {
		t.Errorf("one responsive address allocates %.1f objects, want 0", allocs)
	}
	if sum == 0 {
		t.Error("no responsive address was mapped")
	}
}

func TestPermutationSpreadsProbes(t *testing.T) {
	// zmap's point: consecutive indexes should not map to consecutive
	// addresses. Check that the first 100 outputs are not sorted runs.
	p := NewPermutation(1<<16, 99)
	ascending := 0
	prev := p.at(0)
	for i := uint64(1); i < 100; i++ {
		v := p.at(i)
		if v == prev+1 {
			ascending++
		}
		prev = v
	}
	if ascending > 5 {
		t.Errorf("%d consecutive outputs, permutation too sequential", ascending)
	}
	if p := NewPermutation(0, 1); p.at(0) != 0 || p.Index(0) != 0 || p.n != 0 {
		t.Error("empty permutation mishandled")
	}
}

var (
	scanIDOnce sync.Once
	scanKey    *rsa.PrivateKey
	scanCert   *uacert.Certificate
)

func scannerIdentity(t testing.TB) (*rsa.PrivateKey, *uacert.Certificate) {
	t.Helper()
	scanIDOnce.Do(func() {
		var err error
		if scanKey, err = rsa.GenerateKey(rand.Reader, 512); err != nil {
			t.Fatal(err)
		}
		if scanCert, err = uacert.Generate(scanKey, uacert.Options{
			CommonName:     "research scanner",
			ApplicationURI: "urn:repro:scanner",
		}); err != nil {
			t.Fatal(err)
		}
	})
	return scanKey, scanCert
}

// newWorld starts a snapshot of 192.0.2.0/bits whose unregistered
// addresses answer port 4840 with the given noise probability.
func newWorld(t *testing.T, bits int, noise float64) *worldview.Builder {
	t.Helper()
	prefix, err := simnet.NewPrefix("192.0.2.0", bits)
	if err != nil {
		t.Fatal(err)
	}
	b, err := worldview.NewBuilder(worldview.Config{
		Universe: simnet.NewUniverse(prefix),
		Noise:    simnet.NewNoise(noise, 0x9E3779B97F4A7C15),
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// buildWorld assembles a miniature Internet: two OPC UA servers (one
// with anonymous access, one discovery) plus noise.
func buildWorld(t *testing.T) (*worldview.Snapshot, map[string]string) {
	t.Helper()
	nw := newWorld(t, 24, 0.05)

	key, err := rsa.GenerateKey(rand.Reader, 512)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := uacert.Generate(key, uacert.Options{
		CommonName: "plc", ApplicationURI: "urn:vendor:plc:1",
	})
	if err != nil {
		t.Fatal(err)
	}

	space := addrspace.New("urn:vendor:plc:1", "1.4.2")
	if _, err := addrspace.Populate(space, addrspace.BuildOptions{
		Profile:          addrspace.ProfileProduction,
		Variables:        10,
		Methods:          3,
		AnonReadableFrac: 1.0, AnonWritableFrac: 0.3, AnonExecutableFrac: 1.0,
		Rand: mrand.New(mrand.NewSource(7)),
	}); err != nil {
		t.Fatal(err)
	}
	plcIP := netip.MustParseAddr("192.0.2.10")
	plc, err := uaserver.New(uaserver.Config{
		ApplicationURI:  "urn:vendor:plc:1",
		SoftwareVersion: "1.4.2",
		EndpointURL:     "opc.tcp://192.0.2.10:4840",
		Endpoints: []uaserver.EndpointConfig{
			{Policy: uapolicy.None, Modes: []uamsg.MessageSecurityMode{uamsg.SecurityModeNone}},
			{Policy: uapolicy.Basic256Sha256, Modes: []uamsg.MessageSecurityMode{
				uamsg.SecurityModeSign, uamsg.SecurityModeSignAndEncrypt}},
		},
		TokenTypes: []uamsg.UserTokenType{uamsg.UserTokenAnonymous, uamsg.UserTokenUserName},
		Key:        key, CertDER: cert.Raw,
		Space: space,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.AddHost(plcIP, 4840, 65010, plc)

	// Hidden server on a non-default port, announced by the discovery
	// server below (the paper's follow-reference targets).
	hidden, err := uaserver.New(uaserver.Config{
		ApplicationURI: "urn:vendor:hidden:9",
		EndpointURL:    "opc.tcp://192.0.2.20:4841",
		Endpoints: []uaserver.EndpointConfig{
			{Policy: uapolicy.None, Modes: []uamsg.MessageSecurityMode{uamsg.SecurityModeNone}},
		},
		Key: key, CertDER: cert.Raw,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.AddHost(netip.MustParseAddr("192.0.2.20"), 4841, 65011, hidden)

	disco, err := uaserver.New(uaserver.Config{
		ApplicationURI: "urn:opcfoundation:lds:42",
		EndpointURL:    "opc.tcp://192.0.2.30:4840",
		Endpoints: []uaserver.EndpointConfig{
			{Policy: uapolicy.None, Modes: []uamsg.MessageSecurityMode{uamsg.SecurityModeNone}},
		},
		Discovery: true,
		KnownServers: []uamsg.ApplicationDescription{{
			ApplicationURI: "urn:vendor:hidden:9",
			DiscoveryURLs:  []string{"opc.tcp://192.0.2.20:4841"},
		}},
		Key: key, CertDER: cert.Raw,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.AddHost(netip.MustParseAddr("192.0.2.30"), 4840, 65012, disco)

	return nw.Build(), map[string]string{
		"plc":    "192.0.2.10:4840",
		"hidden": "192.0.2.20:4841",
		"disco":  "192.0.2.30:4840",
	}
}

func newScanner(t *testing.T, nw simnet.View) *Scanner {
	t.Helper()
	key, cert := scannerIdentity(t)
	return &Scanner{
		Dialer:         nw,
		Key:            key,
		CertDER:        cert.Raw,
		Timeout:        5 * time.Second,
		Walk:           uaclient.WalkOptions{MaxNodes: 500},
		ApplicationURI: "urn:repro:scanner",
	}
}

func TestPortScanFindsServersAndNoise(t *testing.T) {
	nw, _ := buildWorld(t)
	open, err := PortScan(context.Background(), nw, PortScanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, a := range open {
		found[a.String()] = true
	}
	// Registered port-4840 hosts must be found; the hidden server on
	// 4841 must not (it is discovered via references instead).
	if !found["192.0.2.10"] || !found["192.0.2.30"] {
		t.Errorf("servers missing from scan: %v", found)
	}
	if found["192.0.2.20"] {
		t.Error("non-default-port host found by default-port scan")
	}
	// Noise hosts (~5% of 256) should appear too.
	if len(open) < 5 {
		t.Errorf("open ports = %d, expected noise", len(open))
	}
}

func TestGrabFullServer(t *testing.T) {
	nw, addrs := buildWorld(t)
	sc := newScanner(t, nw)
	res := sc.Grab(context.Background(), Target{Address: addrs["plc"], Via: ViaPortScan}, nil)

	if !res.ReachedOPCUA {
		t.Fatalf("grab failed: %s", res.Error)
	}
	if res.ApplicationURI != "urn:vendor:plc:1" {
		t.Errorf("application URI = %q", res.ApplicationURI)
	}
	if len(res.Endpoints) != 3 {
		t.Errorf("endpoints = %d", len(res.Endpoints))
	}
	if res.ServerCertDER == nil {
		t.Error("no server certificate captured")
	}
	if !res.SecureChannel.Attempted || !res.SecureChannel.OK {
		t.Errorf("secure channel = %+v", res.SecureChannel)
	}
	if res.SecureChannel.PolicyURI != uapolicy.URIBasic256Sha256 ||
		res.SecureChannel.Mode != uamsg.SecurityModeSignAndEncrypt {
		t.Errorf("secure channel chose %s/%v", res.SecureChannel.PolicyURI, res.SecureChannel.Mode)
	}
	if !res.Session.Offered || !res.Session.OK {
		t.Errorf("session = %+v", res.Session)
	}
	if res.SoftwareVersion != "1.4.2" {
		t.Errorf("software version = %q", res.SoftwareVersion)
	}
	if res.NodeStats.Variables < 10 || res.NodeStats.Methods != 3 {
		t.Errorf("node stats = %+v", res.NodeStats)
	}
	if res.NodeStats.Readable < 10 || res.NodeStats.Executable != 3 {
		t.Errorf("node stats = %+v", res.NodeStats)
	}
	if res.NodeStats.Writable == 0 || res.NodeStats.Writable >= res.NodeStats.Variables {
		t.Errorf("writable = %d", res.NodeStats.Writable)
	}
	if addrspace.Classify(res.Namespaces) != addrspace.Production {
		t.Errorf("namespaces = %v", res.Namespaces)
	}
	if res.BytesTransferred == 0 {
		t.Error("transfer accounting missing")
	}
	// Nothing stalls, so no time passes on the grab's timeline.
	if res.Duration != 0 {
		t.Errorf("Duration = %v, want 0", res.Duration)
	}
}

func TestGrabNoiseHostIsNotOPCUA(t *testing.T) {
	nw := newWorld(t, 24, 1).Build()
	sc := newScanner(t, nw)
	res := sc.Grab(context.Background(), Target{Address: "192.0.2.99:4840", Via: ViaPortScan}, nil)
	if res.ReachedOPCUA {
		t.Error("noise host classified as OPC UA")
	}
	if res.Error == "" {
		t.Error("expected an error description")
	}
}

func TestGrabClosedPort(t *testing.T) {
	nw, _ := buildWorld(t)
	sc := newScanner(t, nw)
	res := sc.Grab(context.Background(), Target{Address: "192.0.2.123:4840", Via: ViaPortScan}, nil)
	if res.ReachedOPCUA || res.Error == "" {
		t.Errorf("closed port grab = %+v", res)
	}
}

func TestRunWaveWithFollowReferences(t *testing.T) {
	nw, addrs := buildWorld(t)
	sc := newScanner(t, nw)
	wave, err := RunWave(context.Background(), nw, sc, WaveConfig{
		Date:             time.Date(2020, 5, 4, 0, 0, 0, 0, time.UTC),
		FollowReferences: true,
		GrabWorkers:      8,
	})
	if err != nil {
		t.Fatal(err)
	}
	opcua := opcuaResults(wave)
	byAddr := map[string]*Result{}
	for _, r := range opcua {
		byAddr[r.Address] = r
	}
	if len(byAddr) != 3 {
		t.Fatalf("OPC UA hosts = %d, want 3 (%v)", len(byAddr), keys(byAddr))
	}
	hidden, ok := byAddr[addrs["hidden"]]
	if !ok {
		t.Fatal("hidden server not discovered via references")
	}
	if hidden.Via != ViaReference {
		t.Errorf("hidden server via = %q", hidden.Via)
	}
	if wave.OpenPorts < 2 {
		t.Errorf("open ports = %d", wave.OpenPorts)
	}
	// Without follow-references the hidden server stays invisible.
	wave2, err := RunWave(context.Background(), nw, sc, WaveConfig{
		Date:        time.Date(2020, 2, 9, 0, 0, 0, 0, time.UTC),
		GrabWorkers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range opcuaResults(wave2) {
		if r.Address == addrs["hidden"] {
			t.Error("hidden server found without follow-references")
		}
	}
}

// opcuaResults filters a wave down to hosts that actually speak OPC UA.
func opcuaResults(w *Wave) []*Result {
	var out []*Result
	for _, r := range w.Results {
		if r.ReachedOPCUA {
			out = append(out, r)
		}
	}
	return out
}

func keys(m map[string]*Result) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestStrongestSecureSelection(t *testing.T) {
	eps := []EndpointInfo{
		{SecurityPolicyURI: uapolicy.URINone, SecurityMode: uamsg.SecurityModeNone},
		{SecurityPolicyURI: uapolicy.URIBasic128Rsa15, SecurityMode: uamsg.SecurityModeSign},
		{SecurityPolicyURI: uapolicy.URIBasic256Sha256, SecurityMode: uamsg.SecurityModeSign},
	}
	p, m := strongestSecure(eps)
	if p != uapolicy.Basic256Sha256 || m != uamsg.SecurityModeSign {
		t.Errorf("got %v/%v", p, m)
	}
	if p, _ := strongestSecure(eps[:1]); p != nil {
		t.Error("None-only endpoints should yield nil")
	}
}

func TestChannelForSessionPrefersNone(t *testing.T) {
	eps := []EndpointInfo{
		{SecurityPolicyURI: uapolicy.URIBasic256Sha256, SecurityMode: uamsg.SecurityModeSignAndEncrypt},
		{SecurityPolicyURI: uapolicy.URINone, SecurityMode: uamsg.SecurityModeNone},
	}
	p, m := channelForSession(eps)
	if p != uapolicy.None || m != uamsg.SecurityModeNone {
		t.Errorf("got %v/%v", p, m)
	}
	// Secure-only host: pick the weakest secure endpoint.
	p2, m2 := channelForSession(eps[:1])
	if p2 != uapolicy.Basic256Sha256 || m2 != uamsg.SecurityModeSignAndEncrypt {
		t.Errorf("got %v/%v", p2, m2)
	}
}

func TestGrabSecureOnlyAnonymousHost(t *testing.T) {
	// The paper's 71 hosts that force security but allow anonymous
	// access: the scanner must reach them through a secure channel.
	nw := newWorld(t, 28, 0)
	key, _ := rsa.GenerateKey(rand.Reader, 512)
	cert, _ := uacert.Generate(key, uacert.Options{CommonName: "sec"})
	srv, err := uaserver.New(uaserver.Config{
		ApplicationURI: "urn:secure:anon",
		EndpointURL:    "opc.tcp://192.0.2.1:4840",
		Endpoints: []uaserver.EndpointConfig{
			{Policy: uapolicy.Basic256Sha256, Modes: []uamsg.MessageSecurityMode{
				uamsg.SecurityModeSignAndEncrypt}},
		},
		TokenTypes: []uamsg.UserTokenType{uamsg.UserTokenAnonymous},
		Key:        key, CertDER: cert.Raw,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.AddHost(netip.MustParseAddr("192.0.2.1"), 4840, 65000, srv)

	sc := newScanner(t, nw.Build())
	res := sc.Grab(context.Background(), Target{Address: "192.0.2.1:4840", Via: ViaPortScan}, nil)
	if !res.ReachedOPCUA {
		t.Fatalf("grab failed: %s", res.Error)
	}
	if !res.Session.Offered || !res.Session.OK {
		t.Errorf("session over secure channel = %+v", res.Session)
	}
}

func TestGrabCertRejectingHost(t *testing.T) {
	nw := newWorld(t, 28, 0)
	key, _ := rsa.GenerateKey(rand.Reader, 512)
	cert, _ := uacert.Generate(key, uacert.Options{CommonName: "strict"})
	srv, err := uaserver.New(uaserver.Config{
		ApplicationURI: "urn:strict",
		EndpointURL:    "opc.tcp://192.0.2.1:4840",
		Endpoints: []uaserver.EndpointConfig{
			{Policy: uapolicy.None, Modes: []uamsg.MessageSecurityMode{uamsg.SecurityModeNone}},
			{Policy: uapolicy.Basic256, Modes: []uamsg.MessageSecurityMode{uamsg.SecurityModeSign}},
		},
		Key: key, CertDER: cert.Raw,
		Quirks: uaserver.Quirks{RejectClientCert: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.AddHost(netip.MustParseAddr("192.0.2.1"), 4840, 65000, srv)

	sc := newScanner(t, nw.Build())
	res := sc.Grab(context.Background(), Target{Address: "192.0.2.1:4840", Via: ViaPortScan}, nil)
	if !res.ReachedOPCUA {
		t.Fatalf("grab failed: %s", res.Error)
	}
	if !res.SecureChannel.Attempted || res.SecureChannel.OK {
		t.Errorf("secure channel = %+v", res.SecureChannel)
	}
	if !res.SecureChannel.CertRejected {
		t.Error("certificate rejection not detected")
	}
}

// portScan is one sweep of nw with telemetry into reg (nil: off), the
// operation BenchmarkPortScan64K, BenchmarkPortScanTelemetry and
// TestPortScanAllocBudget measure.
func portScan(tb testing.TB, nw *worldview.Snapshot, reg *telemetry.Registry) func() {
	return func() {
		if _, err := PortScan(context.Background(), nw, PortScanConfig{Metrics: reg}); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkPortScan64K(b *testing.B) {
	scan := portScan(b, benchSnapshot(b), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan()
	}
}

// BenchmarkPortScanTelemetry pairs disabled and enabled telemetry over
// the same sweep; TestPortScanAllocBudget holds both to their budget
// and the enabled one to the disabled one's count plus 64.
func BenchmarkPortScanTelemetry(b *testing.B) {
	nw := benchSnapshot(b)
	run := func(b *testing.B, reg *telemetry.Registry) {
		scan := portScan(b, nw, reg)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scan()
		}
	}
	b.Run("telemetry=off", func(b *testing.B) { run(b, nil) })
	b.Run("telemetry=on", func(b *testing.B) { run(b, telemetry.New()) })
}

// TestPortScanAllocBudget: a sweep of benchSnapshot's /16 allocates at
// most 4 objects (×1.25 + 2) with telemetry off and on, and enabling
// telemetry costs at most 64 more than leaving it off: instruments
// resolve once per scan, never per probe, and the nil-registry path
// never starts allocating.
func TestPortScanAllocBudget(t *testing.T) {
	nw := benchSnapshot(t)
	off := testing.AllocsPerRun(10, portScan(t, nw, nil))
	on := testing.AllocsPerRun(10, portScan(t, nw, telemetry.New()))
	if limit := 4*1.25 + 2; off > limit || on > limit {
		t.Errorf("a sweep allocates %.0f objects with telemetry off and %.0f with it on, budget %.1f", off, on, limit)
	}
	if on > off+64 {
		t.Errorf("telemetry costs %.0f allocations per sweep (%.0f on, %.0f off), budget 64", on-off, on, off)
	}
}

func BenchmarkPermutation(b *testing.B) {
	p := NewPermutation(1<<32, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.at(uint64(i) & 0xFFFFFFFF)
	}
}
