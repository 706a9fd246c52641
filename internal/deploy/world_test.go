package deploy

import (
	"context"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/hex"
	"net/netip"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/uacert"
	"repro/internal/uaclient"
	"repro/internal/uamsg"
	"repro/internal/uarsa"
	"repro/internal/worldview"
)

// materializeSmall builds a truncated test world with small keys.
func materializeSmall(t *testing.T, maxHosts int) *World {
	t.Helper()
	spec := buildSpec(t)
	w, err := Materialize(spec, Options{
		TestKeySizes: true,
		MaxHosts:     maxHosts,
		NoiseProb:    0.0001,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWorldKeysPrecomputed asserts the CRT fast path is armed on every
// private key the world serves RSA operations with: all host keys
// (including shared reuse-cluster keys) and the discovery identity.
// Without Precomputed populated every OPN sign/decrypt falls back to
// the ~4× slower non-CRT exponentiation, which would silently quadruple
// the campaign's RSA floor.
func TestWorldKeysPrecomputed(t *testing.T) {
	w := materializeSmall(t, 60)
	precomputed := func(key *rsa.PrivateKey) bool {
		return key != nil && key.Precomputed.Dp != nil && key.Precomputed.Dq != nil &&
			key.Precomputed.Qinv != nil
	}
	for _, wh := range w.hosts {
		if !precomputed(wh.key) {
			t.Errorf("host %d key lacks CRT precomputation", wh.spec.Index)
		}
	}
	for i, wd := range w.discovery {
		if !precomputed(wd.server.Config().Key) {
			t.Errorf("discovery server %d key lacks CRT precomputation", i)
		}
	}
	// The pool itself must hand out precomputed keys for every size it
	// ever generated.
	for _, bits := range []int{512} {
		for i := 0; i < w.Keys.Size(bits); i++ {
			if !precomputed(w.Keys.Key(bits, i)) {
				t.Errorf("pool key (%d bits, %d) lacks CRT precomputation", bits, i)
			}
		}
	}
}

func TestCertRenewalChangesThumbprint(t *testing.T) {
	spec := buildSpec(t)
	// Materialize enough hosts to include a renewal host.
	var renewal *HostSpec
	for i := range spec.Hosts {
		if spec.Hosts[i].Cert.RenewalWave > 0 {
			renewal = &spec.Hosts[i]
			break
		}
	}
	if renewal == nil {
		t.Fatal("no renewal host in spec")
	}
	w, err := Materialize(spec, Options{
		TestKeySizes: true,
		MaxHosts:     renewal.Index + 1,
		NoiseProb:    0.0001,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := w.HostCert(renewal.Index, renewal.Cert.RenewalWave-1)
	after := w.HostCert(renewal.Index, renewal.Cert.RenewalWave)
	if before == nil || after == nil {
		t.Fatal("missing certificates")
	}
	if before.ThumbprintHex() == after.ThumbprintHex() {
		t.Error("renewal did not change the certificate")
	}
	if before.PublicKey.N.Cmp(after.PublicKey.N) != 0 {
		t.Error("renewal should keep the key")
	}
	if w.HostCert(-1, 0) != nil || w.HostCert(1<<20, 0) != nil {
		t.Error("out-of-range host index should return nil")
	}
}

func TestClusterHostsShareCertificate(t *testing.T) {
	spec := buildSpec(t)
	// Cluster 2 lives in group A (indexes < 270), so a truncated world
	// contains whole clusters.
	var members []int
	for i := range spec.Hosts[:270] {
		if spec.Hosts[i].Cert.ReuseCluster == 2 {
			members = append(members, i)
		}
	}
	if len(members) != 12 {
		t.Fatalf("cluster 2 members in group A = %d", len(members))
	}
	w, err := Materialize(spec, Options{
		TestKeySizes: true,
		MaxHosts:     270,
		NoiseProb:    0.0001,
	})
	if err != nil {
		t.Fatal(err)
	}
	thumb := w.HostCert(members[0], 7).ThumbprintHex()
	for _, m := range members[1:] {
		if w.HostCert(m, 7).ThumbprintHex() != thumb {
			t.Errorf("cluster member %d has a different certificate", m)
		}
	}
	// A non-member must differ.
	for i := range spec.Hosts[:270] {
		if spec.Hosts[i].Cert.ReuseCluster == -1 {
			if w.HostCert(i, 7).ThumbprintHex() == thumb {
				t.Errorf("single host %d shares the cluster certificate", i)
			}
			break
		}
	}
}

func TestBuildUniverseCoversHostAddresses(t *testing.T) {
	spec := buildSpec(t)
	u, err := BuildUniverse()
	if err != nil {
		t.Fatal(err)
	}
	for i := range spec.Hosts {
		h := &spec.Hosts[i]
		inUniverse := u.Contains(h.IP)
		if h.Hidden && h.Port == 4840 && inUniverse {
			t.Errorf("hidden default-port host %d inside scanned universe", h.Index)
		}
		if !h.Hidden && !inUniverse {
			t.Errorf("visible host %d outside universe (%s)", h.Index, h.IP)
		}
	}
	for _, d := range spec.Discovery {
		if !u.Contains(d.IP) {
			t.Errorf("discovery server %d outside universe (%s)", d.Index, d.IP)
		}
	}
}

// The tests named after ApplyWave date from the mutable network a wave
// was once applied to; a wave is now entered by taking its snapshot, and
// each test pins the same contract on SnapshotWave.

// TestMaterializeAndApplyWave: a host present at wave 0 is dialable
// through that wave's snapshot and speaks OPC UA with its spec's
// application URI and policy set.
func TestMaterializeAndApplyWave(t *testing.T) {
	w := materializeSmall(t, 60)
	snap, err := w.SnapshotWave(0)
	if err != nil {
		t.Fatal(err)
	}
	var spec *HostSpec
	for i := range w.Spec.Hosts[:60] {
		h := &w.Spec.Hosts[i]
		if h.PresentAt(0) && !h.Hidden {
			spec = h
			break
		}
	}
	if spec == nil {
		t.Fatal("no present host in truncated world")
	}
	eps := endpointsVia(t, snap, spec)
	if len(eps) == 0 {
		t.Fatal("no endpoints advertised")
	}
	if eps[0].Server.ApplicationURI != spec.AppURI {
		t.Errorf("application URI = %q, want %q", eps[0].Server.ApplicationURI, spec.AppURI)
	}
	policySet := map[string]bool{}
	for _, ep := range eps {
		policySet[ep.SecurityPolicyURI] = true
	}
	if len(policySet) != len(spec.Policies) {
		t.Errorf("advertised %d policies, spec has %d (%v)", len(policySet), len(spec.Policies), spec.Policies)
	}
}

// TestApplyWaveValidation: waves off the schedule are refused.
func TestApplyWaveValidation(t *testing.T) {
	w := materializeSmall(t, 10)
	if _, err := w.SnapshotWave(-1); err == nil {
		t.Error("negative snapshot wave accepted")
	}
	if _, err := w.SnapshotWave(len(WaveDates)); err == nil {
		t.Error("out-of-range snapshot wave accepted")
	}
}

// presence captures which spec endpoints answer through a snapshot.
func presence(w *World, snap *worldview.Snapshot, maxHosts int) map[string]bool {
	out := map[string]bool{}
	for i := range w.Spec.Hosts[:maxHosts] {
		h := &w.Spec.Hosts[i]
		out[h.IP.String()+":"+strconv.Itoa(h.Port)] = snap.OpenPort(h.IP, h.Port)
	}
	for i := range w.Spec.Discovery {
		d := &w.Spec.Discovery[i]
		out[d.IP.String()+":4840"] = snap.OpenPort(d.IP, 4840)
	}
	return out
}

// TestApplyWaveIdempotent: a wave's population depends on the wave
// alone, not on which snapshots were taken before (out of order,
// repeated, or none), and a snapshot is not changed by later ones.
func TestApplyWaveIdempotent(t *testing.T) {
	const maxHosts = 80
	fresh := materializeSmall(t, maxHosts)
	snap, err := fresh.SnapshotWave(3)
	if err != nil {
		t.Fatal(err)
	}
	want := presence(fresh, snap, maxHosts)

	replayed := materializeSmall(t, maxHosts)
	var first, last *worldview.Snapshot
	for _, wave := range []int{3, 7, 0, 3, 3} {
		snap, err := replayed.SnapshotWave(wave)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = snap
		}
		last = snap
	}
	for name, snap := range map[string]*worldview.Snapshot{"first": first, "last": last} {
		got := presence(replayed, snap, maxHosts)
		for addr, open := range want {
			if got[addr] != open {
				t.Errorf("%s wave-3 snapshot, endpoint %s: open = %v after replay, want %v", name, addr, got[addr], open)
			}
		}
	}
}

// TestSnapshotWaveMatchesApplyWave takes every wave's snapshot, out of
// order, and requires each to expose exactly the spec's population at
// that wave: a spec endpoint answers iff it is present (or, absent, its
// address is a noise host), a present host carries its spec ASN, and the
// first present visible host speaks OPC UA with its spec's application
// URI.
func TestSnapshotWaveMatchesApplyWave(t *testing.T) {
	const maxHosts = 120
	w := materializeSmall(t, maxHosts)
	noise := func(ip netip.Addr, port int) bool {
		return w.Net.Universe.Contains(ip) && w.Net.Noise.HitU32(simnet.AddrToU32(ip), port)
	}
	for _, wave := range []int{3, 7, 0, 1, 6, 2, 5, 4} {
		snap, err := w.SnapshotWave(wave)
		if err != nil {
			t.Fatal(err)
		}
		var live *HostSpec
		for i := range w.Spec.Hosts[:maxHosts] {
			h := &w.Spec.Hosts[i]
			present := h.PresentAt(wave)
			if open := snap.OpenPort(h.IP, h.Port); open != (present || noise(h.IP, h.Port)) {
				t.Errorf("wave %d host %d: open = %v, present = %v", wave, h.Index, open, present)
			}
			if present && snap.ASOf(h.IP) != h.ASN {
				t.Errorf("wave %d host %d: ASN = %d, want %d", wave, h.Index, snap.ASOf(h.IP), h.ASN)
			}
			if live == nil && present && !h.Hidden {
				live = h
			}
		}
		kept := keptDiscovery(w.Spec.Discovery, maxHosts, len(w.Spec.Hosts))
		for i := range w.Spec.Discovery {
			d := &w.Spec.Discovery[i]
			present := wave < len(d.Present) && d.Present[wave] && slices.Contains(kept, d)
			if open := snap.OpenPort(d.IP, 4840); open != (present || noise(d.IP, 4840)) {
				t.Errorf("wave %d discovery %d: open = %v, present = %v", wave, d.Index, open, present)
			}
		}
		if live == nil {
			t.Fatalf("wave %d: no present visible host in truncated world", wave)
		}
		if eps := endpointsVia(t, snap, live); len(eps) == 0 || eps[0].Server.ApplicationURI != live.AppURI {
			t.Errorf("wave %d host %d: %d endpoints, want application URI %q", wave, live.Index, len(eps), live.AppURI)
		}
	}
}

// TestSmallWorldKeepsDiscoveryShare: a world of the first k hosts keeps
// every discovery server that announces one of them and, of the rest,
// ⌊r·k/n⌋ spread across the index range, so each wave's discovery count
// shrinks with the hosts; a whole world keeps every server.
func TestSmallWorldKeepsDiscoveryShare(t *testing.T) {
	spec := buildSpec(t)
	n := len(spec.Hosts)
	for _, k := range []int{60, 320, n} {
		kept := keptDiscovery(spec.Discovery, k, n)
		var announcing, rest int
		for i := range spec.Discovery {
			d := &spec.Discovery[i]
			if slices.ContainsFunc(d.Announces, func(hi int) bool { return hi < k }) {
				announcing++
				if !slices.Contains(kept, d) {
					t.Errorf("k=%d: discovery server %d announces a kept host but was dropped", k, d.Index)
				}
			} else {
				rest++
			}
		}
		if want := announcing + rest*k/n; k == n && len(kept) != len(spec.Discovery) || k < n && len(kept) != want {
			t.Errorf("k=%d: kept %d discovery servers, want %d announcing plus %d·%d/%d", k, len(kept), announcing, rest, k, n)
		}
		for wave := range WaveDates {
			all, share := 0, 0
			for i := range spec.Discovery {
				if d := &spec.Discovery[i]; d.Present[wave] {
					all++
					if slices.Contains(kept, d) {
						share++
					}
				}
			}
			if lo, hi := all*k/n-1, all*k/n+announcing+1; share < lo || share > hi {
				t.Errorf("k=%d wave %d: %d of %d present discovery servers kept, want %d to %d", k, wave, share, all, lo, hi)
			}
		}
	}
}

// TestSnapshotWaveConcurrent takes all eight snapshots while the
// campaign-side readers and setters of the shared server cache run; under
// -race this pins the world-mutex serialization a wave pool relies on.
func TestSnapshotWaveConcurrent(t *testing.T) {
	w := materializeSmall(t, 40)
	var wg sync.WaitGroup
	run := func(what string, f func(wave int) error) {
		for wave := range WaveDates {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := f(wave); err != nil {
					t.Errorf("%s wave %d: %v", what, wave, err)
				}
			}()
		}
	}
	run("snapshot", func(wave int) error { _, err := w.SnapshotWave(wave); return err })
	run("endpoint states", func(wave int) error { _, err := w.WaveEndpointStates(wave); return err })
	run("crypto", func(wave int) error { w.SetCrypto(uarsa.NewEngine(0), wave%2 == 0); return nil })
	wg.Wait()
}

// TestSnapshotLatencyFromWorld: World.Net.SetLatency reaches the
// snapshots built after the call, and only those.
func TestSnapshotLatencyFromWorld(t *testing.T) {
	w := materializeSmall(t, 10)
	dial := func(snap simnet.View) time.Duration {
		start := time.Now()
		if _, err := snap.DialContext(context.Background(), "tcp", "100.64.0.1:1"); err == nil {
			t.Fatal("closed port answered")
		}
		return time.Since(start)
	}
	before, err := w.SnapshotWave(7)
	if err != nil {
		t.Fatal(err)
	}
	w.Net.SetLatency(30 * time.Millisecond)
	after, err := w.SnapshotWave(7)
	if err != nil {
		t.Fatal(err)
	}
	if d := dial(after); d < 30*time.Millisecond {
		t.Errorf("dial after SetLatency took %v, want ≥ 30ms", d)
	}
	if d := dial(before); d >= 30*time.Millisecond {
		t.Errorf("dial through the earlier snapshot took %v, want no latency", d)
	}
}

// TestSnapshotWaveCertRenewal requires snapshots of different waves to
// serve the pre- and post-renewal certificates respectively, even when
// built out of order (the concurrent campaign materializes all waves
// up front).
func TestSnapshotWaveCertRenewal(t *testing.T) {
	spec := buildSpec(t)
	var renewal *HostSpec
	for i := range spec.Hosts {
		h := &spec.Hosts[i]
		if h.Cert.RenewalWave > 0 && h.PresentAt(0) && h.PresentAt(7) && !h.Hidden {
			renewal = h
			break
		}
	}
	if renewal == nil {
		t.Skip("no always-present renewal host in spec")
	}
	w, err := Materialize(spec, Options{
		TestKeySizes: true,
		MaxHosts:     renewal.Index + 1,
		NoiseProb:    0.0001,
	})
	if err != nil {
		t.Fatal(err)
	}
	grabThumb := func(wave int) string {
		t.Helper()
		snap, err := w.SnapshotWave(wave)
		if err != nil {
			t.Fatal(err)
		}
		for _, ep := range endpointsVia(t, snap, renewal) {
			if len(ep.ServerCertificate) > 0 {
				return thumbprintHex(t, ep.ServerCertificate)
			}
		}
		t.Fatalf("wave %d: no certificate served", wave)
		return ""
	}
	// Build the post-renewal snapshot first to prove order independence.
	after := grabThumb(7)
	before := grabThumb(renewal.Cert.RenewalWave - 1)
	if before == after {
		t.Error("snapshots serve the same certificate across the renewal")
	}
	if before != w.HostCert(renewal.Index, renewal.Cert.RenewalWave-1).ThumbprintHex() {
		t.Error("pre-renewal snapshot serves the wrong certificate")
	}
	if after != w.HostCert(renewal.Index, 7).ThumbprintHex() {
		t.Error("post-renewal snapshot serves the wrong certificate")
	}
}

// endpointsVia asks the host for its endpoints through the snapshot.
func endpointsVia(t *testing.T, snap *worldview.Snapshot, h *HostSpec) []uamsg.EndpointDescription {
	t.Helper()
	c, err := uaclient.Dial(context.Background(), "opc.tcp://"+h.IP.String()+":"+strconv.Itoa(h.Port),
		uaclient.Options{Dialer: snap, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.OpenInsecureChannel(); err != nil {
		t.Fatal(err)
	}
	eps, err := c.GetEndpoints()
	if err != nil {
		t.Fatal(err)
	}
	return eps
}

func thumbprintHex(t *testing.T, der []byte) string {
	t.Helper()
	c, err := uacert.Parse(der)
	if err != nil {
		t.Fatal(err)
	}
	return c.ThumbprintHex()
}

// TestMaterializeDeterministicAcrossProcesses pins the property the
// multi-process shard workers depend on: two independent
// materializations of the same spec (as two worker processes would
// perform) agree on every certificate byte — same thumbprints for
// host, prior, cluster and discovery certificates.
func TestMaterializeDeterministicAcrossProcesses(t *testing.T) {
	build := func() *World {
		t.Helper()
		spec, err := BuildSpec(2020)
		if err != nil {
			t.Fatal(err)
		}
		w, err := Materialize(spec, Options{TestKeySizes: true, MaxHosts: 50})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	a, b := build(), build()
	if len(a.hosts) != len(b.hosts) {
		t.Fatalf("host counts differ: %d vs %d", len(a.hosts), len(b.hosts))
	}
	for i := range a.hosts {
		// Equal by value, yet each build searched for its own: nothing
		// is memoized across Materialize calls of one process.
		if a.hosts[i].key == b.hosts[i].key || !a.hosts[i].key.Equal(b.hosts[i].key) {
			t.Errorf("host %d: keys of two materializations must be equal but separately generated", i)
		}
		if a.hosts[i].cert.ThumbprintHex() != b.hosts[i].cert.ThumbprintHex() {
			t.Errorf("host %d certificate differs between materializations", i)
		}
		if (a.hosts[i].prior == nil) != (b.hosts[i].prior == nil) {
			t.Fatalf("host %d prior presence differs", i)
		}
		if a.hosts[i].prior != nil &&
			a.hosts[i].prior.ThumbprintHex() != b.hosts[i].prior.ThumbprintHex() {
			t.Errorf("host %d prior certificate differs between materializations", i)
		}
	}
}

// TestMaterializeCertGolden pins every certificate of the whole test-key
// world: SHA-256 over HostCert(i, 0).Raw‖HostCert(i, 7).Raw for all 1,114
// hosts in order, then each discovery certificate. That covers what
// TestDatasetGolden (400 hosts, waves 6–7) never sees — the key taken by
// every host (takeKey order), every serial, and every pre-renewal
// certificate — so a reordered key work-list, a reserve key dropped from
// the middle of a size, or a different accepted prime fails here.
func TestMaterializeCertGolden(t *testing.T) {
	for seed, want := range map[int64]string{
		2020: "57d344f0926ca3a49b09fbe205b7b8520904c95f831c52d6fb7dd239b059287d",
		7:    "b504ee5e892dfafee409247237f93850293d5ccc517396e084c64ade2088705c",
	} {
		spec, err := BuildSpec(seed)
		if err != nil {
			t.Fatal(err)
		}
		w, err := Materialize(spec, Options{TestKeySizes: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(w.hosts) != NumServers {
			t.Fatalf("seed %d: %d hosts, want %d", seed, len(w.hosts), NumServers)
		}
		h := sha256.New()
		for i := range w.hosts {
			h.Write(w.HostCert(i, 0).Raw)
			h.Write(w.HostCert(i, len(WaveDates)-1).Raw)
		}
		for _, wd := range w.discovery {
			h.Write(wd.cert.Raw)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("seed %d: certificate digest %s, want %s", seed, got, want)
		}
		// The pool holds exactly the keys the world hands out: every key
		// searched for is served by a host or the discovery servers.
		served := map[*rsa.PrivateKey]bool{}
		for _, wh := range w.hosts {
			served[wh.key] = true
		}
		for _, wd := range w.discovery {
			served[wd.server.Config().Key] = true
		}
		if w.Keys.Size(512) != len(served) {
			t.Errorf("seed %d: pool holds %d keys, the world serves %d", seed, w.Keys.Size(512), len(served))
		}
	}
}

// BenchmarkMaterialize is one cold build of the whole test-key world:
// every key, certificate and address space, nothing carried over from the
// previous iteration.
func BenchmarkMaterialize(b *testing.B) {
	spec, err := BuildSpec(2020)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("testkeys", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Materialize(spec, Options{TestKeySizes: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestWorldBuildStages: Materialize leaves the stage split of its own run
// in World.Build — one row per key size, certificates, address spaces,
// total — with counts that match what the world holds.
func TestWorldBuildStages(t *testing.T) {
	w := materializeSmall(t, 60)
	var names []string
	byName := map[string]BuildStage{}
	for _, st := range w.Build {
		names = append(names, st.Stage)
		byName[st.Stage] = st
		if st.Wall <= 0 || st.Busy <= 0 {
			t.Errorf("stage %s: wall %v, busy %v; want both positive", st.Stage, st.Wall, st.Busy)
		}
		if st.Wall > w.Build[len(w.Build)-1].Wall {
			t.Errorf("stage %s took %v, longer than the whole build", st.Stage, st.Wall)
		}
	}
	if got, want := strings.Join(names, " "), "keys_512 certificates address_spaces total"; got != want {
		t.Fatalf("stages %q, want %q", got, want)
	}
	certs := 1 // discovery
	seen := map[*uacert.Certificate]bool{}
	for _, wh := range w.hosts {
		for _, c := range []*uacert.Certificate{wh.cert, wh.prior} {
			if c != nil && !seen[c] {
				seen[c] = true
				certs++
			}
		}
	}
	for stage, want := range map[string]int{
		"keys_512": w.Keys.Size(512), "certificates": certs, "address_spaces": 60, "total": 60,
	} {
		if got := byName[stage].Count; got != want {
			t.Errorf("stage %s counts %d, want %d", stage, got, want)
		}
	}
}
