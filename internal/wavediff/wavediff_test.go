package wavediff

import "testing"

func baseContext() Context {
	return Context{
		Seed:         2020,
		TestKeySizes: true,
		NoiseProb:    1e-5,
		MaxHosts:     60,
		ChaosProfile: "mixed",
		ChaosSeed:    7,
	}
}

func baseState() EndpointState {
	return EndpointState{
		Address:         "100.64.0.1:4840",
		Present:         true,
		PortScanned:     true,
		CertThumbprint:  "aa01",
		SoftwareVersion: "1.03",
		ChaosKind:       2,
		ChaosParam:      17,
	}
}

// fpOf fingerprints one state under one context via the public Plan
// surface, so the tests cannot drift from the production path.
func fpOf(t *testing.T, ctx Context, followRefs bool, st EndpointState) uint64 {
	t.Helper()
	p := NewPlan(ctx, 1, followRefs, []EndpointState{st})
	fp, ok := p.Fingerprint(st.Address)
	if !ok {
		t.Fatalf("address %q missing from its own plan", st.Address)
	}
	return fp
}

// TestFingerprintSensitivity pins the delta soundness contract field by
// field: every input that can shape a host's record bytes in a wave —
// a certificate renewal, a chaos redraw, a campaign seed change, a
// churn event — must flip the fingerprint, while an
// unchanged host must keep it bit-stable across waves.
func TestFingerprintSensitivity(t *testing.T) {
	tests := []struct {
		name string
		ctx  func(*Context)       // nil = base context
		st   func(*EndpointState) // nil = base state
		flip bool                 // fingerprint must differ from base
	}{
		{name: "unchanged host", flip: false},
		{name: "certificate renewal",
			st: func(s *EndpointState) { s.CertThumbprint = "bb02" }, flip: true},
		{name: "software update riding a renewal",
			st: func(s *EndpointState) { s.SoftwareVersion = "1.03.1" }, flip: true},
		{name: "chaos decision redrawn (kind)",
			st: func(s *EndpointState) { s.ChaosKind = 3 }, flip: true},
		{name: "chaos decision redrawn (param)",
			st: func(s *EndpointState) { s.ChaosParam = 18 }, flip: true},
		{name: "churn: host leaves",
			st: func(s *EndpointState) { s.Present = false }, flip: true},
		{name: "port scan no longer reaches host",
			st: func(s *EndpointState) { s.PortScanned = false }, flip: true},
		{name: "campaign seed change",
			ctx: func(c *Context) { c.Seed = 2021 }, flip: true},
		{name: "key-size probing toggled",
			ctx: func(c *Context) { c.TestKeySizes = false }, flip: true},
		{name: "noise probability change",
			ctx: func(c *Context) { c.NoiseProb = 2e-5 }, flip: true},
		{name: "population truncation change",
			ctx: func(c *Context) { c.MaxHosts = 61 }, flip: true},
		{name: "chaos profile change",
			ctx: func(c *Context) { c.ChaosProfile = "tarpit" }, flip: true},
		{name: "chaos seed change",
			ctx: func(c *Context) { c.ChaosSeed = 8 }, flip: true},
	}
	base := fpOf(t, baseContext(), true, baseState())
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			ctx, st := baseContext(), baseState()
			if tc.ctx != nil {
				tc.ctx(&ctx)
			}
			if tc.st != nil {
				tc.st(&st)
			}
			got := fpOf(t, ctx, true, st)
			if flipped := got != base; flipped != tc.flip {
				t.Errorf("fingerprint flipped=%v, want %v", flipped, tc.flip)
			}
		})
	}
}

// TestFingerprintFollowReferences pins the reference-only rule: the
// wave's follow-references flag is part of a hidden host's fingerprint
// (its record exists only in following waves) but not a port-scanned
// host's (its record bytes don't depend on the flag).
func TestFingerprintFollowReferences(t *testing.T) {
	ctx := baseContext()
	hidden := baseState()
	hidden.PortScanned = false
	if fpOf(t, ctx, true, hidden) == fpOf(t, ctx, false, hidden) {
		t.Error("follow-references flag did not flip a hidden host's fingerprint")
	}
	scanned := baseState()
	if fpOf(t, ctx, true, scanned) != fpOf(t, ctx, false, scanned) {
		t.Error("follow-references flag flipped a port-scanned host's fingerprint")
	}
}

// TestDeltaSkip pins the skip predicate: equal fingerprints skip,
// moved fingerprints re-grab, additions and removals re-grab, and
// addresses outside both plans (deterministic port noise) skip.
func TestDeltaSkip(t *testing.T) {
	ctx := baseContext()
	stable := baseState()
	renewed := baseState()
	renewed.Address = "100.64.0.2:4840"
	leaver := baseState()
	leaver.Address = "100.64.0.3:4840"
	joiner := baseState()
	joiner.Address = "100.64.0.4:4840"

	prev := NewPlan(ctx, 1, true, []EndpointState{stable, renewed, leaver})
	renewedAfter := renewed
	renewedAfter.CertThumbprint = "cc03"
	cur := NewPlan(ctx, 2, true, []EndpointState{stable, renewedAfter, joiner})
	d := cur.DiffFrom(prev)

	for _, tc := range []struct {
		addr string
		want bool
	}{
		{stable.Address, true},
		{renewed.Address, false},
		{leaver.Address, false},
		{joiner.Address, false},
		{"100.127.0.9:4840", true}, // in neither plan: port noise
	} {
		if got := d.Skip(tc.addr); got != tc.want {
			t.Errorf("Skip(%s) = %v, want %v", tc.addr, got, tc.want)
		}
	}
	if got := d.Misses(); got != 3 {
		t.Errorf("Misses() = %d, want 3 (renewed, leaver, joiner)", got)
	}
}

// TestPlanDuplicateAddresses pins the collision rule: two endpoints
// sharing one address fold into a combined fingerprint that differs
// from either endpoint alone, so a duplicate can only force a re-grab,
// never hide a change.
func TestPlanDuplicateAddresses(t *testing.T) {
	ctx := baseContext()
	a := baseState()
	b := baseState()
	b.CertThumbprint = "dd04"
	dup := NewPlan(ctx, 1, true, []EndpointState{a, b})
	if len(dup.fps) != 1 {
		t.Fatalf("%d planned addresses, want 1", len(dup.fps))
	}
	combined, _ := dup.Fingerprint(a.Address)
	if combined == fpOf(t, ctx, true, a) || combined == fpOf(t, ctx, true, b) {
		t.Error("combined fingerprint equals a single endpoint's")
	}
}

// benchStates synthesizes a world-scale endpoint population (the study
// world is 1,114 servers plus discovery endpoints) for wave w, with the
// study's real change rate: roughly 1 in 16 endpoints renews its
// certificate at any given wave and 1 in 64 churns in or out.
func benchStates(w, n int) []EndpointState {
	states := make([]EndpointState, n)
	for i := range states {
		renewed := i%16 == w%16
		cert := "aa00"
		if renewed {
			cert = "bb" + string(rune('0'+w))
		}
		states[i] = EndpointState{
			Address:         "100.64." + itoa(i/256) + "." + itoa(i%256) + ":4840",
			Present:         i%64 != w%64,
			PortScanned:     i%8 != 7,
			CertThumbprint:  cert,
			SoftwareVersion: "1.04",
			ChaosKind:       uint8(i % 5),
			ChaosParam:      uint64(i * 31),
		}
	}
	return states
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [4]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// BenchmarkWaveDiffPlan measures the full per-wave delta-planning cost
// — fingerprinting a world-scale endpoint population, diffing against
// the prior wave's plan, and answering Skip for every address — the
// work a delta wave spends before deciding which grabs to elide. Its
// allocs/op are budget-gated in BENCH_10.json: planning must stay
// O(endpoints) map inserts, nothing per-byte.
func BenchmarkWaveDiffPlan(b *testing.B) {
	const n = 1200
	ctx := baseContext()
	prevStates, curStates := benchStates(0, n), benchStates(1, n)
	prev := NewPlan(ctx, 0, false, prevStates)
	b.ReportAllocs()
	b.ResetTimer()
	skips := 0
	for i := 0; i < b.N; i++ {
		cur := NewPlan(ctx, 1, false, curStates)
		d := cur.DiffFrom(prev)
		for _, st := range curStates {
			if d.Skip(st.Address) {
				skips++
			}
		}
	}
	b.StopTimer()
	if skips == 0 {
		b.Fatal("no skips planned — fixture changed everything")
	}
	b.ReportMetric(float64(skips/b.N), "skips")
}
