package wavediff

import (
	"fmt"
	"net/netip"
	"testing"

	"repro/internal/chaos"
)

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
	}
}

// fpOf fingerprints one state under one context at wave 1.
func fpOf(t *testing.T, ctx Context, followRefs bool, st EndpointState) uint64 {
	t.Helper()
	return fpAt(t, ctx, 1, followRefs, st)
}

// fpAt fingerprints one state under one context at a wave via the
// public Plan surface, so the tests cannot drift from the production
// path.
func fpAt(t *testing.T, ctx Context, wave int, followRefs bool, st EndpointState) uint64 {
	t.Helper()
	p := NewPlan(ctx, wave, followRefs, []EndpointState{st})
	fp, ok := p.Fingerprint(st.Address)
	if !ok {
		t.Fatalf("address %q missing from its own plan", st.Address)
	}
	return fp
}

// TestFingerprintSensitivity pins the delta soundness contract field by
// field: every input that can shape a host's record bytes in a wave —
// a certificate renewal, a chaos redraw, a churn event — must flip the
// fingerprint, while an unchanged host must keep it bit-stable across
// waves. The study is the same for every plan of a campaign and is
// named by Study.ID, not by the fingerprint: a study field reaches a
// fingerprint only through the chaos decision NewPlan draws from it.
func TestFingerprintSensitivity(t *testing.T) {
	tests := []struct {
		name string
		ctx  func(*Context)        // nil = base context
		st   func(*EndpointState)  // nil = base state
		b    func(*chaos.Behavior) // non-nil: redraw the chaos decision instead
		flip bool                  // fingerprint must differ from base
	}{
		{name: "unchanged host", flip: false},
		{name: "certificate renewal",
			st: func(s *EndpointState) { s.CertThumbprint = "bb02" }, flip: true},
		{name: "software update riding a renewal",
			st: func(s *EndpointState) { s.SoftwareVersion = "1.03.1" }, flip: true},
		{name: "chaos decision redrawn (kind)",
			b: func(b *chaos.Behavior) { b.Kind = chaos.KindFlap }, flip: true},
		{name: "chaos decision redrawn (param)",
			b: func(b *chaos.Behavior) { b.Param = 18 }, flip: true},
		{name: "churn: host leaves",
			st: func(s *EndpointState) { s.Present = false }, flip: true},
		{name: "port scan no longer reaches host",
			st: func(s *EndpointState) { s.PortScanned = false }, flip: true},
		{name: "campaign seed change",
			ctx: func(c *Context) { c.Seed = 2021 }, flip: false},
		{name: "wave selection change",
			ctx: func(c *Context) { c.Waves = []int{7} }, flip: false},
		{name: "key-size probing toggled",
			ctx: func(c *Context) { c.TestKeySizes = false }, flip: false},
		{name: "noise probability change",
			ctx: func(c *Context) { c.NoiseProb = 2e-5 }, flip: false},
		{name: "population truncation change",
			ctx: func(c *Context) { c.MaxHosts = 61 }, flip: false},
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
				// A study row flips exactly when it redraws the decision.
				if redrawn := decisionOf(t, ctx, st) != decisionOf(t, baseContext(), st); redrawn != tc.flip {
					t.Fatalf("chaos decision redrawn=%v, want %v", redrawn, tc.flip)
				}
			}
			if tc.st != nil {
				tc.st(&st)
			}
			if tc.b != nil {
				// The fold of a decision NewPlan drew; the draw itself is
				// TestFingerprintChaosDecision's.
				drawn := chaos.Behavior{Kind: chaos.KindReset, Param: 17}
				redrawn := drawn
				tc.b(&redrawn)
				if flipped := fingerprint(st, drawn, true) != fingerprint(st, redrawn, true); flipped != tc.flip {
					t.Errorf("fingerprint flipped=%v, want %v", flipped, tc.flip)
				}
				return
			}
			got := fpOf(t, ctx, true, st)
			if flipped := got != base; flipped != tc.flip {
				t.Errorf("fingerprint flipped=%v, want %v", flipped, tc.flip)
			}
		})
	}
}

// decisionOf is the wave-1 chaos decision ctx's model draws for st.
func decisionOf(t *testing.T, ctx Context, st EndpointState) chaos.Behavior {
	t.Helper()
	m, err := chaos.ModelForProfile(ctx.ChaosProfile, ctx.ChaosSeed)
	if err != nil {
		t.Fatal(err)
	}
	ap := netip.MustParseAddrPort(st.Address)
	return m.ForWave(1).Behavior(ap.Addr().As4(), int(ap.Port()))
}

// TestFingerprintChaosDecision pins the chaos fold: NewPlan draws each
// present endpoint's (wave, host) decision from the study's model, so
// an address whose decision is redrawn between two waves — kind or
// parameter alone — flips its fingerprint, one whose decision repeats
// keeps it, and an absent endpoint, which the dial path never consults
// chaos for, folds no decision at all.
func TestFingerprintChaosDecision(t *testing.T) {
	ctx := baseContext()
	m, err := chaos.ModelForProfile(ctx.ChaosProfile, ctx.ChaosSeed)
	if err != nil {
		t.Fatal(err)
	}
	redrawn, paramOnly, repeated := 0, 0, 0
	for i := 0; i < 1024; i++ {
		st := baseState()
		st.Address = fmt.Sprintf("100.64.%d.%d:4840", i/256, i%256)
		ip := netip.MustParseAddrPort(st.Address).Addr().As4()
		b1, b2 := m.ForWave(1).Behavior(ip, 4840), m.ForWave(2).Behavior(ip, 4840)
		if flipped := fpAt(t, ctx, 1, true, st) != fpAt(t, ctx, 2, true, st); flipped != (b1 != b2) {
			t.Fatalf("%s: fingerprint flipped=%v for decisions %+v → %+v", st.Address, flipped, b1, b2)
		}
		switch {
		case b1 == b2:
			repeated++
		case b1.Kind == b2.Kind:
			paramOnly++
		default:
			redrawn++
		}
		absent := st
		absent.Present = false
		if fpAt(t, ctx, 1, true, absent) != fpAt(t, ctx, 2, true, absent) {
			t.Fatalf("%s: an absent endpoint folded a chaos decision", st.Address)
		}
	}
	if redrawn == 0 || paramOnly == 0 || repeated == 0 {
		t.Errorf("coverage too thin: %d redrawn, %d parameter-only, %d repeated", redrawn, paramOnly, repeated)
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
	ctx.ChaosProfile, ctx.ChaosSeed = "", 0 // no chaos redraw between the waves
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

// planWave fingerprints a world-scale population of 1,200 endpoints,
// diffs it against the prior wave's plan and answers Skip for every
// address: the work a delta wave spends before deciding which grabs to
// elide, and the operation BenchmarkWaveDiffPlan and
// TestWaveDiffPlanAllocBudget measure. skips counts the Skip answers
// that were yes.
func planWave() (op func(), skips *int) {
	const n = 1200
	ctx := baseContext()
	prevStates, curStates := benchStates(0, n), benchStates(1, n)
	prev := NewPlan(ctx, 0, false, prevStates)
	skips = new(int)
	return func() {
		d := NewPlan(ctx, 1, false, curStates).DiffFrom(prev)
		for _, st := range curStates {
			if d.Skip(st.Address) {
				*skips++
			}
		}
	}, skips
}

func BenchmarkWaveDiffPlan(b *testing.B) {
	op, skips := planWave()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	if *skips == 0 {
		b.Fatal("no skips planned — fixture changed everything")
	}
	b.ReportMetric(float64(*skips/b.N), "skips")
}

// TestWaveDiffPlanAllocBudget: planning a wave allocates at most 7
// objects (×1.25 + 2), O(endpoints) map inserts and nothing per byte.
func TestWaveDiffPlanAllocBudget(t *testing.T) {
	op, skips := planWave()
	if allocs := testing.AllocsPerRun(20, op); allocs > 7*1.25+2 {
		t.Errorf("planning a wave allocates %.1f objects, budget %.2f", allocs, 7*1.25+2)
	}
	if *skips == 0 {
		t.Error("no skips planned — fixture changed everything")
	}
}
