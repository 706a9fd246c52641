package deploy

import (
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"net/netip"
	"testing"

	"repro/internal/chaos"
	"repro/internal/uacert"
	"repro/internal/wavediff"
)

// TestWaveEndpointStatesFingerprints is the deploy-level sensitivity
// gate: over a real materialized world, an endpoint's fingerprint must
// flip between consecutive waves exactly when the spec schedules a
// record-shaping change — a certificate renewal, a churn event
// (presence change), the follow-references switch-on for hidden
// hosts, or a redrawn (wave, host) chaos decision — and must stay
// bit-stable otherwise. The check is bidirectional over every endpoint
// and every wave pair, so WaveEndpointStates and the plan's chaos fold
// can neither miss a change (unsound skip) nor invent one (lost
// speedup) without failing here.
func TestWaveEndpointStatesFingerprints(t *testing.T) {
	spec := buildSpec(t)
	// Materialize enough of the population to include at least one
	// renewal host and one churn host (plus slack for stable ones).
	maxHosts := 60
	haveRenewal, haveChurn := false, false
	for i := range spec.Hosts {
		h := &spec.Hosts[i]
		churns := false
		for w := 1; w < len(WaveDates); w++ {
			if h.PresentAt(w) != h.PresentAt(w-1) {
				churns = true
			}
		}
		if h.Cert.RenewalWave > 0 && !haveRenewal {
			haveRenewal = true
			maxHosts = max(maxHosts, i+1)
		}
		if churns && !haveChurn {
			haveChurn = true
			maxHosts = max(maxHosts, i+1)
		}
		if haveRenewal && haveChurn {
			break
		}
	}
	if !haveRenewal || !haveChurn {
		t.Fatalf("spec schedules no renewal (%v) or churn (%v) host", haveRenewal, haveChurn)
	}
	world, err := Materialize(spec, Options{
		TestKeySizes: true,
		MaxHosts:     maxHosts,
		NoiseProb:    1e-5,
	})
	if err != nil {
		t.Fatal(err)
	}

	hostBy := make(map[string]*HostSpec)
	for i := range spec.Hosts[:maxHosts] {
		h := &spec.Hosts[i]
		hostBy[fmt.Sprintf("%s:%d", h.IP, h.Port)] = h
	}
	discBy := make(map[string]*DiscoverySpec)
	for i := range spec.Discovery {
		d := &spec.Discovery[i]
		discBy[fmt.Sprintf("%s:%d", d.IP, 4840)] = d
	}

	model, err := chaos.ModelForProfile("mixed", 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, chaosOn := range []bool{false, true} {
		name := "polite"
		if chaosOn {
			name = "chaos"
		}
		t.Run(name, func(t *testing.T) {
			ctx := wavediff.Context{Seed: spec.Seed, TestKeySizes: true,
				NoiseProb: 1e-5, MaxHosts: maxHosts}
			if chaosOn {
				ctx.ChaosProfile = "mixed"
				ctx.ChaosSeed = 7
			}
			plans := make([]*wavediff.Plan, len(WaveDates))
			states := make([][]wavediff.EndpointState, len(WaveDates))
			for w := range WaveDates {
				if states[w], err = world.WaveEndpointStates(w); err != nil {
					t.Fatal(err)
				}
				plans[w] = wavediff.NewPlan(ctx, w, w >= FollowReferencesFromWave, states[w])
			}

			// decision mirrors the dial path's chaos consultation: only
			// present endpoints draw a behavior.
			decision := func(w int, ip netip.Addr, port int, present bool) chaos.Behavior {
				if !chaosOn || !present {
					return chaos.Behavior{}
				}
				return model.ForWave(w).Behavior(ip.As4(), port)
			}
			flips, stables, renewalFlips, churnFlips := 0, 0, 0, 0
			for w := 1; w < len(WaveDates); w++ {
				for _, st := range states[w] {
					prev, pok := plans[w-1].Fingerprint(st.Address)
					cur, cok := plans[w].Fingerprint(st.Address)
					if !pok || !cok {
						t.Fatalf("wave %d: %s missing from a plan", w, st.Address)
					}
					ap := netip.MustParseAddrPort(st.Address)
					var renewal, churn, presentPrev bool
					if h := hostBy[st.Address]; h != nil {
						renewal = h.Cert.RenewalWave == w
						churn = h.PresentAt(w) != h.PresentAt(w-1)
						presentPrev = h.PresentAt(w - 1)
					} else if d := discBy[st.Address]; d != nil {
						churn = d.Present[w] != d.Present[w-1]
						presentPrev = d.Present[w-1]
					} else {
						t.Fatalf("wave %d: %s in no spec", w, st.Address)
					}
					followSwitch := !st.PortScanned && w == FollowReferencesFromWave
					redraw := decision(w, ap.Addr(), int(ap.Port()), st.Present) !=
						decision(w-1, ap.Addr(), int(ap.Port()), presentPrev)
					want := renewal || churn || followSwitch || redraw
					if got := prev != cur; got != want {
						t.Errorf("wave %d %s: fingerprint flipped=%v, want %v (renewal=%v churn=%v follow=%v redraw=%v)",
							w, st.Address, got, want, renewal, churn, followSwitch, redraw)
					}
					if prev != cur {
						flips++
					} else {
						stables++
					}
					if renewal {
						renewalFlips++
					}
					if churn {
						churnFlips++
					}
				}
			}
			if renewalFlips == 0 || churnFlips == 0 || flips == 0 || stables == 0 {
				t.Errorf("coverage too thin: renewals=%d churns=%d flips=%d stables=%d",
					renewalFlips, churnFlips, flips, stables)
			}
		})
	}
}

// TestWaveEndpointStatesRange pins the wave range validation.
func TestWaveEndpointStatesRange(t *testing.T) {
	spec := buildSpec(t)
	world, err := Materialize(spec, Options{TestKeySizes: true, MaxHosts: 5, NoiseProb: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{-1, len(WaveDates)} {
		if _, err := world.WaveEndpointStates(w); err == nil {
			t.Errorf("wave %d: no range error", w)
		}
	}
}

// TestWorldIdentityDerivedOnce pins what Materialize derives once per
// world against the values it replaced: every certificate's stored
// thumbprint (host, prior, cluster, discovery) is the SHA-1 of its DER,
// and in all eight waves every WaveEndpointStates address is the
// fmt.Sprintf("%s:%d") string and every thumbprint the SHA-1 hex the
// wavediff fingerprints were keyed by, so delta skips do not move.
func TestWorldIdentityDerivedOnce(t *testing.T) {
	spec := buildSpec(t)
	world, err := Materialize(spec, Options{TestKeySizes: true, NoiseProb: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	checkCert := func(role string, i int, c *uacert.Certificate) {
		t.Helper()
		sum := sha1.Sum(c.Raw)
		if c.Thumbprint() != sum || c.ThumbprintHex() != hex.EncodeToString(sum[:]) {
			t.Errorf("%s %d: stored thumbprint %s is not the SHA-1 of its DER %x", role, i, c.ThumbprintHex(), sum)
		}
	}
	priors, clustered := 0, 0
	for i, wh := range world.hosts {
		role := "host"
		if wh.spec.Cert.ReuseCluster >= 0 {
			role = "cluster"
			clustered++
		}
		checkCert(role, i, wh.cert)
		if wh.prior != nil {
			checkCert("prior", i, wh.prior)
			priors++
		}
	}
	for i, wd := range world.discovery {
		checkCert("discovery", i, wd.cert)
	}
	if priors == 0 || clustered == 0 || len(world.discovery) == 0 {
		t.Fatalf("world holds %d prior, %d cluster and %d discovery certificates; want some of each",
			priors, clustered, len(world.discovery))
	}

	for wave := range WaveDates {
		states, err := world.WaveEndpointStates(wave)
		if err != nil {
			t.Fatal(err)
		}
		if len(states) != len(world.hosts)+len(world.discovery) {
			t.Fatalf("wave %d: %d states for %d hosts and %d discovery servers",
				wave, len(states), len(world.hosts), len(world.discovery))
		}
		for i, st := range states {
			var want string
			var cert *uacert.Certificate
			if i < len(world.hosts) {
				wh := world.hosts[i]
				want = fmt.Sprintf("%s:%d", wh.spec.IP, wh.spec.Port)
				cert = wh.certAt(wave)
			} else {
				wd := world.discovery[i-len(world.hosts)]
				want = fmt.Sprintf("%s:%d", wd.spec.IP, 4840)
				cert = wd.cert
			}
			if st.Address != want {
				t.Errorf("wave %d endpoint %d: address %q, want %q", wave, i, st.Address, want)
			}
			if sum := sha1.Sum(cert.Raw); st.CertThumbprint != hex.EncodeToString(sum[:]) {
				t.Errorf("wave %d endpoint %d: thumbprint %s, want the SHA-1 of its DER %x", wave, i, st.CertThumbprint, sum)
			}
		}
	}
}

// campaignEndpointStates reads the endpoint states of all eight waves
// of the whole test-key world, one campaign's planning input and the
// operation BenchmarkWaveEndpointStates and
// TestWaveEndpointStatesAllocBudget measure.
func campaignEndpointStates(tb testing.TB) func() {
	world, err := Materialize(buildSpec(tb), Options{TestKeySizes: true})
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		for wave := range WaveDates {
			if _, err := world.WaveEndpointStates(wave); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

func BenchmarkWaveEndpointStates(b *testing.B) {
	op := campaignEndpointStates(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestWaveEndpointStatesAllocBudget: with each certificate's thumbprint
// and each host's address derived once per world, a campaign's eight
// waves of endpoint states allocate at most 8 objects (×1.25 + 2), a
// state slice per wave and nothing per endpoint.
func TestWaveEndpointStatesAllocBudget(t *testing.T) {
	if allocs := testing.AllocsPerRun(5, campaignEndpointStates(t)); allocs > 8*1.25+2 {
		t.Errorf("a campaign's endpoint states allocate %.1f objects, budget %.0f", allocs, 8*1.25+2)
	}
}
