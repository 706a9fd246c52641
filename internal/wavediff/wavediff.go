// Package wavediff fingerprints per-endpoint wave state so delta
// campaigns can prove, without dialing, that a host's record bytes
// cannot have changed since the previous wave (DESIGN.md §10).
//
// The paper's longitudinal result is that most hosts are bit-identical
// week over week — only 84 of the study's certificates renew across
// eight waves. A wave's record for a host is a deterministic function
// of (campaign configuration, endpoint wave state): PR 4's
// deterministic handshakes and PR 5's pure-seeded materialization
// removed every other input. The configuration is one study for every
// plan of a campaign, so it cannot tell two waves of the campaign apart
// and the fingerprint leaves it out; what a plan was made for is named
// by study.Study.ID. A fingerprint therefore covers exactly
//
//   - the endpoint's wave-varying deployment state: presence, served
//     certificate (the renewal schedule), software version (renewal
//     waves may carry a software update), and whether the wave's port
//     scan reaches it;
//   - the (wave, host) chaos decision — kind and parameter — for
//     present hosts, so a chaos-affected host is never skipped unless
//     its adversarial behavior provably repeats;
//   - for reference-only endpoints (hosts the port scan cannot see),
//     whether the wave follows references at all: their records exist
//     only in following waves.
//
// Two waves assigning one address equal fingerprints guarantee a real
// grab would replay the identical exchange, so the prior record can be
// cloned and re-stamped instead. Any miss falls back to a real grab.
//
// The chaos decision is the study's, not the world's: NewPlan derives
// it from the study's chaos profile and seed, the model the campaign's
// own snapshots are built with.
package wavediff

import (
	"encoding/binary"
	"fmt"
	"net/netip"

	"repro/internal/chaos"
	"repro/internal/study"
)

// Context is the study under the name the fingerprint used when it
// digested the study.
//
//studyvet:api — bench/replay.go builds this literal
type Context = study.Study

// EndpointState is one endpoint's wave-varying deployment state, the
// per-host fingerprint input besides the chaos decision.
// deploy.World.WaveEndpointStates derives it from spec state alone — no
// server is built, no channel opened.
type EndpointState struct {
	// Address is the scan target ("ip:port"), the dataset's record key.
	Address string
	// Present reports whether the endpoint is deployed at the wave
	// (HostSpec.PresentAt / DiscoverySpec.Present — the churn
	// schedule).
	Present bool
	// PortScanned reports whether the wave's port scan can discover the
	// endpoint: standard port, inside the universe. False for hidden
	// hosts, which are reachable only through references.
	PortScanned bool
	// CertThumbprint identifies the certificate served at the wave
	// (renewals flip it at RenewalWave).
	CertThumbprint string
	// SoftwareVersion is the version the server reports at the wave
	// (renewals may carry a software update).
	SoftwareVersion string
}

// Plan assigns every spec endpoint of one wave its fingerprint.
type Plan struct {
	wave       int
	followRefs bool
	fps        map[string]uint64
}

// fnv64a parameters, restated locally like internal/chaos does: the
// fingerprint must stay a pure function with no imports that could
// drift.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

type hasher uint64

func (h *hasher) bytes(b []byte) {
	v := uint64(*h)
	for _, c := range b {
		v ^= uint64(c)
		v *= fnvPrime
	}
	*h = hasher(v)
}

func (h *hasher) str(s string) {
	// Length-prefix every string so field boundaries cannot alias
	// ("ab"+"c" vs "a"+"bc").
	h.u64(uint64(len(s)))
	v := uint64(*h)
	for i := 0; i < len(s); i++ {
		v ^= uint64(s[i])
		v *= fnvPrime
	}
	*h = hasher(v)
}

func (h *hasher) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.bytes(b[:])
}

func (h *hasher) bit(v bool) {
	if v {
		h.u64(1)
	} else {
		h.u64(0)
	}
}

// fingerprint digests one endpoint's wave state and chaos decision b.
// followRefs is folded in only for endpoints the port scan cannot
// discover: a reference-only host's record exists exactly when the wave
// follows references, while a port-scanned host's record bytes are
// independent of the flag.
func fingerprint(st EndpointState, b chaos.Behavior, followRefs bool) uint64 {
	h := hasher(fnvOffset)
	h.str(st.Address)
	h.bit(st.Present)
	h.bit(st.PortScanned)
	h.str(st.CertThumbprint)
	h.str(st.SoftwareVersion)
	h.u64(uint64(b.Kind))
	h.u64(uint64(b.Param))
	if !st.PortScanned {
		h.bit(followRefs)
	}
	return uint64(h)
}

// NewPlan fingerprints every endpoint of one wave. followRefs is the
// wave's reference-following flag (deploy.FollowReferencesFromWave).
// The study is read for its chaos model only: each present endpoint
// folds the (wave, host) decision of that model; the dial path consults
// chaos only for registered hosts (worldview serves noise and closed
// ports first), so an absent one folds the zero decision. Duplicate addresses (two spec endpoints
// sharing one target) fold into a single combined fingerprint, so a
// collision can only make the diff more conservative, never less.
//
// The study's chaos profile must be one chaos.ModelForProfile knows —
// a campaign resolves it before it plans — and every present address
// an "ip:port"; NewPlan panics otherwise.
func NewPlan(s study.Study, wave int, followRefs bool, states []EndpointState) *Plan {
	p := &Plan{
		wave:       wave,
		followRefs: followRefs,
		fps:        make(map[string]uint64, len(states)),
	}
	var wm chaos.WaveModel
	if s.ChaosProfile != "" {
		m, err := chaos.ModelForProfile(s.ChaosProfile, s.ChaosSeed)
		if err != nil {
			panic("wavediff: " + err.Error())
		}
		wm = m.ForWave(wave)
	}
	for _, st := range states {
		var b chaos.Behavior
		if st.Present && s.ChaosProfile != "" {
			ap, err := netip.ParseAddrPort(st.Address)
			if err != nil {
				panic(fmt.Sprintf("wavediff: endpoint address: %v", err))
			}
			b = wm.Behavior(ap.Addr().As4(), int(ap.Port()))
		}
		fp := fingerprint(st, b, followRefs)
		if prev, ok := p.fps[st.Address]; ok {
			h := hasher(fnvOffset)
			h.u64(prev)
			h.u64(fp)
			fp = uint64(h)
		}
		p.fps[st.Address] = fp
	}
	return p
}

// Wave returns the wave index the plan fingerprints.
func (p *Plan) Wave() int { return p.wave }

// FollowReferences reports whether the planned wave follows references.
func (p *Plan) FollowReferences() bool { return p.followRefs }

// Fingerprint returns an address's fingerprint and whether the address
// is a planned endpoint at all.
//
//studyvet:api — the fingerprint sensitivity gates read plans through it
func (p *Plan) Fingerprint(addr string) (uint64, bool) {
	fp, ok := p.fps[addr]
	return fp, ok
}

// Delta is the diff of one wave's plan against a prior wave's: the
// skip/grab decision per address.
type Delta struct {
	prev, cur *Plan
}

// DiffFrom diffs the plan against a prior wave's plan.
func (p *Plan) DiffFrom(prev *Plan) *Delta {
	return &Delta{prev: prev, cur: p}
}

// Skip reports whether the address's record is provably unchanged
// since the prior wave — its grab may be skipped and the prior record
// cloned. Addresses outside both plans are always skippable: they are
// port noise, which is deterministic, wave-independent and chaos-free
// by construction (worldview serves noise before the chaos layer).
// An address entering or leaving the plan set — or whose fingerprint
// moved at all — must be re-grabbed.
func (d *Delta) Skip(addr string) bool {
	pf, pok := d.prev.fps[addr]
	cf, cok := d.cur.fps[addr]
	if !pok && !cok {
		return true
	}
	return pok && cok && pf == cf
}

// Misses counts the planned addresses whose fingerprint differs from
// the prior wave's (including additions and removals) — the upper
// bound on real port-scan grabs a delta wave performs.
func (d *Delta) Misses() int {
	n := 0
	for addr, cf := range d.cur.fps {
		if pf, ok := d.prev.fps[addr]; !ok || pf != cf {
			n++
		}
	}
	for addr := range d.prev.fps {
		if _, ok := d.cur.fps[addr]; !ok {
			n++
		}
	}
	return n
}
