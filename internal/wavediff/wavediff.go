// Package wavediff fingerprints per-endpoint wave state so delta
// campaigns can prove, without dialing, that a host's record bytes
// cannot have changed since the previous wave (DESIGN.md §10).
//
// The paper's longitudinal result is that most hosts are bit-identical
// week over week — only 84 of the study's certificates renew across
// eight waves. A wave's record for a host is a deterministic function
// of (campaign configuration, endpoint wave state): PR 4's
// deterministic handshakes and PR 5's pure-seeded materialization
// removed every other input. A fingerprint therefore covers exactly
//
//   - the campaign context that shapes record bytes (seed, key sizes,
//     noise probability, population truncation, chaos profile/seed) —
//     the same fields fabric.CampaignSpec ships to workers;
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
package wavediff

import (
	"encoding/binary"
	"math"
)

// Context is the campaign-level fingerprint input: every configuration
// field that shapes record bytes. It mirrors the record-shaping subset
// of fabric.CampaignSpec, so sharded workers agreeing on a spec agree
// on fingerprints too. Observability and scheduling knobs (telemetry,
// worker counts, queue sizes) are deliberately absent — they never
// change record content (the byte-identity gates pin that).
type Context struct {
	Seed         int64
	TestKeySizes bool
	NoiseProb    float64
	MaxHosts     int
	ChaosProfile string
	ChaosSeed    int64
}

// EndpointState is one endpoint's wave-varying deployment state, the
// per-host fingerprint input. deploy.World.WaveEndpointStates derives
// it from spec state alone — no server is built, no channel opened.
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
	// ChaosKind/ChaosParam are the (wave, host) chaos decision for
	// present endpoints (zero when chaos is off or the host is absent —
	// the dial path never consults chaos for absent hosts).
	ChaosKind  uint8
	ChaosParam uint64
}

// Plan assigns every spec endpoint of one wave its fingerprint.
type Plan struct {
	wave       int
	followRefs bool
	ctxSum     uint64
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

// contextSum digests the campaign context once per plan.
func contextSum(ctx Context) uint64 {
	h := hasher(fnvOffset)
	h.str("wavediff-context-v1")
	h.u64(uint64(ctx.Seed))
	h.bit(ctx.TestKeySizes)
	h.u64(math.Float64bits(ctx.NoiseProb))
	h.u64(uint64(ctx.MaxHosts))
	h.str(ctx.ChaosProfile)
	h.u64(uint64(ctx.ChaosSeed))
	return uint64(h)
}

// fingerprint digests one endpoint's wave state under the campaign
// context. followRefs is folded in only for endpoints the port scan
// cannot discover: a reference-only host's record exists exactly when
// the wave follows references, while a port-scanned host's record
// bytes are independent of the flag.
func fingerprint(ctxSum uint64, st EndpointState, followRefs bool) uint64 {
	h := hasher(fnvOffset)
	h.u64(ctxSum)
	h.str(st.Address)
	h.bit(st.Present)
	h.bit(st.PortScanned)
	h.str(st.CertThumbprint)
	h.str(st.SoftwareVersion)
	h.u64(uint64(st.ChaosKind))
	h.u64(st.ChaosParam)
	if !st.PortScanned {
		h.bit(followRefs)
	}
	return uint64(h)
}

// NewPlan fingerprints every endpoint of one wave. followRefs is the
// wave's reference-following flag (deploy.FollowReferencesFromWave).
// Duplicate addresses (two spec endpoints sharing one target) fold
// into a single combined fingerprint, so a collision can only make the
// diff more conservative, never less.
func NewPlan(ctx Context, wave int, followRefs bool, states []EndpointState) *Plan {
	p := &Plan{
		wave:       wave,
		followRefs: followRefs,
		ctxSum:     contextSum(ctx),
		fps:        make(map[string]uint64, len(states)),
	}
	for _, st := range states {
		fp := fingerprint(p.ctxSum, st, followRefs)
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
