// Package deploy generates the simulated deployment population whose
// measured statistics reproduce the paper's published numbers: Figure 2
// (hosts over time by manufacturer), Figure 3 (security modes/policies),
// Figure 4 (certificate/policy conformance), Figure 5 (certificate
// reuse), Figures 6/7 and Table 2 (authentication and exposure), and the
// longitudinal observations of §5.5.
//
// The generator is split into a pure-arithmetic Spec (fast, fully
// deterministic, exhaustively tested against the paper's marginals) and
// a Materialize step that turns the spec into running OPC UA servers on
// a simulated network.
package deploy

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/addrspace"
	"repro/internal/uacert"
	"repro/internal/uamsg"
)

// Wave dates of the study (Figure 2).
var WaveDates = []time.Time{
	time.Date(2020, 2, 9, 0, 0, 0, 0, time.UTC),
	time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC),
	time.Date(2020, 4, 5, 0, 0, 0, 0, time.UTC),
	time.Date(2020, 5, 4, 0, 0, 0, 0, time.UTC),
	time.Date(2020, 6, 7, 0, 0, 0, 0, time.UTC),
	time.Date(2020, 7, 5, 0, 0, 0, 0, time.UTC),
	time.Date(2020, 8, 2, 0, 0, 0, 0, time.UTC),
	time.Date(2020, 8, 30, 0, 0, 0, 0, time.UTC),
}

// FollowReferencesFromWave is the first wave index with follow-reference
// scanning (2020-05-04 per §4).
const FollowReferencesFromWave = 3

// Per-wave found-host targets. Servers grow marginally (mostly because
// the reuse-cluster manufacturer keeps deploying devices, §5.5, and the
// scanner starts following references at wave 3); discovery servers
// fluctuate; totals stay within the paper's 1761–2069 range.
var (
	serversFoundByWave   = []int{952, 970, 988, 1031, 1049, 1067, 1101, 1114}
	discoveryByWave      = []int{809, 825, 782, 1038, 851, 803, 849, 807}
	hiddenServers        = 25 // reachable only via references / non-default ports
	reuseClusterPresence = []int{263, 281, 299, 317, 335, 353, 387, 400}
)

// NumServers is the paper's non-discovery server population (§4).
const NumServers = 1114

// ModeSet is the set of advertised security modes as a bit mask.
type ModeSet byte

// Mode bits.
const (
	ModeN ModeSet = 1 << iota // None
	ModeS                     // Sign
	ModeE                     // SignAndEncrypt
)

// Has reports whether the set contains the bit.
func (m ModeSet) Has(b ModeSet) bool { return m&b != 0 }

// group is one (policy set) archetype with its population count, derived
// from Figure 3's support/least/most marginals (see DESIGN.md).
type group struct {
	name     string
	policies []string // abbrevs in rank order
	count    int
}

// groupTable is the unique policy-set decomposition consistent with
// Figure 3 and Figure 4 (the Figure 4 conformance targets pin the
// D1∩S2 overlap to 479 hosts).
var groupTable = []group{
	{"A", []string{"N"}, 270},
	{"B", []string{"N", "D1"}, 13},
	{"Bl", []string{"D1"}, 11},
	{"Bk", []string{"D1", "D2"}, 2},
	{"C", []string{"N", "D1", "D2"}, 210},
	{"Cc", []string{"D2"}, 44},
	{"Cm", []string{"D2", "S2"}, 6},
	{"E", []string{"N", "D1", "D2", "S2"}, 469},
	{"Ep", []string{"N", "D1", "D2", "S1", "S2"}, 10},
	{"G", []string{"N", "D2", "S2"}, 15},
	{"S", []string{"N", "S2"}, 42},
	{"I", []string{"N", "D2", "S2", "S3"}, 6},
	{"N2", []string{"S2"}, 14},
	{"O", []string{"S2", "S3"}, 2},
}

// CertClass is a certificate's signature hash and key length, the two
// dimensions of Figure 4.
type CertClass struct {
	Hash uacert.HashAlg
	Bits int
}

// AccessOutcome is the Table 2 column a host lands in.
type AccessOutcome int

// Outcomes.
const (
	AccessibleProduction AccessOutcome = iota
	AccessibleTest
	AccessibleUnclassified
	RejectedAuth // no anonymous access or session failure
	RejectedSC   // aborts secure channel on our self-signed certificate
)

// String implements fmt.Stringer.
func (a AccessOutcome) String() string {
	switch a {
	case AccessibleProduction:
		return "accessible/production"
	case AccessibleTest:
		return "accessible/test"
	case AccessibleUnclassified:
		return "accessible/unclassified"
	case RejectedAuth:
		return "rejected/authentication"
	case RejectedSC:
		return "rejected/secure-channel"
	default:
		return "unknown"
	}
}

// authRow is one Table 2 row: a token-type combination with its
// per-column counts (production, test, unclassified, auth, sc).
type authRow struct {
	tokens []uamsg.UserTokenType
	cells  [5]int
}

func toks(ts ...uamsg.UserTokenType) []uamsg.UserTokenType { return ts }

// authTable reproduces Table 2 exactly, plus one synthetic cert-only row
// for the 3 hosts the paper's table omits ("unused combinations ...
// omitted"; the totals row requires them).
var authTable = []authRow{
	{toks(uamsg.UserTokenAnonymous), [5]int{116, 8, 5, 9, 1}},
	{toks(uamsg.UserTokenUserName), [5]int{0, 0, 0, 464, 21}},
	{toks(uamsg.UserTokenAnonymous, uamsg.UserTokenUserName), [5]int{168, 20, 134, 38, 5}},
	{toks(uamsg.UserTokenUserName, uamsg.UserTokenCertificate), [5]int{0, 0, 0, 4, 7}},
	{toks(uamsg.UserTokenAnonymous, uamsg.UserTokenUserName, uamsg.UserTokenCertificate), [5]int{11, 14, 17, 17, 3}},
	{toks(uamsg.UserTokenUserName, uamsg.UserTokenCertificate, uamsg.UserTokenIssuedToken), [5]int{0, 0, 0, 0, 43}},
	{toks(uamsg.UserTokenAnonymous, uamsg.UserTokenUserName, uamsg.UserTokenCertificate, uamsg.UserTokenIssuedToken), [5]int{0, 0, 0, 6, 0}},
	{toks(uamsg.UserTokenCertificate), [5]int{0, 0, 0, 3, 0}},
}

// Manufacturer populations at the last wave (Figure 2 plus §B.1.1's
// "one manufacturer with all devices on None only").
type Manufacturer struct {
	Name     string
	URI      string // ApplicationURI prefix
	Count    int
	NoneOnly bool // all devices in group A
}

var manufacturerTable = []Manufacturer{
	{Name: "Bachmann", URI: "urn:bachmann.info:M1", Count: 406},
	{Name: "Beckhoff", URI: "urn:beckhoff.com:TcOpcUaServer", Count: 112},
	{Name: "Wago", URI: "urn:wago.com:codesys", Count: 78},
	{Name: "Siemens", URI: "urn:siemens.com:S7", Count: 120},
	{Name: "Phoenix Contact", URI: "urn:phoenixcontact.com:AXC", Count: 90},
	{Name: "B&R", URI: "urn:br-automation.com:X20", Count: 80},
	{Name: "Weidmueller", URI: "urn:weidmueller.com:u-control", Count: 60},
	{Name: "Softing", URI: "urn:softing.com:dataFEED", Count: 50},
	{Name: "Unified Automation", URI: "urn:unifiedautomation.com:UaServer", Count: 40},
	{Name: "Prosys", URI: "urn:prosysopc.com:SimServer", Count: 30},
	{Name: "SigmaPLC", URI: "urn:sigmaplc.example:PLC", Count: 15, NoneOnly: true},
	{Name: "other", URI: "urn:generic.example:OPCUA", Count: 33},
}

// Certificate reuse clusters (Figure 5): host count and AS spread. The
// first, fourth and fifth clusters belong to the same manufacturer
// (Bachmann here), reproducing §5.3's 385/9/6 observation.
type reuseCluster struct {
	size  int
	ases  int
	group string // host group the cluster members come from
	class CertClass
}

var reuseClusters = []reuseCluster{
	{385, 24, "E", CertClass{uacert.HashSHA1, 2048}},
	{32, 2, "C", CertClass{uacert.HashSHA1, 2048}},
	{12, 1, "A", CertClass{uacert.HashSHA1, 2048}},
	{9, 8, "Ep", CertClass{uacert.HashSHA1, 2048}},
	{6, 5, "E", CertClass{uacert.HashSHA1, 2048}},
	{5, 2, "C", CertClass{uacert.HashSHA1, 2048}},
	{4, 1, "A", CertClass{uacert.HashSHA1, 2048}},
	{3, 1, "A", CertClass{uacert.HashSHA1, 2048}},
	{3, 1, "A", CertClass{uacert.HashSHA1, 2048}},
}

// CertSpec describes a host's certificate across the campaign.
type CertSpec struct {
	Class CertClass
	// ReuseCluster is -1 for a per-host certificate, otherwise the
	// cluster index sharing one certificate and key.
	ReuseCluster int
	NotBefore    time.Time
	// RenewalWave > 0 replaces the certificate at that wave index; the
	// pre-renewal certificate has PriorClass and PriorNotBefore.
	RenewalWave    int
	PriorClass     CertClass
	PriorNotBefore time.Time
	SoftwareUpdate bool // renewal coincides with a SoftwareVersion bump
}

// Exposure is the anonymous address-space exposure of one host
// (Figure 7 input).
type Exposure struct {
	Variables int
	Methods   int
	ReadFrac  float64
	WriteFrac float64
	ExecFrac  float64
}

// HostSpec fully describes one server in the population.
type HostSpec struct {
	Index        int
	IP           netip.Addr
	Port         int
	ASN          int
	Manufacturer string
	AppURI       string

	Group    string
	Policies []string // policy abbrevs
	Modes    ModeSet

	Tokens  []uamsg.UserTokenType
	Outcome AccessOutcome

	Profile  addrspace.Profile
	Exposure Exposure

	Cert CertSpec

	// RejectClientCert / RejectSessions mirror uaserver.Quirks.
	RejectClientCert bool
	RejectSessions   bool

	// PresentFrom / PresentUntil bound the host's lifetime in wave
	// indexes (inclusive; PresentUntil -1 = until the end).
	PresentFrom  int
	PresentUntil int

	// Hidden hosts are not in the port-scanned universe; they are
	// discovered via references from discovery servers (wave ≥ 3).
	Hidden bool

	SoftwareVersion string
}

// Anonymous reports whether the host advertises anonymous access.
func (h *HostSpec) Anonymous() bool {
	for _, t := range h.Tokens {
		if t == uamsg.UserTokenAnonymous {
			return true
		}
	}
	return false
}

// SecureOnly reports whether the host offers no None mode.
func (h *HostSpec) SecureOnly() bool { return !h.Modes.Has(ModeN) }

// PresentAt reports whether the host exists at the wave.
func (h *HostSpec) PresentAt(wave int) bool {
	if wave < h.PresentFrom {
		return false
	}
	return h.PresentUntil < 0 || wave <= h.PresentUntil
}

// DiscoverySpec is one discovery server.
type DiscoverySpec struct {
	Index   int
	IP      netip.Addr
	ASN     int
	AppURI  string
	Present []bool // per wave
	// Announces lists hidden-server indexes this discovery server
	// references.
	Announces []int
}

// Spec is the full deterministic world description.
type Spec struct {
	Hosts     []HostSpec
	Discovery []DiscoverySpec
	Seed      int64
}

// BuildSpec generates the complete world deterministically from a seed.
func BuildSpec(seed int64) (*Spec, error) {
	rng := rand.New(rand.NewSource(seed))
	spec := &Spec{Seed: seed}

	hosts, err := buildHostArchetypes()
	if err != nil {
		return nil, err
	}
	if err := assignAuth(hosts); err != nil {
		return nil, err
	}
	if err := assignCerts(hosts, rng); err != nil {
		return nil, err
	}
	assignManufacturers(hosts)
	assignExposure(hosts, rng)
	if err := assignPresence(hosts); err != nil {
		return nil, err
	}
	assignRenewals(hosts, rng)
	assignAddresses(hosts)
	spec.Hosts = hosts
	spec.Discovery = buildDiscovery(hosts)
	return spec, nil
}

// buildHostArchetypes expands the group table into hosts with policy
// sets and mode sets matching Figure 3's joint distribution.
func buildHostArchetypes() ([]HostSpec, error) {
	var hosts []HostSpec
	idx := 0
	for _, g := range groupTable {
		for i := 0; i < g.count; i++ {
			hosts = append(hosts, HostSpec{
				Index:        idx,
				Group:        g.name,
				Policies:     g.policies,
				PresentUntil: -1,
			})
			idx++
		}
	}
	if len(hosts) != NumServers {
		return nil, fmt.Errorf("deploy: group table sums to %d hosts", len(hosts))
	}

	// Mode sets. Hosts with only policy None advertise mode None.
	// Secure-policy hosts without None split into {E}×51 and {S,E}×28;
	// hosts with None and secure policies split into {N,S}×1,
	// {N,E}×205 and {N,S,E}×559 (Figure 3 left).
	secureOnlyE, secureOnlySE := 51, 28
	withNS, withNE := 1, 205
	for i := range hosts {
		h := &hosts[i]
		hasN := false
		for _, p := range h.Policies {
			if p == "N" {
				hasN = true
				break
			}
		}
		hasSecure := len(h.Policies) > 1 || h.Policies[0] != "N"
		switch {
		case hasN && !hasSecure:
			h.Modes = ModeN
		case !hasN:
			if secureOnlyE > 0 {
				h.Modes = ModeE
				secureOnlyE--
			} else if secureOnlySE > 0 {
				h.Modes = ModeS | ModeE
				secureOnlySE--
			} else {
				return nil, fmt.Errorf("deploy: secure-only mode budget exhausted at host %d", i)
			}
		default:
			if withNS > 0 {
				h.Modes = ModeN | ModeS
				withNS--
			} else if withNE > 0 {
				h.Modes = ModeN | ModeE
				withNE--
			} else {
				h.Modes = ModeN | ModeS | ModeE
			}
		}
	}
	return hosts, nil
}

// assignAuth distributes Table 2 cells over the hosts, honouring:
// secure-channel-rejecting cells need hosts with secure modes; eight of
// the nine anonymous SC-rejected hosts are secure-only (the ninth also
// rejects sessions); all 79 secure-only hosts advertise anonymous
// access (71 of them end up accessible, §5.4's "71 servers that
// otherwise force clients to communicate securely").
func assignAuth(hosts []HostSpec) error {
	type cellRef struct {
		row     int
		outcome AccessOutcome
	}
	// Remaining capacity per (row, outcome).
	remaining := make(map[cellRef]int)
	for r, row := range authTable {
		for c, n := range row.cells {
			if n > 0 {
				remaining[cellRef{r, AccessOutcome(c)}] = n
			}
		}
	}
	take := func(r int, o AccessOutcome) bool {
		ref := cellRef{r, o}
		if remaining[ref] > 0 {
			remaining[ref]--
			return true
		}
		return false
	}
	anonRows := []int{0, 2, 4, 6} // rows advertising anonymous
	assign := func(h *HostSpec, r int, o AccessOutcome) {
		h.Tokens = authTable[r].tokens
		h.Outcome = o
		if o == RejectedSC {
			h.RejectClientCert = true
		}
		if o == RejectedAuth && h.Anonymous() {
			// Anonymous advertised but sessions fail (§5.4's faulty
			// endpoint configurations).
			h.RejectSessions = true
		}
	}

	// Pass 1: secure-only hosts. Eight into anonymous SC cells, the
	// remaining 71 into anonymous accessible cells.
	scCellsLeft := 8
	for i := range hosts {
		h := &hosts[i]
		if !h.SecureOnly() {
			continue
		}
		placed := false
		if scCellsLeft > 0 {
			for _, r := range anonRows {
				if take(r, RejectedSC) {
					assign(h, r, RejectedSC)
					scCellsLeft--
					placed = true
					break
				}
			}
		}
		if !placed {
			for _, r := range anonRows {
				for _, o := range []AccessOutcome{AccessibleProduction, AccessibleTest, AccessibleUnclassified} {
					if take(r, o) {
						assign(h, r, o)
						placed = true
						break
					}
				}
				if placed {
					break
				}
			}
		}
		if !placed {
			return fmt.Errorf("deploy: no cell for secure-only host %d", i)
		}
	}
	// The ninth anonymous SC cell goes to a host that also offers None
	// but rejects both our certificate and sessions.
	ninthPlaced := false
	for i := range hosts {
		h := &hosts[i]
		if h.Tokens != nil || h.SecureOnly() || h.Group == "A" {
			continue
		}
		for _, r := range anonRows {
			if take(r, RejectedSC) {
				assign(h, r, RejectedSC)
				h.RejectSessions = true
				ninthPlaced = true
				break
			}
		}
		if ninthPlaced {
			break
		}
	}
	if !ninthPlaced {
		return fmt.Errorf("deploy: could not place ninth anonymous SC host")
	}

	// Pass 2: remaining SC cells need hosts with secure modes (not A).
	for i := range hosts {
		h := &hosts[i]
		if h.Tokens != nil || h.Group == "A" {
			continue
		}
		for r := range authTable {
			if take(r, RejectedSC) {
				assign(h, r, RejectedSC)
				break
			}
		}
	}
	// Pass 3: everything else in deterministic order, interleaving
	// groups across cells so manufacturers and deficits mix (Figure 8).
	for i := range hosts {
		h := &hosts[i]
		if h.Tokens != nil {
			continue
		}
		placed := false
		for r := range authTable {
			for _, o := range []AccessOutcome{
				AccessibleProduction, AccessibleTest, AccessibleUnclassified, RejectedAuth,
			} {
				if take(r, o) {
					assign(h, r, o)
					placed = true
					break
				}
			}
			if placed {
				break
			}
		}
		if !placed {
			return fmt.Errorf("deploy: no auth cell left for host %d", i)
		}
	}
	for ref, n := range remaining {
		if n != 0 {
			return fmt.Errorf("deploy: cell %+v has %d unassigned slots", ref, n)
		}
	}
	// Address-space profile follows the outcome.
	for i := range hosts {
		h := &hosts[i]
		switch h.Outcome {
		case AccessibleProduction:
			h.Profile = addrspace.ProfileProduction
		case AccessibleTest:
			h.Profile = addrspace.ProfileTest
		case AccessibleUnclassified:
			h.Profile = addrspace.ProfileBare
		default:
			// Not traversed; give them realistic content anyway.
			if h.Index%4 == 0 {
				h.Profile = addrspace.ProfileBare
			} else {
				h.Profile = addrspace.ProfileProduction
			}
		}
	}
	return nil
}
