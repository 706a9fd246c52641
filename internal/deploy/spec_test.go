package deploy

import (
	"testing"
	"time"

	"repro/internal/uacert"
	"repro/internal/uamsg"
	"repro/internal/uapolicy"
)

func buildSpec(t testing.TB) *Spec {
	t.Helper()
	spec, err := BuildSpec(2020)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSpecHostCount(t *testing.T) {
	spec := buildSpec(t)
	if len(spec.Hosts) != NumServers {
		t.Fatalf("hosts = %d, want %d", len(spec.Hosts), NumServers)
	}
}

// TestSpecFigure3Modes verifies support/least/most for security modes.
func TestSpecFigure3Modes(t *testing.T) {
	spec := buildSpec(t)
	support := map[ModeSet]int{}
	least := map[ModeSet]int{}
	most := map[ModeSet]int{}
	for _, h := range spec.Hosts {
		for _, m := range []ModeSet{ModeN, ModeS, ModeE} {
			if h.Modes.Has(m) {
				support[m]++
			}
		}
		switch {
		case h.Modes.Has(ModeN):
			least[ModeN]++
		case h.Modes.Has(ModeS):
			least[ModeS]++
		default:
			least[ModeE]++
		}
		switch {
		case h.Modes.Has(ModeE):
			most[ModeE]++
		case h.Modes.Has(ModeS):
			most[ModeS]++
		default:
			most[ModeN]++
		}
	}
	// Figure 3 left: support N=1035 S=588 S&E=843; least 1035/28/51;
	// most 270/1/843.
	if support[ModeN] != 1035 || support[ModeS] != 588 || support[ModeE] != 843 {
		t.Errorf("support = %v", support)
	}
	if least[ModeN] != 1035 || least[ModeS] != 28 || least[ModeE] != 51 {
		t.Errorf("least = %v", least)
	}
	if most[ModeN] != 270 || most[ModeS] != 1 || most[ModeE] != 843 {
		t.Errorf("most = %v", most)
	}
}

// TestSpecFigure3Policies verifies support/least/most for policies.
func TestSpecFigure3Policies(t *testing.T) {
	spec := buildSpec(t)
	support := map[string]int{}
	least := map[string]int{}
	most := map[string]int{}
	for _, h := range spec.Hosts {
		for _, p := range h.Policies {
			support[p]++
		}
		least[h.Policies[0]]++
		most[h.Policies[len(h.Policies)-1]]++
	}
	want := map[string][3]int{ // support, least, most
		"N":  {1035, 1035, 270},
		"D1": {715, 13, 24},
		"D2": {762, 50, 256},
		"S1": {10, 0, 0},
		"S2": {564, 16, 556},
		"S3": {8, 0, 8},
	}
	for abbrev, w := range want {
		if support[abbrev] != w[0] || least[abbrev] != w[1] || most[abbrev] != w[2] {
			t.Errorf("%s: support/least/most = %d/%d/%d, want %v",
				abbrev, support[abbrev], least[abbrev], most[abbrev], w)
		}
	}
	// Headline numbers of §5.1.
	deprecatedSupport := 0
	secureMost := 0
	for _, h := range spec.Hosts {
		hasDep := false
		for _, p := range h.Policies {
			if p == "D1" || p == "D2" {
				hasDep = true
			}
		}
		if hasDep {
			deprecatedSupport++
		}
		top := h.Policies[len(h.Policies)-1]
		if top == "S1" || top == "S2" || top == "S3" {
			secureMost++
		}
	}
	if deprecatedSupport != 786 {
		t.Errorf("hosts supporting deprecated policies = %d, want 786", deprecatedSupport)
	}
	if secureMost != 564 {
		t.Errorf("hosts with secure policy as most secure = %d, want 564", secureMost)
	}
}

// TestSpecFigure4Conformance verifies certificate/policy conformance.
func TestSpecFigure4Conformance(t *testing.T) {
	spec := buildSpec(t)
	type counts struct{ weak, strong, conf int }
	perPolicy := map[string]*counts{}
	for _, p := range uapolicy.All() {
		perPolicy[p.Abbrev] = &counts{}
	}
	for _, h := range spec.Hosts {
		for _, abbrev := range h.Policies {
			pol, _ := uapolicy.LookupAbbrev(abbrev)
			switch pol.CheckCertificate(h.Cert.Class.Hash, h.Cert.Class.Bits) {
			case uapolicy.CertTooWeak:
				perPolicy[abbrev].weak++
			case uapolicy.CertTooStrong:
				perPolicy[abbrev].strong++
			default:
				perPolicy[abbrev].conf++
			}
		}
	}
	if c := perPolicy["S2"]; c.weak != 409 || c.conf != 155 {
		t.Errorf("S2 = %+v, want weak 409 conf 155", c)
	}
	if c := perPolicy["D1"]; c.strong != 75 || c.weak != 7 {
		t.Errorf("D1 = %+v, want strong 75 weak 7", c)
	}
	if c := perPolicy["D2"]; c.strong != 5 || c.weak != 0 {
		t.Errorf("D2 = %+v, want strong 5 weak 0", c)
	}
}

// TestSpecFigure5Reuse verifies the certificate-reuse clusters.
func TestSpecFigure5Reuse(t *testing.T) {
	spec := buildSpec(t)
	sizes := map[int]int{}
	ases := map[int]map[int]bool{}
	manufacturers := map[int]map[string]bool{}
	for _, h := range spec.Hosts {
		c := h.Cert.ReuseCluster
		if c < 0 {
			continue
		}
		sizes[c]++
		if ases[c] == nil {
			ases[c] = map[int]bool{}
			manufacturers[c] = map[string]bool{}
		}
		ases[c][h.ASN] = true
		manufacturers[c][h.Manufacturer] = true
	}
	wantSizes := []int{385, 32, 12, 9, 6, 5, 4, 3, 3}
	if len(sizes) != len(wantSizes) {
		t.Fatalf("clusters = %d, want %d", len(sizes), len(wantSizes))
	}
	total := 0
	for i, w := range wantSizes {
		if sizes[i] != w {
			t.Errorf("cluster %d size = %d, want %d", i, sizes[i], w)
		}
		total += sizes[i]
	}
	if total != 459 {
		t.Errorf("reused hosts = %d, want 459", total)
	}
	// The big cluster spans 24 ASes; clusters 3 and 4 span 8 and 5.
	if got := len(ases[0]); got != 24 {
		t.Errorf("cluster 0 ASes = %d, want 24", got)
	}
	if got := len(ases[3]); got != 8 {
		t.Errorf("cluster 3 ASes = %d, want 8", got)
	}
	if got := len(ases[4]); got != 5 {
		t.Errorf("cluster 4 ASes = %d, want 5", got)
	}
	// Clusters 0, 3, 4 belong to one manufacturer.
	for _, c := range []int{0, 3, 4} {
		if len(manufacturers[c]) != 1 || !manufacturers[c]["Bachmann"] {
			t.Errorf("cluster %d manufacturers = %v", c, manufacturers[c])
		}
	}
}

// TestSpecTable2 verifies the authentication/accessibility joint.
func TestSpecTable2(t *testing.T) {
	spec := buildSpec(t)
	type key struct {
		anon, cred, cert, token bool
	}
	cells := map[key][5]int{}
	for _, h := range spec.Hosts {
		var k key
		for _, tt := range h.Tokens {
			switch tt {
			case uamsg.UserTokenAnonymous:
				k.anon = true
			case uamsg.UserTokenUserName:
				k.cred = true
			case uamsg.UserTokenCertificate:
				k.cert = true
			case uamsg.UserTokenIssuedToken:
				k.token = true
			}
		}
		c := cells[k]
		c[h.Outcome]++
		cells[k] = c
	}
	check := func(k key, want [5]int) {
		t.Helper()
		if cells[k] != want {
			t.Errorf("row %+v = %v, want %v", k, cells[k], want)
		}
	}
	check(key{anon: true}, [5]int{116, 8, 5, 9, 1})
	check(key{cred: true}, [5]int{0, 0, 0, 464, 21})
	check(key{anon: true, cred: true}, [5]int{168, 20, 134, 38, 5})
	check(key{cred: true, cert: true}, [5]int{0, 0, 0, 4, 7})
	check(key{anon: true, cred: true, cert: true}, [5]int{11, 14, 17, 17, 3})
	check(key{cred: true, cert: true, token: true}, [5]int{0, 0, 0, 0, 43})
	check(key{anon: true, cred: true, cert: true, token: true}, [5]int{0, 0, 0, 6, 0})

	// Column totals: accessible 295/42/156 = 493; rejected 541 + 80.
	var tot [5]int
	for _, c := range cells {
		for i, n := range c {
			tot[i] += n
		}
	}
	if tot != [5]int{295, 42, 156, 541, 80} {
		t.Errorf("column totals = %v", tot)
	}
}

// TestSpecAnonymousHeadlines verifies §5.4's headline counts.
func TestSpecAnonymousHeadlines(t *testing.T) {
	spec := buildSpec(t)
	var anon, anonSCOK, secureOnly, secureOnlyAnonSCOK, accessible int
	for _, h := range spec.Hosts {
		acc := h.Outcome == AccessibleProduction || h.Outcome == AccessibleTest ||
			h.Outcome == AccessibleUnclassified
		if acc {
			accessible++
		}
		if h.SecureOnly() {
			secureOnly++
		}
		if h.Anonymous() {
			anon++
			if h.Outcome != RejectedSC {
				anonSCOK++
				if h.SecureOnly() {
					secureOnlyAnonSCOK++
				}
			}
		}
	}
	if anon != 572 {
		t.Errorf("anonymous advertised = %d, want 572", anon)
	}
	if anonSCOK != 563 {
		t.Errorf("anonymous with SC ok = %d, want 563 (50%% of all)", anonSCOK)
	}
	if secureOnly != 79 {
		t.Errorf("secure-only hosts = %d, want 79", secureOnly)
	}
	if secureOnlyAnonSCOK != 71 {
		t.Errorf("secure-only anonymous SC-ok = %d, want 71", secureOnlyAnonSCOK)
	}
	if accessible != 493 {
		t.Errorf("accessible = %d, want 493", accessible)
	}
	// 1034 hosts allow secure-channel establishment.
	if got := NumServers - 80; got != 1034 {
		t.Errorf("SC-ok hosts = %d", got)
	}
}

// TestSpecDeficientShare verifies the 92% headline: hosts with at least
// one configuration deficit (no security, deprecated-only, weak cert,
// cert reuse, anonymous access).
func TestSpecDeficientShare(t *testing.T) {
	spec := buildSpec(t)
	deficient := 0
	for _, h := range spec.Hosts {
		if specHostDeficient(&h) {
			deficient++
		}
	}
	frac := float64(deficient) / float64(len(spec.Hosts))
	if frac < 0.91 || frac > 0.94 {
		t.Errorf("deficient share = %.3f (%d hosts), want ≈0.92", frac, deficient)
	}
}

func specHostDeficient(h *HostSpec) bool {
	// No communication security at all.
	if h.Policies[0] == "N" && len(h.Policies) == 1 {
		return true
	}
	// Only deprecated (or None) policies.
	top := h.Policies[len(h.Policies)-1]
	if top == "D1" || top == "D2" {
		return true
	}
	// Certificate weaker than the strongest announced policy.
	pol, _ := uapolicy.LookupAbbrev(top)
	if pol != nil && !pol.Insecure &&
		pol.CheckCertificate(h.Cert.Class.Hash, h.Cert.Class.Bits) == uapolicy.CertTooWeak {
		return true
	}
	if h.Cert.ReuseCluster >= 0 {
		return true
	}
	return h.Anonymous()
}

// TestSpecManufacturers verifies Figure 2's manufacturer counts.
func TestSpecManufacturers(t *testing.T) {
	spec := buildSpec(t)
	counts := map[string]int{}
	for _, h := range spec.Hosts {
		counts[h.Manufacturer]++
		if h.Manufacturer == "" || h.AppURI == "" {
			t.Fatalf("host %d missing manufacturer", h.Index)
		}
	}
	if counts["Bachmann"] != 406 || counts["Beckhoff"] != 112 || counts["Wago"] != 78 {
		t.Errorf("top manufacturers = %v", counts)
	}
	// SigmaPLC devices are all None-only (§B.1.1).
	for _, h := range spec.Hosts {
		if h.Manufacturer == "SigmaPLC" && h.Group != "A" {
			t.Errorf("SigmaPLC host %d in group %s", h.Index, h.Group)
		}
	}
	if counts["SigmaPLC"] != 15 {
		t.Errorf("SigmaPLC = %d", counts["SigmaPLC"])
	}
}

// TestSpecPresence verifies the per-wave found counts and totals.
func TestSpecPresence(t *testing.T) {
	spec := buildSpec(t)
	waves := len(WaveDates)
	for w := 0; w < waves; w++ {
		servers := 0
		for i := range spec.Hosts {
			h := &spec.Hosts[i]
			if !h.PresentAt(w) {
				continue
			}
			if h.Hidden && w < FollowReferencesFromWave {
				continue
			}
			servers++
		}
		if servers != serversFoundByWave[w] {
			t.Errorf("wave %d: found servers = %d, want %d", w, servers, serversFoundByWave[w])
		}
		discovery := 0
		for _, d := range spec.Discovery {
			if d.Present[w] {
				discovery++
			}
		}
		if discovery != discoveryByWave[w] {
			t.Errorf("wave %d: discovery = %d, want %d", w, discovery, discoveryByWave[w])
		}
		total := servers + discovery
		if total < 1761 || total > 2069 {
			t.Errorf("wave %d: total %d outside the paper's 1761–2069", w, total)
		}
	}
	// Reuse clusters grow 263 → 400 (§5.5).
	for w := 0; w < waves; w++ {
		n := 0
		for i := range spec.Hosts {
			h := &spec.Hosts[i]
			if c := h.Cert.ReuseCluster; (c == 0 || c == 3 || c == 4) && h.PresentAt(w) {
				n++
			}
		}
		if n != reuseClusterPresence[w] {
			t.Errorf("wave %d: cluster presence = %d, want %d", w, n, reuseClusterPresence[w])
		}
	}
}

// TestSpecRenewals verifies §5.5's renewal schedule.
func TestSpecRenewals(t *testing.T) {
	spec := buildSpec(t)
	var renewals, upgrades, downgrades, swUpdates int
	for _, h := range spec.Hosts {
		if h.Cert.RenewalWave == 0 {
			continue
		}
		renewals++
		if h.Cert.SoftwareUpdate {
			swUpdates++
		}
		prior, final := h.Cert.PriorClass.Hash, h.Cert.Class.Hash
		if prior == uacert.HashSHA1 && final == uacert.HashSHA256 {
			upgrades++
		}
		if prior == uacert.HashSHA256 && final == uacert.HashSHA1 {
			downgrades++
		}
		if h.PresentFrom != 0 || h.PresentUntil != -1 {
			t.Errorf("renewal host %d not static across campaign", h.Index)
		}
		if h.Cert.ReuseCluster >= 0 {
			t.Errorf("renewal host %d in a reuse cluster", h.Index)
		}
	}
	if renewals != 84 {
		t.Errorf("renewals = %d, want 84", renewals)
	}
	if upgrades != 7 {
		t.Errorf("SHA-1→SHA-256 upgrades = %d, want 7", upgrades)
	}
	if downgrades != 1 {
		t.Errorf("downgrades = %d, want 1", downgrades)
	}
	if swUpdates != 9 {
		t.Errorf("renewals with software update = %d, want 9", swUpdates)
	}
}

// TestSpecSHA1CertificateAges verifies the §5.5 NotBefore shape: about
// half of SHA-1 certificates postdate the 2017 deprecation.
func TestSpecSHA1CertificateAges(t *testing.T) {
	spec := buildSpec(t)
	cut2017 := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	cut2019 := time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
	var sha1Certs, post2017, post2019 int
	seenCluster := map[int]bool{}
	for _, h := range spec.Hosts {
		if h.Cert.Class.Hash != uacert.HashSHA1 {
			continue
		}
		if c := h.Cert.ReuseCluster; c >= 0 {
			if seenCluster[c] {
				continue // one certificate per cluster
			}
			seenCluster[c] = true
		}
		sha1Certs++
		if h.Cert.NotBefore.After(cut2017) {
			post2017++
		}
		if h.Cert.NotBefore.After(cut2019) {
			post2019++
		}
	}
	frac := float64(post2017) / float64(sha1Certs)
	if frac < 0.40 || frac > 0.60 {
		t.Errorf("SHA-1 certs post-2017 = %.2f, want ≈0.50", frac)
	}
	if post2019 == 0 || post2019 >= post2017 {
		t.Errorf("post-2019 = %d of post-2017 = %d", post2019, post2017)
	}
}

// TestSpecExposureQuantiles verifies the Figure 7 shape.
func TestSpecExposureQuantiles(t *testing.T) {
	spec := buildSpec(t)
	var accessible []Exposure
	for _, h := range spec.Hosts {
		switch h.Outcome {
		case AccessibleProduction, AccessibleTest, AccessibleUnclassified:
			accessible = append(accessible, h.Exposure)
		}
	}
	if len(accessible) != 493 {
		t.Fatalf("accessible = %d", len(accessible))
	}
	var read97, write10, exec86 int
	for _, e := range accessible {
		if e.ReadFrac > 0.97 {
			read97++
		}
		if e.WriteFrac > 0.10 {
			write10++
		}
		if e.ExecFrac > 0.86 {
			exec86++
		}
	}
	n := float64(len(accessible))
	if f := float64(read97) / n; f < 0.85 || f > 0.95 {
		t.Errorf("hosts reading >97%% of nodes = %.2f, want ≈0.90", f)
	}
	if f := float64(write10) / n; f < 0.28 || f > 0.38 {
		t.Errorf("hosts writing >10%% of nodes = %.2f, want ≈0.33", f)
	}
	if f := float64(exec86) / n; f < 0.56 || f > 0.66 {
		t.Errorf("hosts executing >86%% of functions = %.2f, want ≈0.61", f)
	}
}

// TestSpecStructuralInvariants checks internal consistency rules.
func TestSpecStructuralInvariants(t *testing.T) {
	spec := buildSpec(t)
	hiddenCount := 0
	for i := range spec.Hosts {
		h := &spec.Hosts[i]
		if h.Outcome == RejectedSC {
			if h.Modes == ModeN {
				t.Errorf("host %d rejects SC but offers only None", h.Index)
			}
			if !h.RejectClientCert {
				t.Errorf("host %d SC outcome without quirk", h.Index)
			}
		}
		if h.Outcome == RejectedAuth && h.Anonymous() && !h.RejectSessions {
			t.Errorf("host %d anonymous+rejected without session quirk", h.Index)
		}
		if h.Hidden {
			hiddenCount++
			if h.Port == 4840 && h.IP.As4()[1] != 127 {
				t.Errorf("hidden host %d on default port inside universe", h.Index)
			}
		}
		if !h.IP.IsValid() {
			t.Errorf("host %d has no IP", h.Index)
		}
		if h.ASN < asnBase || h.ASN >= asnBase+numASes {
			t.Errorf("host %d ASN %d out of range", h.Index, h.ASN)
		}
	}
	if hiddenCount != hiddenServers {
		t.Errorf("hidden hosts = %d, want %d", hiddenCount, hiddenServers)
	}
	// IPs must be unique per (ip, port).
	seen := map[string]bool{}
	for _, h := range spec.Hosts {
		k := h.IP.String() + ":" + string(rune(h.Port))
		if seen[k] {
			t.Errorf("duplicate address %s:%d", h.IP, h.Port)
		}
		seen[k] = true
	}
	// Every hidden host is announced by a discovery server.
	announced := map[int]bool{}
	for _, d := range spec.Discovery {
		for _, hi := range d.Announces {
			announced[hi] = true
		}
	}
	for i := range spec.Hosts {
		if spec.Hosts[i].Hidden && !announced[i] {
			t.Errorf("hidden host %d not announced", i)
		}
	}
}

// TestSpecDeterminism: same seed, same world.
func TestSpecDeterminism(t *testing.T) {
	a, err := BuildSpec(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildSpec(7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Hosts {
		ha, hb := a.Hosts[i], b.Hosts[i]
		if ha.IP != hb.IP || ha.Cert.Class != hb.Cert.Class ||
			ha.Outcome != hb.Outcome || ha.Manufacturer != hb.Manufacturer {
			t.Fatalf("host %d differs between builds", i)
		}
	}
}

func BenchmarkBuildSpec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := BuildSpec(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
