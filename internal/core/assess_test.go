package core

import (
	"encoding/base64"
	"math/big"
	"strings"
	"testing"
	"time"

	"repro/internal/addrspace"
	"repro/internal/dataset"
	"repro/internal/uapolicy"
)

// rec builds a minimal server record for assessment tests.
func rec(addr string, asn int, opts func(*dataset.HostRecord)) *dataset.HostRecord {
	r := &dataset.HostRecord{
		Wave: 0, Date: time.Date(2020, 8, 30, 0, 0, 0, 0, time.UTC),
		Address: addr, ASN: asn,
		ReachedOPCUA:    true,
		AppURI:          "urn:bachmann.info:M1:0001",
		ApplicationType: "Server",
		Endpoints: []dataset.EndpointRecord{{
			URL: "opc.tcp://" + addr, Mode: "None",
			PolicyURI:  uapolicy.URINone,
			TokenTypes: []string{"Anonymous"},
		}},
		AnonOffered: true,
	}
	if opts != nil {
		opts(r)
	}
	return r
}

func cert(thumb, hash string, bits int, org string, notBefore time.Time) *dataset.CertRecord {
	n := new(big.Int).Lsh(big.NewInt(0x10001), uint(bits-17))
	return &dataset.CertRecord{
		Thumbprint: thumb, Hash: hash, Bits: bits,
		SubjectOrg: org, NotBefore: notBefore,
		ModulusB64: base64.StdEncoding.EncodeToString(n.Bytes()),
	}
}

func TestManufacturerClustering(t *testing.T) {
	cases := map[string]string{
		"urn:bachmann.info:M1:0001":        "Bachmann",
		"urn:beckhoff.com:TcOpcUaServer:7": "Beckhoff",
		"urn:wago.com:codesys:1":           "Wago",
		"urn:opcfoundation.org:UA:LDS:3":   "OPC Foundation",
		"urn:unknown:vendor":               "other",
		"":                                 "other",
	}
	for uri, want := range cases {
		if got := ManufacturerOf(uri); got != want {
			t.Errorf("ManufacturerOf(%q) = %q, want %q", uri, got, want)
		}
	}
}

func TestAnalyzeWaveModesAndPolicies(t *testing.T) {
	recs := []*dataset.HostRecord{
		rec("1.1.1.1:4840", 1, nil), // None only
		rec("1.1.1.2:4840", 1, func(r *dataset.HostRecord) {
			r.Endpoints = append(r.Endpoints,
				dataset.EndpointRecord{Mode: "Sign", PolicyURI: uapolicy.URIBasic128Rsa15},
				dataset.EndpointRecord{Mode: "SignAndEncrypt", PolicyURI: uapolicy.URIBasic256Sha256},
			)
		}),
		rec("1.1.1.3:4840", 2, func(r *dataset.HostRecord) {
			r.Endpoints = []dataset.EndpointRecord{{
				Mode: "SignAndEncrypt", PolicyURI: uapolicy.URIBasic256Sha256,
				TokenTypes: []string{"UserName"},
			}}
			r.AnonOffered = false
		}),
	}
	w := analyzeWave(0, recs[0].Date, recs, 0)
	if len(w.Servers) != 3 {
		t.Fatalf("servers = %d", len(w.Servers))
	}
	if w.ModeSupport["None"] != 2 || w.ModeSupport["SignAndEncrypt"] != 2 || w.ModeSupport["Sign"] != 1 {
		t.Errorf("mode support = %v", w.ModeSupport)
	}
	if w.ModeLeast["None"] != 2 || w.ModeLeast["SignAndEncrypt"] != 1 {
		t.Errorf("mode least = %v", w.ModeLeast)
	}
	if w.ModeMost["None"] != 1 || w.ModeMost["SignAndEncrypt"] != 2 {
		t.Errorf("mode most = %v", w.ModeMost)
	}
	if w.PolicyMost["N"] != 1 || w.PolicyMost["S2"] != 2 {
		t.Errorf("policy most = %v", w.PolicyMost)
	}
	if w.NoneOnly != 1 || w.SecureBest != 2 {
		t.Errorf("none-only/secure-best = %d/%d", w.NoneOnly, w.SecureBest)
	}
	if w.EnforceSecure != 1 { // host 3 offers only S2
		t.Errorf("enforce secure = %d", w.EnforceSecure)
	}
	if w.Anonymous != 2 {
		t.Errorf("anonymous = %d", w.Anonymous)
	}
}

func TestAnalyzeWaveCertConformanceAndReuse(t *testing.T) {
	nb := time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)
	shared := cert("tt-shared", "SHA-1", 2048, "ICS Vendor", nb)
	recs := []*dataset.HostRecord{
		rec("1.1.1.1:4840", 1, func(r *dataset.HostRecord) {
			r.Endpoints = append(r.Endpoints, dataset.EndpointRecord{
				Mode: "Sign", PolicyURI: uapolicy.URIBasic256Sha256})
			r.Cert = shared
		}),
		rec("1.1.1.2:4840", 2, func(r *dataset.HostRecord) { r.Cert = shared }),
		rec("1.1.1.3:4840", 2, func(r *dataset.HostRecord) { r.Cert = shared }),
		rec("1.1.1.4:4840", 3, func(r *dataset.HostRecord) {
			r.Cert = cert("tt-single", "SHA-256", 2048, "Solo", nb)
			r.Endpoints = append(r.Endpoints, dataset.EndpointRecord{
				Mode: "Sign", PolicyURI: uapolicy.URIBasic256Sha256})
		}),
	}
	w := analyzeWave(0, nb, recs, 0)
	// Host 1 announces S2 with a SHA-1 cert: too weak.
	if w.Conformance["S2"][uapolicy.CertTooWeak] != 1 ||
		w.Conformance["S2"][uapolicy.CertConformant] != 1 {
		t.Errorf("S2 conformance = %v", w.Conformance["S2"])
	}
	clusters := w.ReuseClustersAtLeast(3)
	if len(clusters) != 1 || clusters[0].Hosts != 3 || clusters[0].ASes != 2 {
		t.Errorf("clusters = %+v", clusters)
	}
	if len(w.ReuseClustersAtLeast(4)) != 0 {
		t.Error("threshold filter broken")
	}
	// Deficits: host 1 weak cert + anon; hosts 2,3 reuse + anon + none-only.
	h1 := w.Servers[0]
	if !h1.Deficits[DeficitWeakCert] || !h1.Deficits[DeficitCertReuse] {
		t.Errorf("host1 deficits = %v", h1.Deficits)
	}
	if w.DeficitTotals[DeficitCertReuse] != 3 {
		t.Errorf("reuse deficit total = %d", w.DeficitTotals[DeficitCertReuse])
	}
	if w.DeficientFrac != 1.0 {
		t.Errorf("deficient frac = %g", w.DeficientFrac)
	}
}

func TestAnalyzeWaveWeakKeys(t *testing.T) {
	nb := time.Now()
	p1 := big.NewInt(0)
	p1.SetString("f3b9d3a1c5e7f1a3b5d7e9fb0d0f1315", 16)
	// Build three moduli, two sharing a factor. Use small primes for the
	// test: gcd logic only needs composite structure.
	a := new(big.Int).Mul(big.NewInt(1000003), big.NewInt(1000033))
	b := new(big.Int).Mul(big.NewInt(1000003), big.NewInt(1000037))
	c := new(big.Int).Mul(big.NewInt(1000039), big.NewInt(1000081))
	mk := func(addr, thumb string, n *big.Int) *dataset.HostRecord {
		return rec(addr, 1, func(r *dataset.HostRecord) {
			r.Cert = &dataset.CertRecord{
				Thumbprint: thumb, Hash: "SHA-1", Bits: 2048, NotBefore: nb,
				ModulusB64: base64.StdEncoding.EncodeToString(n.Bytes()),
			}
		})
	}
	w := analyzeWave(0, nb, []*dataset.HostRecord{
		mk("1.1.1.1:4840", "t1", a),
		mk("1.1.1.2:4840", "t2", b),
		mk("1.1.1.3:4840", "t3", c),
	}, 0)
	if w.WeakKeyFindings != 2 {
		t.Errorf("weak key findings = %d, want 2", w.WeakKeyFindings)
	}
}

func TestAnalyzeWaveAuthMatrix(t *testing.T) {
	nb := time.Now()
	recs := []*dataset.HostRecord{
		rec("1.1.1.1:4840", 1, func(r *dataset.HostRecord) {
			r.AnonOK = true
			r.Namespaces = []string{"http://opcfoundation.org/UA/", addrspace.ProductionNamespaces[0]}
			r.Variables, r.Readable, r.Writable = 10, 9, 2
			r.Methods, r.Executable = 4, 3
		}),
		rec("1.1.1.2:4840", 1, func(r *dataset.HostRecord) {
			r.AnonOK = true
			r.Namespaces = []string{"http://opcfoundation.org/UA/", addrspace.TestNamespaces[0]}
			r.Variables, r.Readable = 5, 5
		}),
		rec("1.1.1.3:4840", 1, func(r *dataset.HostRecord) {
			r.CertRejected = true
		}),
		rec("1.1.1.4:4840", 1, func(r *dataset.HostRecord) {
			r.Endpoints[0].TokenTypes = []string{"UserName"}
			r.AnonOffered = false
		}),
	}
	w := analyzeWave(0, nb, recs, 0)
	anon := w.AuthMatrix["Anonymous"]
	if anon == nil || anon.Production != 1 || anon.Test != 1 || anon.RejectedSC != 1 {
		t.Errorf("anon cell = %+v", anon)
	}
	cred := w.AuthMatrix["UserName"]
	if cred == nil || cred.RejectedAuth != 1 {
		t.Errorf("cred cell = %+v", cred)
	}
	if w.Accessible != 2 || w.RejectedSC != 1 {
		t.Errorf("accessible/rejected = %d/%d", w.Accessible, w.RejectedSC)
	}
	read, write, _ := w.ExposureCDFs()
	if read.Len() != 2 {
		t.Errorf("exposure samples = %d", read.Len())
	}
	if write.Survival(0.10) != 0.5 { // one host writes 2/10
		t.Errorf("write survival = %g", write.Survival(0.10))
	}
}

func TestAnalyzeWaveSkipsDiscoveryAndNoise(t *testing.T) {
	nb := time.Now()
	recs := []*dataset.HostRecord{
		rec("1.1.1.1:4840", 1, nil),
		rec("1.1.1.2:4840", 1, func(r *dataset.HostRecord) {
			r.ApplicationType = "DiscoveryServer"
		}),
		{Address: "1.1.1.3:4840", ReachedOPCUA: false, Date: nb},
	}
	w := analyzeWave(0, nb, recs, 0)
	if len(w.Servers) != 1 || w.Discovery != 1 || len(w.Records) != 2 {
		t.Errorf("population = %d servers / %d discovery / %d records",
			len(w.Servers), w.Discovery, len(w.Records))
	}
}

func TestLongitudinalRenewalDetection(t *testing.T) {
	nb := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	mkWave := func(wave int, thumb, hash, version string) *WaveAnalysis {
		r := rec("9.9.9.9:4840", 1, func(r *dataset.HostRecord) {
			r.Wave = wave
			r.Cert = cert(thumb, hash, 2048, "Org", nb)
			r.SoftwareVersion = version
		})
		return analyzeWave(wave, nb, []*dataset.HostRecord{r}, 0)
	}
	la := NewLongitudinalAccumulator(true)
	la.AddWave(mkWave(0, "t-old", "SHA-1", "1.0"))
	la.AddWave(mkWave(1, "t-old", "SHA-1", "1.0"))
	la.AddWave(mkWave(2, "t-new", "SHA-256", "1.1")) // renewal + upgrade + sw update
	l := la.Finalize()
	if len(l.Renewals) != 1 {
		t.Fatalf("renewals = %d", len(l.Renewals))
	}
	ev := l.Renewals[0]
	if !ev.Upgraded || ev.Downgraded || !ev.SoftwareUpdate || ev.Wave != 2 {
		t.Errorf("event = %+v", ev)
	}
	if l.UpgradedSHA1 != 1 || l.SoftwareUpdates != 1 {
		t.Errorf("aggregates = %+v", l)
	}
	if l.TotalCerts != 2 || l.SHA1Certs != 1 {
		t.Errorf("cert census = %d/%d", l.TotalCerts, l.SHA1Certs)
	}
	if l.SHA1Post2017 != 1 {
		t.Errorf("post-2017 = %d", l.SHA1Post2017)
	}
	if len(l.DeficientSeries) != 3 {
		t.Errorf("deficient series = %v", l.DeficientSeries)
	}
}

func TestDeficitStrings(t *testing.T) {
	for _, d := range Deficits() {
		if d.String() == "unknown" || d.String() == "" {
			t.Errorf("deficit %d has no name", d)
		}
	}
	if !strings.Contains(DeficitAnonymous.String(), "Anonymous") {
		t.Error("anonymous deficit name wrong")
	}
}
