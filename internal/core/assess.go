// Package core implements the paper's primary contribution: the
// security-configuration assessment of OPC UA deployments. It consumes
// measurement records and produces the statistics behind every figure
// and table of the evaluation: security modes and policies (Figure 3),
// certificate/policy conformance (Figure 4), certificate reuse
// (Figure 5), authentication and accessibility (Figure 6, Table 2),
// anonymous address-space exposure (Figure 7), deficit classes split by
// manufacturer and AS (Figure 8), and the longitudinal series of §5.5.
package core

import (
	"encoding/base64"
	"math/big"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/addrspace"
	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/uacert"
	"repro/internal/uapolicy"
	"repro/internal/weakkeys"
)

// ManufacturerOf clusters an ApplicationURI into a manufacturer label,
// the analog of the paper's manual clustering (§4).
func ManufacturerOf(appURI string) string {
	u := strings.ToLower(appURI)
	switch {
	case strings.Contains(u, "opcfoundation"):
		return "OPC Foundation"
	case strings.Contains(u, "bachmann"):
		return "Bachmann"
	case strings.Contains(u, "beckhoff"):
		return "Beckhoff"
	case strings.Contains(u, "wago"):
		return "Wago"
	case strings.Contains(u, "siemens"):
		return "Siemens"
	case strings.Contains(u, "phoenixcontact"):
		return "Phoenix Contact"
	case strings.Contains(u, "br-automation"):
		return "B&R"
	case strings.Contains(u, "weidmueller"):
		return "Weidmueller"
	case strings.Contains(u, "softing"):
		return "Softing"
	case strings.Contains(u, "unifiedautomation"):
		return "Unified Automation"
	case strings.Contains(u, "prosysopc"):
		return "Prosys"
	case strings.Contains(u, "sigmaplc"):
		return "SigmaPLC"
	default:
		return "other"
	}
}

// hashOf maps a CertRecord hash name back to the algorithm.
func hashOf(name string) uacert.HashAlg {
	switch name {
	case "MD5":
		return uacert.HashMD5
	case "SHA-1":
		return uacert.HashSHA1
	case "SHA-256":
		return uacert.HashSHA256
	default:
		return uacert.HashUnknown
	}
}

// Deficit flags one configuration problem class (Figure 8).
type Deficit int

// Deficit classes.
const (
	DeficitNone Deficit = iota
	DeficitDeprecatedOnly
	DeficitWeakCert
	DeficitCertReuse
	DeficitAnonymous
)

// String implements fmt.Stringer.
func (d Deficit) String() string {
	switch d {
	case DeficitNone:
		return "None security only"
	case DeficitDeprecatedOnly:
		return "Deprecated policies only"
	case DeficitWeakCert:
		return "Too weak certificate"
	case DeficitCertReuse:
		return "Certificate reuse"
	case DeficitAnonymous:
		return "Anonymous access"
	default:
		return "unknown"
	}
}

// Deficits enumerates all classes in display order.
func Deficits() []Deficit {
	return []Deficit{DeficitNone, DeficitDeprecatedOnly, DeficitWeakCert,
		DeficitCertReuse, DeficitAnonymous}
}

// HostAssessment is the per-host analysis outcome.
type HostAssessment struct {
	Record       *dataset.HostRecord
	Manufacturer string

	// Policy/mode analysis.
	Policies    []*uapolicy.Policy // distinct, rank order
	LeastPolicy *uapolicy.Policy
	MostPolicy  *uapolicy.Policy
	ModeSupport map[string]bool // None, Sign, SignAndEncrypt
	LeastMode   string
	MostMode    string

	// Certificate conformance against each announced policy.
	Conformance map[string]uapolicy.CertificateConformance

	// Deficits.
	Deficits  map[Deficit]bool
	Deficient bool

	Classification addrspace.Classification
}

// WaveAnalysis aggregates one measurement wave.
type WaveAnalysis struct {
	Wave int
	Date time.Time

	// Population.
	Records    []*dataset.HostRecord // all OPC UA hosts
	Servers    []*HostAssessment     // non-discovery servers
	Discovery  int
	ByVendor   map[string]int // servers per manufacturer
	ViaCounts  map[string]int
	NonDefault int // servers on non-default ports

	// Figure 3.
	ModeSupport, ModeLeast, ModeMost       map[string]int
	PolicySupport, PolicyLeast, PolicyMost map[string]int

	// §5.1 takeaways.
	NoneOnly       int // only mode/policy None
	DeprecatedBest int // most secure policy deprecated
	SecureBest     int // most secure policy is S1/S2/S3
	EnforceSecure  int // least secure policy is S1/S2/S3

	// Figure 4: per policy abbrev → conformance → count, plus the
	// hash/keybits matrix.
	Conformance map[string]map[uapolicy.CertificateConformance]int
	CertMatrix  map[string]map[string]int // policy → "hash/bits" → count

	// Figure 5.
	ReuseClusters []ReuseCluster

	// §5.3.
	WeakKeyFindings int

	// Figure 6 / Table 2.
	AuthMatrix map[string]*AuthCell
	Anonymous  int // anonymous advertised
	AnonSCOK   int // anonymous advertised, secure channel not rejected
	Accessible int
	RejectedSC int

	// Figure 7.
	ReadFracs, WriteFracs, ExecFracs []float64

	// Figure 8.
	DeficitByVendor map[Deficit]map[string]int
	DeficitByAS     map[Deficit]map[int]int
	DeficitTotals   map[Deficit]int
	Deficient       int
	DeficientFrac   float64
}

// ReuseCluster is one certificate used by several hosts (Figure 5).
type ReuseCluster struct {
	Thumbprint string
	Hosts      int
	ASes       int
	SubjectOrg string
}

// AuthCell is one Table 2 row aggregation.
type AuthCell struct {
	Tokens       []string
	Production   int
	Test         int
	Unclassified int
	RejectedAuth int
	RejectedSC   int
}

// Total sums the cell.
func (c *AuthCell) Total() int {
	return c.Production + c.Test + c.Unclassified + c.RejectedAuth + c.RejectedSC
}

// WaveAccumulator folds one wave's records as they arrive from the
// record pipeline. Add maintains every cross-host index the assessment
// needs (certificate-reuse clusters, the distinct-modulus set for
// batch-GCD), so Finalize only has to run the per-host assessments and
// aggregate. The accumulator necessarily retains the wave's records —
// the WaveAnalysis references them — which is exactly the streaming
// memory bound: one wave in flight, never the whole campaign.
//
// Add and Finalize must be called from one goroutine (the pipeline's
// fold side); Finalize may be called once.
type WaveAccumulator struct {
	wave int
	date time.Time
	recs []*dataset.HostRecord

	thumbHosts map[string]map[string]bool
	thumbASes  map[string]map[int]bool
	thumbOrg   map[string]string
	moduli     []*big.Int
	seenThumb  map[string]bool
}

// NewWaveAccumulator starts an empty fold for one wave.
func NewWaveAccumulator(wave int, date time.Time) *WaveAccumulator {
	return &WaveAccumulator{
		wave: wave, date: date,
		thumbHosts: map[string]map[string]bool{},
		thumbASes:  map[string]map[int]bool{},
		thumbOrg:   map[string]string{},
		seenThumb:  map[string]bool{},
	}
}

// Add folds one record into the wave.
func (wa *WaveAccumulator) Add(r *dataset.HostRecord) {
	wa.recs = append(wa.recs, r)
	if !r.ReachedOPCUA || r.Cert == nil {
		return
	}
	// Certificate reuse is a cross-host property of non-discovery
	// servers; the weak-key modulus set spans every certificate seen.
	if !r.IsDiscovery() {
		t := r.Cert.Thumbprint
		if wa.thumbHosts[t] == nil {
			wa.thumbHosts[t] = map[string]bool{}
			wa.thumbASes[t] = map[int]bool{}
		}
		wa.thumbHosts[t][r.Address] = true
		wa.thumbASes[t][r.ASN] = true
		wa.thumbOrg[t] = r.Cert.SubjectOrg
	}
	if !wa.seenThumb[r.Cert.Thumbprint] {
		wa.seenThumb[r.Cert.Thumbprint] = true
		if raw, err := base64.StdEncoding.DecodeString(r.Cert.ModulusB64); err == nil {
			wa.moduli = append(wa.moduli, new(big.Int).SetBytes(raw))
		}
	}
}

// Len returns how many records have been folded.
func (wa *WaveAccumulator) Len() int { return len(wa.recs) }

// Finalize runs the per-host assessments (on `workers` goroutines,
// 0 = GOMAXPROCS) and aggregates the WaveAnalysis. assessHost is pure
// given the folded reuse index, so hosts are assessed on a fixed pool
// and merged in record order on a single goroutine — the result is
// identical to a 1-worker run, field for field.
func (wa *WaveAccumulator) Finalize(workers int) *WaveAnalysis {
	a := &WaveAnalysis{
		Wave: wa.wave, Date: wa.date,
		ByVendor:        map[string]int{},
		ViaCounts:       map[string]int{},
		ModeSupport:     map[string]int{},
		ModeLeast:       map[string]int{},
		ModeMost:        map[string]int{},
		PolicySupport:   map[string]int{},
		PolicyLeast:     map[string]int{},
		PolicyMost:      map[string]int{},
		Conformance:     map[string]map[uapolicy.CertificateConformance]int{},
		CertMatrix:      map[string]map[string]int{},
		AuthMatrix:      map[string]*AuthCell{},
		DeficitByVendor: map[Deficit]map[string]int{},
		DeficitByAS:     map[Deficit]map[int]int{},
		DeficitTotals:   map[Deficit]int{},
	}
	for _, d := range Deficits() {
		a.DeficitByVendor[d] = map[string]int{}
		a.DeficitByAS[d] = map[int]int{}
	}

	reused := map[string]bool{}
	for t, hosts := range wa.thumbHosts {
		if len(hosts) >= 2 {
			reused[t] = true
			a.ReuseClusters = append(a.ReuseClusters, ReuseCluster{
				Thumbprint: t,
				Hosts:      len(hosts),
				ASes:       len(wa.thumbASes[t]),
				SubjectOrg: wa.thumbOrg[t],
			})
		}
	}
	sort.Slice(a.ReuseClusters, func(i, j int) bool {
		if a.ReuseClusters[i].Hosts != a.ReuseClusters[j].Hosts {
			return a.ReuseClusters[i].Hosts > a.ReuseClusters[j].Hosts
		}
		return a.ReuseClusters[i].Thumbprint < a.ReuseClusters[j].Thumbprint
	})

	// Weak keys: batch-GCD across distinct moduli (§5.3).
	a.WeakKeyFindings = len(weakkeys.BatchGCD(wa.moduli, false))

	recs := wa.recs
	assessments := assessAll(recs, reused, workers)
	for i, r := range recs {
		if !r.ReachedOPCUA {
			continue
		}
		a.Records = append(a.Records, r)
		if r.IsDiscovery() {
			a.Discovery++
			continue
		}
		h := assessments[i]
		a.Servers = append(a.Servers, h)
		a.ByVendor[h.Manufacturer]++
		a.ViaCounts[r.Via]++
		if !strings.HasSuffix(r.Address, ":4840") {
			a.NonDefault++
		}
		accumulate(a, h)
	}
	if n := len(a.Servers); n > 0 {
		a.DeficientFrac = float64(a.Deficient) / float64(n)
	}
	return a
}

// assessAll runs assessHost for every assessable record on a fixed
// worker pool, returning a slice parallel to recs (nil entries for
// records that are skipped: unreachable hosts and discovery servers).
func assessAll(recs []*dataset.HostRecord, reused map[string]bool, workers int) []*HostAssessment {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(recs) {
		workers = len(recs)
	}
	out := make([]*HostAssessment, len(recs))
	if workers <= 1 {
		for i, r := range recs {
			if r.ReachedOPCUA && !r.IsDiscovery() {
				out[i] = assessHost(r, reused)
			}
		}
		return out
	}
	indexes := make(chan int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indexes {
				out[i] = assessHost(recs[i], reused)
			}
		}()
	}
	for i, r := range recs {
		if r.ReachedOPCUA && !r.IsDiscovery() {
			indexes <- i
		}
	}
	close(indexes)
	wg.Wait()
	return out
}

func assessHost(r *dataset.HostRecord, reused map[string]bool) *HostAssessment {
	h := &HostAssessment{
		Record:       r,
		Manufacturer: ManufacturerOf(r.AppURI),
		ModeSupport:  map[string]bool{},
		Conformance:  map[string]uapolicy.CertificateConformance{},
		Deficits:     map[Deficit]bool{},
	}

	policySet := map[string]*uapolicy.Policy{}
	for _, ep := range r.Endpoints {
		h.ModeSupport[ep.Mode] = true
		if p, ok := uapolicy.Lookup(ep.PolicyURI); ok {
			policySet[p.Abbrev] = p
		}
	}
	for _, p := range policySet {
		h.Policies = append(h.Policies, p)
	}
	sort.Slice(h.Policies, func(i, j int) bool { return h.Policies[i].Rank < h.Policies[j].Rank })
	if len(h.Policies) > 0 {
		h.LeastPolicy = h.Policies[0]
		h.MostPolicy = h.Policies[len(h.Policies)-1]
	}
	switch {
	case h.ModeSupport["None"]:
		h.LeastMode = "None"
	case h.ModeSupport["Sign"]:
		h.LeastMode = "Sign"
	case h.ModeSupport["SignAndEncrypt"]:
		h.LeastMode = "SignAndEncrypt"
	}
	switch {
	case h.ModeSupport["SignAndEncrypt"]:
		h.MostMode = "SignAndEncrypt"
	case h.ModeSupport["Sign"]:
		h.MostMode = "Sign"
	case h.ModeSupport["None"]:
		h.MostMode = "None"
	}

	// Certificate conformance per announced policy (Figure 4).
	if r.Cert != nil {
		hash := hashOf(r.Cert.Hash)
		for _, p := range h.Policies {
			h.Conformance[p.Abbrev] = p.CheckCertificate(hash, r.Cert.Bits)
		}
	}

	// Deficit classes.
	if h.MostPolicy != nil && h.MostPolicy.Insecure {
		h.Deficits[DeficitNone] = true
	}
	if h.MostPolicy != nil && h.MostPolicy.Deprecated {
		h.Deficits[DeficitDeprecatedOnly] = true
	}
	if h.MostPolicy != nil && !h.MostPolicy.Insecure && !h.MostPolicy.Deprecated &&
		h.Conformance[h.MostPolicy.Abbrev] == uapolicy.CertTooWeak {
		h.Deficits[DeficitWeakCert] = true
	}
	if r.Cert != nil && reused[r.Cert.Thumbprint] {
		h.Deficits[DeficitCertReuse] = true
	}
	if r.AnonOffered {
		h.Deficits[DeficitAnonymous] = true
	}
	h.Deficient = len(h.Deficits) > 0

	if r.Accessible() {
		h.Classification = addrspace.Classify(r.Namespaces)
	}
	return h
}

func accumulate(a *WaveAnalysis, h *HostAssessment) {
	r := h.Record
	for mode := range h.ModeSupport {
		a.ModeSupport[mode]++
	}
	if h.LeastMode != "" {
		a.ModeLeast[h.LeastMode]++
	}
	if h.MostMode != "" {
		a.ModeMost[h.MostMode]++
	}
	for _, p := range h.Policies {
		a.PolicySupport[p.Abbrev]++
	}
	if h.LeastPolicy != nil {
		a.PolicyLeast[h.LeastPolicy.Abbrev]++
	}
	if h.MostPolicy != nil {
		a.PolicyMost[h.MostPolicy.Abbrev]++
		switch {
		case h.MostPolicy.Insecure:
			a.NoneOnly++
		case h.MostPolicy.Deprecated:
			a.DeprecatedBest++
		default:
			a.SecureBest++
		}
	}
	if h.LeastPolicy != nil && h.LeastPolicy.IsSecure() {
		a.EnforceSecure++
	}

	if r.Cert != nil {
		key := r.Cert.Hash + "/" + strconv.Itoa(r.Cert.Bits)
		for _, p := range h.Policies {
			if a.Conformance[p.Abbrev] == nil {
				a.Conformance[p.Abbrev] = map[uapolicy.CertificateConformance]int{}
			}
			a.Conformance[p.Abbrev][h.Conformance[p.Abbrev]]++
			if a.CertMatrix[p.Abbrev] == nil {
				a.CertMatrix[p.Abbrev] = map[string]int{}
			}
			a.CertMatrix[p.Abbrev][key]++
		}
	}

	// Table 2 / Figure 6.
	tokens := tokenCombo(r)
	cell := a.AuthMatrix[tokens]
	if cell == nil {
		cell = &AuthCell{Tokens: strings.Split(tokens, "+")}
		a.AuthMatrix[tokens] = cell
	}
	switch {
	case r.CertRejected:
		cell.RejectedSC++
		a.RejectedSC++
	case r.Accessible():
		a.Accessible++
		switch h.Classification {
		case addrspace.Production:
			cell.Production++
		case addrspace.Test:
			cell.Test++
		default:
			cell.Unclassified++
		}
	default:
		cell.RejectedAuth++
	}
	if r.AnonOffered {
		a.Anonymous++
		if !r.CertRejected {
			a.AnonSCOK++
		}
	}

	// Figure 7: exposure fractions for accessible hosts.
	if r.Accessible() && !r.CertRejected {
		if r.Variables > 0 {
			a.ReadFracs = append(a.ReadFracs, float64(r.Readable)/float64(r.Variables))
			a.WriteFracs = append(a.WriteFracs, float64(r.Writable)/float64(r.Variables))
		}
		if r.Methods > 0 {
			a.ExecFracs = append(a.ExecFracs, float64(r.Executable)/float64(r.Methods))
		}
	}

	// Figure 8.
	for d := range h.Deficits {
		a.DeficitTotals[d]++
		a.DeficitByVendor[d][h.Manufacturer]++
		a.DeficitByAS[d][r.ASN]++
	}
	if h.Deficient {
		a.Deficient++
	}
}

func tokenCombo(r *dataset.HostRecord) string {
	set := map[string]bool{}
	for _, ep := range r.Endpoints {
		for _, tt := range ep.TokenTypes {
			set[tt] = true
		}
	}
	order := []string{"Anonymous", "UserName", "Certificate", "IssuedToken"}
	var parts []string
	for _, o := range order {
		if set[o] {
			parts = append(parts, o)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// ExposureCDFs returns the three Figure 7 distributions.
func (a *WaveAnalysis) ExposureCDFs() (read, write, exec *stats.ECDF) {
	return stats.NewECDF(a.ReadFracs), stats.NewECDF(a.WriteFracs), stats.NewECDF(a.ExecFracs)
}

// ReuseClustersAtLeast filters clusters by minimum size (Figure 5 uses
// three hosts to account for IP churn).
func (a *WaveAnalysis) ReuseClustersAtLeast(n int) []ReuseCluster {
	var out []ReuseCluster
	for _, c := range a.ReuseClusters {
		if c.Hosts >= n {
			out = append(out, c)
		}
	}
	return out
}
