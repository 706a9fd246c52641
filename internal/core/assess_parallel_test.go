package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/addrspace"
	"repro/internal/dataset"
	"repro/internal/uapolicy"
)

// parallelFixture builds a population exercising every accumulate path:
// reuse clusters, weak certs, discovery servers, unreachable noise,
// cert-rejecting hosts, credential-only hosts and exposure samples.
func parallelFixture() []*dataset.HostRecord {
	nb := time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)
	shared := cert("tt-shared", "SHA-1", 1024, "ICS Vendor", nb)
	var recs []*dataset.HostRecord
	for i := 0; i < 40; i++ {
		addr := fmt.Sprintf("10.0.%d.%d:4840", i/8, i%8+1)
		asn := 64500 + i%5
		switch i % 8 {
		case 0: // None-only anonymous host.
			recs = append(recs, rec(addr, asn, nil))
		case 1: // Reuse-cluster member.
			recs = append(recs, rec(addr, asn, func(r *dataset.HostRecord) {
				r.Cert = shared
			}))
		case 2: // Secure host with its own cert and exposure data.
			i := i
			recs = append(recs, rec(addr, asn, func(r *dataset.HostRecord) {
				r.Cert = cert(fmt.Sprintf("tt-%d", i), "SHA-256", 2048, "Solo", nb)
				r.Endpoints = append(r.Endpoints, dataset.EndpointRecord{
					Mode: "SignAndEncrypt", PolicyURI: uapolicy.URIBasic256Sha256,
					TokenTypes: []string{"UserName"},
				})
				r.AnonOK = true
				r.Namespaces = []string{"http://opcfoundation.org/UA/", addrspace.ProductionNamespaces[0]}
				r.Variables, r.Readable, r.Writable = 20, 18, 2+i%3
				r.Methods, r.Executable = 5, 4
			}))
		case 3: // Deprecated-best host.
			recs = append(recs, rec(addr, asn, func(r *dataset.HostRecord) {
				r.Endpoints = append(r.Endpoints, dataset.EndpointRecord{
					Mode: "Sign", PolicyURI: uapolicy.URIBasic128Rsa15,
				})
			}))
		case 4: // Discovery server.
			recs = append(recs, rec(addr, asn, func(r *dataset.HostRecord) {
				r.ApplicationType = "DiscoveryServer"
				r.AppURI = "urn:opcfoundation.org:UA:LDS"
			}))
		case 5: // Port-4840 noise, never reached OPC UA.
			recs = append(recs, &dataset.HostRecord{
				Address: addr, ASN: asn, Date: nb,
			})
		case 6: // Secure-channel rejection.
			recs = append(recs, rec(addr, asn, func(r *dataset.HostRecord) {
				r.CertRejected = true
				r.Cert = shared
			}))
		case 7: // Credential-only host.
			recs = append(recs, rec(addr, asn, func(r *dataset.HostRecord) {
				r.Endpoints[0].TokenTypes = []string{"UserName", "Certificate"}
				r.AnonOffered = false
			}))
		}
	}
	return recs
}

// TestAnalyzeWaveWorkersEquivalence requires the parallel assessment to
// be indistinguishable — field for field, including slice order — from
// the serial one. Run under -race this is also the data-race probe for
// the assessment pool.
func TestAnalyzeWaveWorkersEquivalence(t *testing.T) {
	recs := parallelFixture()
	date := recs[0].Date
	serial := analyzeWave(0, date, recs, 1)
	if len(serial.Servers) == 0 || serial.Discovery == 0 || len(serial.ReuseClusters) == 0 {
		t.Fatalf("fixture too thin: %d servers, %d discovery, %d clusters",
			len(serial.Servers), serial.Discovery, len(serial.ReuseClusters))
	}
	for _, workers := range []int{0, 2, 4, 16} {
		par := analyzeWave(0, date, recs, workers)
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("workers=%d: analysis differs from serial run", workers)
		}
	}
}
