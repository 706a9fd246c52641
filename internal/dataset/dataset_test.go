package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/scanner"
	"repro/internal/uamsg"
)

func sampleResult() *scanner.Result {
	return &scanner.Result{
		Address:         "100.64.0.5:4840",
		Via:             scanner.ViaPortScan,
		Time:            time.Date(2020, 8, 30, 10, 0, 0, 0, time.UTC),
		ReachedOPCUA:    true,
		ApplicationURI:  "urn:bachmann.info:M1:0005",
		ApplicationType: uamsg.ApplicationServer,
		SoftwareVersion: "2.0.1",
		Endpoints: []scanner.EndpointInfo{{
			URL:               "opc.tcp://100.64.0.5:4840",
			SecurityMode:      uamsg.SecurityModeNone,
			SecurityPolicyURI: "http://opcfoundation.org/UA/SecurityPolicy#None",
			TokenTypes:        []uamsg.UserTokenType{uamsg.UserTokenAnonymous},
		}, {
			URL:               "opc.tcp://100.64.0.6:4841",
			SecurityMode:      uamsg.SecurityModeSignAndEncrypt,
			SecurityPolicyURI: "http://opcfoundation.org/UA/SecurityPolicy#Basic256Sha256",
			TokenTypes:        []uamsg.UserTokenType{uamsg.UserTokenUserName},
		}},
		Session:    scanner.SessionResult{Offered: true, Attempted: true, OK: true},
		Namespaces: []string{"http://opcfoundation.org/UA/", "http://bachmann.info/UA/M1"},
		Nodes: []scanner.NodeRecord{{
			ID: "ns=2;s=m3InflowPerHour_0", Class: "Variable",
			DisplayName: "m3InflowPerHour_0", Readable: true,
			ValueSample: "42.5",
		}},
		NodeStats:        scanner.NodeStats{Variables: 10, Readable: 9, Writable: 2, Methods: 3, Executable: 3},
		BytesTransferred: 12345,
		Duration:         110 * time.Millisecond,
	}
}

func TestFromResult(t *testing.T) {
	rec := FromResult(sampleResult(), 7, time.Date(2020, 8, 30, 0, 0, 0, 0, time.UTC), 64601)
	if rec.Wave != 7 || rec.ASN != 64601 || !rec.ReachedOPCUA {
		t.Errorf("rec = %+v", rec)
	}
	if rec.ApplicationType != "Server" || rec.IsDiscovery() {
		t.Errorf("application type = %q", rec.ApplicationType)
	}
	if len(rec.Endpoints) != 2 || rec.Endpoints[1].Mode != "SignAndEncrypt" {
		t.Errorf("endpoints = %+v", rec.Endpoints)
	}
	if rec.Endpoints[0].TokenTypes[0] != "Anonymous" {
		t.Errorf("token types = %v", rec.Endpoints[0].TokenTypes)
	}
	if !rec.Accessible() || rec.Readable != 9 || rec.Writable != 2 {
		t.Errorf("stats = %+v", rec)
	}
	if rec.Cert != nil {
		t.Error("no cert DER given, record should have nil cert")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	rec := FromResult(sampleResult(), 7, time.Now().UTC(), 64601)
	var buf bytes.Buffer
	if err := Write(&buf, []*HostRecord{rec, rec}); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("records = %d", len(got))
	}
	if got[0].Address != rec.Address || got[0].Readable != rec.Readable ||
		len(got[0].Endpoints) != len(rec.Endpoints) {
		t.Errorf("round trip mismatch: %+v", got[0])
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage accepted")
	}
	recs, err := Read(strings.NewReader("\n\n"))
	if err != nil || len(recs) != 0 {
		t.Errorf("blank lines: %v, %v", recs, err)
	}
}

func TestAnonymizer(t *testing.T) {
	a := NewAnonymizer()
	rec := FromResult(sampleResult(), 7, time.Now().UTC(), 64601)
	rec.Cert = &CertRecord{
		Thumbprint: "abc123",
		SubjectCN:  "Bachmann device",
		SubjectOrg: "Bachmann",
		AppURI:     "urn:bachmann.info:M1:0005",
	}
	a.Anonymize(rec)
	if rec.Address != "host-1:4840" {
		t.Errorf("address = %q", rec.Address)
	}
	if rec.ASN != 1 {
		t.Errorf("ASN = %d", rec.ASN)
	}
	if rec.Cert.SubjectCN != "[redacted]" || rec.Cert.SubjectOrg != "[redacted]" ||
		rec.Cert.AppURI != "[redacted]" {
		t.Errorf("cert fields not blackened: %+v", rec.Cert)
	}
	if rec.Cert.Thumbprint != "abc123" {
		t.Error("thumbprint must survive (needed for reuse analysis)")
	}
	for _, n := range rec.Nodes {
		if n.ValueSample != "" || n.DisplayName != "" {
			t.Error("node payload not dropped")
		}
	}
	// Endpoint URLs anonymized with stable mapping: second endpoint
	// points at another host → host-2.
	if rec.Endpoints[0].URL != "opc.tcp://host-1:4840" {
		t.Errorf("endpoint[0] = %q", rec.Endpoints[0].URL)
	}
	if rec.Endpoints[1].URL != "opc.tcp://host-2:4841" {
		t.Errorf("endpoint[1] = %q", rec.Endpoints[1].URL)
	}

	// Stability: anonymizing another record from the same host maps to
	// the same sequence number.
	rec2 := FromResult(sampleResult(), 6, time.Now().UTC(), 64601)
	a.Anonymize(rec2)
	if rec2.Address != "host-1:4840" || rec2.ASN != 1 {
		t.Errorf("anonymizer not stable: %q AS%d", rec2.Address, rec2.ASN)
	}
}

func TestAnonymizeUnparseableAddress(t *testing.T) {
	a := NewAnonymizer()
	rec := &HostRecord{Address: "weird"}
	a.Anonymize(rec)
	if !strings.HasPrefix(rec.Address, "host-") {
		t.Errorf("address = %q", rec.Address)
	}
}

// TestEncoderDecoderStreaming pins the record-at-a-time pipeline API:
// the streaming Encoder produces the exact bytes of the slice-based
// Write wrapper, and Decode yields the records one by one with io.EOF
// at the end.
func TestEncoderDecoderStreaming(t *testing.T) {
	recs := []*HostRecord{
		FromResult(sampleResult(), 6, time.Date(2020, 8, 23, 0, 0, 0, 0, time.UTC), 64601),
		FromResult(sampleResult(), 7, time.Date(2020, 8, 30, 0, 0, 0, 0, time.UTC), 64602),
	}

	var streamed bytes.Buffer
	enc := NewEncoder(&streamed)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	var sliced bytes.Buffer
	if err := Write(&sliced, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), sliced.Bytes()) {
		t.Errorf("streamed encoding differs from Write: %d vs %d bytes",
			streamed.Len(), sliced.Len())
	}

	dec := NewDecoder(&streamed)
	for i := range recs {
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.Wave != recs[i].Wave || got.Address != recs[i].Address {
			t.Errorf("record %d: wave %d %s, want wave %d %s",
				i, got.Wave, got.Address, recs[i].Wave, recs[i].Address)
		}
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Errorf("after last record: err = %v, want io.EOF", err)
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Errorf("Decode after EOF: err = %v, want io.EOF", err)
	}
}

// TestEncoderErrorWritesNothing pins the encoder's failure path: a
// record whose date has no RFC 3339 rendering fails to encode, the
// stream holds exactly the records before it, and the next record
// still encodes.
func TestEncoderErrorWritesNothing(t *testing.T) {
	good := FromResult(sampleResult(), 7, time.Date(2020, 8, 30, 0, 0, 0, 0, time.UTC), 64601)
	bad := FromResult(sampleResult(), 7, time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), 64601)

	var want bytes.Buffer
	if err := Write(&want, []*HostRecord{good, good}); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	enc := NewEncoder(&got)
	if err := enc.Encode(good); err != nil {
		t.Fatal(err)
	}
	err := enc.Encode(bad)
	if err == nil || !strings.Contains(err.Error(), "year outside of range [0,9999]") {
		t.Fatalf("year 10000: err = %v, want the year range error", err)
	}
	if err := enc.Encode(good); err != nil {
		t.Fatalf("record after the failed one: %v", err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("stream after a failed Encode:\n%s\nwant the two good records only:\n%s", got.Bytes(), want.Bytes())
	}
}

func TestDecoderRejectsGarbageLine(t *testing.T) {
	dec := NewDecoder(strings.NewReader("{\"wave\":7}\nnot json\n"))
	if _, err := dec.Decode(); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(); err == nil || err == io.EOF {
		t.Errorf("garbage line: err = %v, want parse error", err)
	}
}

// TestAnonymizedCopyLeavesOriginal pins the release-processing rule the
// pipeline sinks rely on: anonymization operates on a deep copy.
func TestAnonymizedCopyLeavesOriginal(t *testing.T) {
	a := NewAnonymizer()
	rec := FromResult(sampleResult(), 7, time.Now().UTC(), 64601)
	rec.Cert = &CertRecord{Thumbprint: "abc123", SubjectOrg: "Bachmann"}
	cp := a.AnonymizedCopy(rec)
	if cp.Address == rec.Address {
		t.Errorf("copy not anonymized: %q", cp.Address)
	}
	if rec.Address != "100.64.0.5:4840" || rec.Cert.SubjectOrg != "Bachmann" {
		t.Errorf("original mutated: %q %q", rec.Address, rec.Cert.SubjectOrg)
	}
	if rec.Nodes[0].ValueSample == "" {
		t.Error("original node payload dropped")
	}
}

// TestDecoderTruncatedFinalLine pins the torn-tail contract: a stream
// cut off mid-record (dead worker, severed connection) ends with a
// typed ErrTruncatedStream, a final line that merely lost its newline
// still decodes, and mid-stream garbage stays a generic parse error.
func TestDecoderTruncatedFinalLine(t *testing.T) {
	recs := []*HostRecord{
		FromResult(sampleResult(), 6, time.Date(2020, 8, 23, 0, 0, 0, 0, time.UTC), 64601),
		FromResult(sampleResult(), 7, time.Date(2020, 8, 30, 0, 0, 0, 0, time.UTC), 64602),
	}
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Cut mid way through the final record's line.
	dec := NewDecoder(bytes.NewReader(full[:len(full)-10]))
	if _, err := dec.Decode(); err != nil {
		t.Fatalf("first record: %v", err)
	}
	_, err := dec.Decode()
	if err == nil {
		t.Fatal("truncated final line decoded successfully")
	}
	if !errors.Is(err, ErrTruncatedStream) {
		t.Errorf("truncated final line: err = %v, want ErrTruncatedStream", err)
	}

	// A final line that parses but lacks its newline decodes leniently.
	dec = NewDecoder(bytes.NewReader(bytes.TrimRight(full, "\n")))
	for i := range recs {
		got, derr := dec.Decode()
		if derr != nil {
			t.Fatalf("record %d of newline-less stream: %v", i, derr)
		}
		if got.Wave != recs[i].Wave {
			t.Errorf("record %d: wave %d, want %d", i, got.Wave, recs[i].Wave)
		}
	}
	if _, derr := dec.Decode(); derr != io.EOF {
		t.Errorf("after newline-less tail: err = %v, want io.EOF", derr)
	}

	// Mid-stream corruption is not truncation.
	dec = NewDecoder(strings.NewReader("{\"wave\":6,\n{\"wave\":7}\n"))
	_, err = dec.Decode()
	if err == nil || errors.Is(err, ErrTruncatedStream) {
		t.Errorf("mid-stream garbage: err = %v, want generic parse error", err)
	}

	// An empty stream is just EOF, not a truncation.
	dec = NewDecoder(strings.NewReader(""))
	if _, derr := dec.Decode(); derr != io.EOF {
		t.Errorf("empty stream: err = %v, want io.EOF", derr)
	}
}

// repeatReader yields n copies of one byte without allocating them.
type repeatReader struct {
	b byte
	n int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, io.EOF
	}
	k := min(len(p), r.n)
	for i := range p[:k] {
		p[i] = r.b
	}
	r.n -= k
	return k, nil
}

// TestDecoderLineBoundIsEnforcedEarly feeds a 64 MiB stream without a
// newline: the decoder must fail on the line bound having buffered no
// more than the bound, not after reading the whole line.
func TestDecoderLineBoundIsEnforcedEarly(t *testing.T) {
	dec := NewDecoder(&repeatReader{b: 'x', n: 64 << 20})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := dec.Decode()
	runtime.ReadMemStats(&after)
	if want := fmt.Sprintf("dataset: line 1 exceeds %d bytes", maxDecodeLine); err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 40<<20 {
		t.Errorf("decoder allocated %d MiB before refusing the line, want < 40 MiB", alloc>>20)
	}
}

// TestDecoderLongLine decodes a record whose line is several times the
// reader's buffer, between two short ones.
func TestDecoderLongLine(t *testing.T) {
	long := FromResult(sampleResult(), 7, time.Date(2020, 8, 30, 0, 0, 0, 0, time.UTC), 64601)
	long.Namespaces = []string{strings.Repeat("n", 3<<20)}
	short := FromResult(sampleResult(), 7, time.Date(2020, 8, 30, 0, 0, 0, 0, time.UTC), 64602)
	var buf bytes.Buffer
	if err := Write(&buf, []*HostRecord{short, long, short}); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].ASN != 64602 || got[2].ASN != 64602 ||
		len(got[1].Namespaces) != 1 || got[1].Namespaces[0] != long.Namespaces[0] {
		t.Errorf("long line round trip lost records or content (%d records)", len(got))
	}
}
