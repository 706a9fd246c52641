package dataset

import (
	"bytes"
	"io"
	"testing"
	"time"
)

// mutate changes r in every place a caller could change a record in
// place: each list element, each token type, the certificate.
func mutate(r *HostRecord) {
	for i := range r.Endpoints {
		r.Endpoints[i].URL += "!"
		for j := range r.Endpoints[i].TokenTypes {
			r.Endpoints[i].TokenTypes[j] += "!"
		}
	}
	for i := range r.Nodes {
		r.Nodes[i].ID += "!"
	}
	for i := range r.Namespaces {
		r.Namespaces[i] += "!"
	}
	if r.Cert != nil {
		r.Cert.SubjectOrg += "!"
	}
}

// deltaLines is what a delta campaign streams for two hosts over four
// waves: each host's record re-stamped every wave, the hosts
// interleaved, so all but the first line of each address is a clone.
func deltaLines(t *testing.T) [][]byte {
	t.Helper()
	var recs []*HostRecord
	issued := time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
	for wave := 0; wave < 4; wave++ {
		date := time.Date(2020, 2, 9, 0, 0, 0, 0, time.UTC).AddDate(0, 0, 7*wave)
		a := FromResult(sampleResult(), wave, date, 64601)
		a.Cert = &CertRecord{Thumbprint: "ab12", SubjectOrg: "B&R", NotBefore: issued, NotAfter: issued.AddDate(10, 0, 0)}
		b := FromResult(sampleResult(), wave, date, 64602)
		b.Address = "100.64.0.9:4840"
		recs = append(recs, a, b)
	}
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	return lines[:len(lines)-1] // the empty tail after the last newline
}

// TestDecoderRecordsShareNoMutableMemory: records decoded from a delta
// stream — clones of one parsed line — share no slice or certificate
// with each other or with the Decoder's memory. Changing every mutable
// part of each record as soon as it is decoded leaves every later one
// equal to its line, and changing one of them leaves the others alone.
func TestDecoderRecordsShareNoMutableMemory(t *testing.T) {
	lines := deltaLines(t)
	dec := NewDecoder(bytes.NewReader(bytes.Join(lines, nil)))
	var recs []*HostRecord
	for i, line := range lines {
		rec, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := AppendRecord(nil, rec); !bytes.Equal(append(got, '\n'), line) {
			t.Fatalf("record %d after changing those before it:\n got %s\nwant %s", i, got, line)
		}
		recs = append(recs, rec)
		mutate(rec)
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Fatalf("after the last line: %v, want EOF", err)
	}

	recs, err := Read(bytes.NewReader(bytes.Join(lines, nil)))
	if err != nil {
		t.Fatal(err)
	}
	mutate(recs[2])
	for i, rec := range recs {
		if i == 2 {
			continue
		}
		if got, _ := AppendRecord(nil, rec); !bytes.Equal(append(got, '\n'), lines[i]) {
			t.Errorf("record %d changed with record 2:\n got %s\nwant %s", i, got, lines[i])
		}
	}
}
