// Package dataset defines the measurement record format, the conversion
// from raw grabs, JSONL persistence, and the anonymization rules the
// paper applies before releasing data: IP addresses and autonomous
// systems become sequence numbers, certificate identity fields are
// blackened, and node payload data is dropped (Appendix A.1).
package dataset

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"time"

	"repro/internal/scanner"
	"repro/internal/uacert"
	"repro/internal/uamsg"
)

// EndpointRecord is one advertised endpoint.
type EndpointRecord struct {
	URL        string   `json:"url"`
	Mode       string   `json:"mode"`
	PolicyURI  string   `json:"policy"`
	TokenTypes []string `json:"token_types"`
}

// CertRecord is the analyzed server certificate. The modulus stays in
// the released dataset (public keys are public); identity fields are
// blackened by the anonymizer.
type CertRecord struct {
	Thumbprint string    `json:"thumbprint"`
	Hash       string    `json:"hash"`
	Bits       int       `json:"bits"`
	NotBefore  time.Time `json:"not_before"`
	NotAfter   time.Time `json:"not_after"`
	SubjectCN  string    `json:"subject_cn"`
	SubjectOrg string    `json:"subject_org"`
	AppURI     string    `json:"app_uri"`
	SelfSigned bool      `json:"self_signed"`
	ModulusB64 string    `json:"modulus"`
}

// NodeRecord is one traversed node (payload dropped on release).
type NodeRecord struct {
	ID          string `json:"id"`
	Class       string `json:"class"`
	DisplayName string `json:"display_name"`
	Readable    bool   `json:"readable"`
	Writable    bool   `json:"writable"`
	Executable  bool   `json:"executable"`
	ValueSample string `json:"value_sample,omitempty"`
}

// HostRecord is one scanned host in one wave, the unit of analysis.
type HostRecord struct {
	Wave    int       `json:"wave"`
	Date    time.Time `json:"date"`
	Address string    `json:"address"`
	ASN     int       `json:"asn"`
	Via     string    `json:"via"`

	ReachedOPCUA bool   `json:"reached_opcua"`
	Error        string `json:"error,omitempty"`
	// FailureClass is the resilience taxonomy class (timeout / reset /
	// malformed / retries-exhausted) of a classified discovery failure;
	// empty for reachable hosts and for campaigns without the taxonomy.
	FailureClass string `json:"failure_class,omitempty"`

	AppURI          string `json:"app_uri,omitempty"`
	ProductURI      string `json:"product_uri,omitempty"`
	ApplicationType string `json:"application_type,omitempty"`
	SoftwareVersion string `json:"software_version,omitempty"`

	Endpoints []EndpointRecord `json:"endpoints,omitempty"`
	Cert      *CertRecord      `json:"cert,omitempty"`

	SecureChannelAttempted bool   `json:"sc_attempted"`
	SecureChannelOK        bool   `json:"sc_ok"`
	SecureChannelPolicy    string `json:"sc_policy,omitempty"`
	CertRejected           bool   `json:"cert_rejected"`

	AnonOffered   bool   `json:"anon_offered"`
	AnonAttempted bool   `json:"anon_attempted"`
	AnonOK        bool   `json:"anon_ok"`
	AnonError     string `json:"anon_error,omitempty"`

	Namespaces []string     `json:"namespaces,omitempty"`
	Nodes      []NodeRecord `json:"nodes,omitempty"`

	Variables  int `json:"variables"`
	Readable   int `json:"readable"`
	Writable   int `json:"writable"`
	Methods    int `json:"methods"`
	Executable int `json:"executable"`

	Bytes    int64         `json:"bytes"`
	Duration time.Duration `json:"duration"`
}

// IsDiscovery reports whether the host is a discovery server.
func (r *HostRecord) IsDiscovery() bool {
	return r.ApplicationType == "DiscoveryServer"
}

// Accessible reports whether the anonymous session succeeded.
func (r *HostRecord) Accessible() bool { return r.AnonOK }

// FromResult converts a raw grab into a record.
func FromResult(res *scanner.Result, wave int, date time.Time, asn int) *HostRecord {
	rec := &HostRecord{
		Wave:         wave,
		Date:         date,
		Address:      res.Address,
		ASN:          asn,
		Via:          string(res.Via),
		ReachedOPCUA: res.ReachedOPCUA,
		Error:        res.Error,
		FailureClass: res.FailureClass,

		AppURI:          res.ApplicationURI,
		ProductURI:      res.ProductURI,
		SoftwareVersion: res.SoftwareVersion,

		SecureChannelAttempted: res.SecureChannel.Attempted,
		SecureChannelOK:        res.SecureChannel.OK,
		SecureChannelPolicy:    res.SecureChannel.PolicyURI,
		CertRejected:           res.SecureChannel.CertRejected,

		AnonOffered:   res.Session.Offered,
		AnonAttempted: res.Session.Attempted,
		AnonOK:        res.Session.OK,
		AnonError:     res.Session.Error,

		Namespaces: res.Namespaces,

		Variables:  res.NodeStats.Variables,
		Readable:   res.NodeStats.Readable,
		Writable:   res.NodeStats.Writable,
		Methods:    res.NodeStats.Methods,
		Executable: res.NodeStats.Executable,

		Bytes:    res.BytesTransferred,
		Duration: res.Duration,
	}
	switch res.ApplicationType {
	case uamsg.ApplicationDiscoveryServer:
		rec.ApplicationType = "DiscoveryServer"
	case uamsg.ApplicationServer:
		rec.ApplicationType = "Server"
	case uamsg.ApplicationClientAndServer:
		rec.ApplicationType = "ClientAndServer"
	}
	for _, ep := range res.Endpoints {
		er := EndpointRecord{
			URL:       ep.URL,
			Mode:      ep.SecurityMode.String(),
			PolicyURI: ep.SecurityPolicyURI,
		}
		for _, tt := range ep.TokenTypes {
			er.TokenTypes = append(er.TokenTypes, tt.String())
		}
		rec.Endpoints = append(rec.Endpoints, er)
	}
	if len(res.ServerCertDER) > 0 {
		// Certificates repeat across hosts (reuse clusters) and across
		// waves; the memoized parse reuses one parsed instance per
		// thumbprint instead of re-reading the DER per record.
		if cert, err := uacert.ParseCached(res.ServerCertDER); err == nil {
			rec.Cert = &CertRecord{
				Thumbprint: cert.ThumbprintHex(),
				Hash:       cert.SignatureHash.String(),
				Bits:       cert.KeyBits(),
				NotBefore:  cert.NotBefore,
				NotAfter:   cert.NotAfter,
				SubjectCN:  cert.SubjectCN,
				SubjectOrg: cert.SubjectOrg,
				AppURI:     cert.ApplicationURI,
				SelfSigned: cert.SelfSigned(),
				ModulusB64: base64.StdEncoding.EncodeToString(cert.PublicKey.N.Bytes()),
			}
		}
	}
	for _, n := range res.Nodes {
		rec.Nodes = append(rec.Nodes, NodeRecord{
			ID:          n.ID,
			Class:       n.Class,
			DisplayName: n.DisplayName,
			Readable:    n.Readable,
			Writable:    n.Writable,
			Executable:  n.Executable,
			ValueSample: n.ValueSample,
		})
	}
	return rec
}

// Anonymizer rewrites identifying fields with stable sequence numbers.
type Anonymizer struct {
	ips  map[string]int
	asns map[int]int
}

// NewAnonymizer returns an empty anonymizer; mappings are stable across
// calls so longitudinal analyses still work on released data.
func NewAnonymizer() *Anonymizer {
	return &Anonymizer{ips: make(map[string]int), asns: make(map[int]int)}
}

func (a *Anonymizer) ipSeq(ip string) int {
	if n, ok := a.ips[ip]; ok {
		return n
	}
	n := len(a.ips) + 1
	a.ips[ip] = n
	return n
}

func (a *Anonymizer) asnSeq(asn int) int {
	if n, ok := a.asns[asn]; ok {
		return n
	}
	n := len(a.asns) + 1
	a.asns[asn] = n
	return n
}

// Anonymize rewrites one record in place: host addresses become
// "host-N:port", ASNs become sequence numbers, certificate identity
// fields are blackened, node names and payload samples are dropped.
func (a *Anonymizer) Anonymize(rec *HostRecord) {
	host, port := splitAddress(rec.Address)
	rec.Address = fmt.Sprintf("host-%d:%s", a.ipSeq(host), port)
	rec.ASN = a.asnSeq(rec.ASN)
	for i := range rec.Endpoints {
		// Endpoint URLs contain addresses (possibly of other hosts).
		u := rec.Endpoints[i].URL
		if h, p, ok := splitEndpointURL(u); ok {
			rec.Endpoints[i].URL = fmt.Sprintf("opc.tcp://host-%d:%s", a.ipSeq(h), p)
		}
	}
	if rec.Cert != nil {
		rec.Cert.SubjectCN = "[redacted]"
		rec.Cert.SubjectOrg = "[redacted]"
		rec.Cert.AppURI = "[redacted]"
	}
	for i := range rec.Nodes {
		rec.Nodes[i].ValueSample = ""
		rec.Nodes[i].DisplayName = ""
	}
}

func splitAddress(addr string) (host, port string) {
	ap, err := netip.ParseAddrPort(addr)
	if err != nil {
		return addr, "4840"
	}
	return ap.Addr().String(), fmt.Sprintf("%d", ap.Port())
}

func splitEndpointURL(u string) (host, port string, ok bool) {
	const prefix = "opc.tcp://"
	if len(u) <= len(prefix) || u[:len(prefix)] != prefix {
		return "", "", false
	}
	h, p := splitAddress(u[len(prefix):])
	return h, p, true
}

// Clone returns a deep copy of the record covering every field the
// anonymizer mutates (certificate, endpoints, nodes), so release
// processing never touches the analysis-grade original.
func (r *HostRecord) Clone() *HostRecord {
	cp := *r
	if r.Cert != nil {
		cc := *r.Cert
		cp.Cert = &cc
	}
	cp.Nodes = append([]NodeRecord(nil), r.Nodes...)
	cp.Endpoints = append([]EndpointRecord(nil), r.Endpoints...)
	return &cp
}

// AnonymizedCopy clones the record and applies the release rules to the
// copy; the original stays analysis-grade.
func (a *Anonymizer) AnonymizedCopy(rec *HostRecord) *HostRecord {
	cp := rec.Clone()
	a.Anonymize(cp)
	return cp
}

// Encoder streams records to NDJSON one at a time — the unit the record
// pipeline works in. Callers must Flush (once, at the end) for the
// buffered tail to reach the underlying writer.
type Encoder struct {
	bw   *bufio.Writer
	line []byte // the line being written, reused
}

// NewEncoder returns an Encoder writing NDJSON to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{bw: bufio.NewWriter(w)}
}

// Encode appends one record line; a record that fails to encode writes
// nothing.
func (e *Encoder) Encode(r *HostRecord) error {
	line, err := AppendRecord(e.line[:0], r)
	if err == nil {
		e.line = append(line, '\n')
		_, err = e.bw.Write(e.line)
	}
	if err != nil {
		return fmt.Errorf("dataset: encode: %w", err)
	}
	return nil
}

// Flush drains the buffer to the underlying writer.
func (e *Encoder) Flush() error {
	if err := e.bw.Flush(); err != nil {
		return fmt.Errorf("dataset: flush: %w", err)
	}
	return nil
}

// Decoder streams records from NDJSON one at a time, so consumers (the
// shard merge, the incremental analyzer) never need a whole dataset in
// memory.
type Decoder struct {
	br   *bufio.Reader
	line int
}

// ErrTruncatedStream marks a stream whose final line ends mid-record:
// the writer was cut off (worker death, severed connection) before the
// line's terminating newline, and the fragment does not parse. Callers
// that tolerate torn tails — a coordinator discarding a dead worker's
// partial shard, a merge pass over salvaged files — detect it with
// errors.Is; a mid-stream parse failure stays a generic error because
// it means corruption, not truncation.
var ErrTruncatedStream = errors.New("dataset: stream truncated mid-record")

// maxDecodeLine bounds one NDJSON line (matching the encoder side and
// the fabric's frame bound) so a corrupt stream cannot balloon memory:
// Decode fails as soon as a line outgrows it, having buffered at most
// that much of it.
const maxDecodeLine = 16 << 20

// NewDecoder returns a Decoder reading NDJSON from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{br: bufio.NewReaderSize(r, 1<<20)}
}

// Decode returns the next record, or io.EOF after the last one. A
// final line missing its newline is decoded leniently when it parses;
// when it does not, the error wraps ErrTruncatedStream.
func (d *Decoder) Decode() (*HostRecord, error) {
	for {
		raw, terminated, err := d.readLine()
		if err != nil {
			return nil, err
		}
		line := bytes.TrimRight(raw, "\r\n")
		if len(line) == 0 {
			if !terminated {
				return nil, io.EOF
			}
			d.line++
			continue
		}
		d.line++
		rec, uerr := decodeRecord(line)
		if uerr != nil {
			if !terminated {
				return nil, fmt.Errorf("dataset: line %d: %w (%v)", d.line, ErrTruncatedStream, uerr)
			}
			return nil, fmt.Errorf("dataset: line %d: %w", d.line, uerr)
		}
		return rec, nil
	}
}

// readLine returns the next line with its terminator, and whether it has
// one (only the stream's final line may lack it). A line that fits the
// reader's buffer is returned in place, valid until the next read; a
// longer one is gathered into its own buffer, at most maxDecodeLine plus
// the terminator.
func (d *Decoder) readLine() (raw []byte, terminated bool, err error) {
	var long []byte
	for {
		frag, err := d.br.ReadSlice('\n')
		full := err == bufio.ErrBufferFull
		if err != nil && err != io.EOF && !full {
			return nil, false, fmt.Errorf("dataset: read: %w", err)
		}
		if long == nil && !full {
			return frag, err == nil, nil
		}
		if len(long)+len(bytes.TrimRight(frag, "\r\n")) > maxDecodeLine {
			return nil, false, fmt.Errorf("dataset: line %d exceeds %d bytes", d.line+1, maxDecodeLine)
		}
		if n := len(long) + len(frag); n > cap(long) {
			// Doubling, capped at the bound and a terminator: gathering a
			// line allocates about twice its length at most.
			long = append(make([]byte, 0, min(max(2*cap(long), n), maxDecodeLine+2)), long...)
		}
		long = append(long, frag...)
		if !full {
			return long, err == nil, nil
		}
	}
}

// Write streams records as JSON lines. It is a compatibility wrapper
// over the record-at-a-time Encoder, which pipeline code uses directly.
//
//studyvet:api — the benchmark module's tests write datasets through it
func Write(w io.Writer, recs []*HostRecord) error {
	enc := NewEncoder(w)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return enc.Flush()
}

// Read loads JSONL records. It is a compatibility wrapper over the
// streaming Decoder, which pipeline code uses directly.
//
//studyvet:api — the benchmark module's tests read datasets through it
func Read(r io.Reader) ([]*HostRecord, error) {
	var out []*HostRecord
	dec := NewDecoder(r)
	for {
		rec, err := dec.Decode()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}
