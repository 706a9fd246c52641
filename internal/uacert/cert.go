// Package uacert builds and parses X.509v3 RSA certificates with its own
// DER codec. The measurement study needs certificates signed with MD5 and
// SHA-1 (Figure 4 of the paper), which crypto/x509 refuses to create, so
// certificate construction is implemented here directly on encoding/asn1.
//
// Only the certificate shape used by OPC UA appliances is supported:
// self-signed (or simple CA-signed) RSA certificates with a subject
// common name, an organization, and a subjectAltName URI carrying the
// OPC UA ApplicationURI.
package uacert

import (
	"crypto"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha1"
	"crypto/x509/pkix"
	"encoding/asn1"
	"encoding/hex"
	"errors"
	"fmt"
	"math/big"
	"time"
)

// HashAlg identifies the hash function inside a certificate signature.
type HashAlg int

// Supported signature hash algorithms.
const (
	HashUnknown HashAlg = iota
	HashMD5
	HashSHA1
	HashSHA256
)

// String implements fmt.Stringer.
func (h HashAlg) String() string {
	switch h {
	case HashMD5:
		return "MD5"
	case HashSHA1:
		return "SHA-1"
	case HashSHA256:
		return "SHA-256"
	default:
		return "unknown"
	}
}

// CryptoHash maps the algorithm to the stdlib crypto.Hash.
func (h HashAlg) CryptoHash() crypto.Hash {
	switch h {
	case HashMD5:
		return crypto.MD5
	case HashSHA1:
		return crypto.SHA1
	case HashSHA256:
		return crypto.SHA256
	default:
		return 0
	}
}

// Signature algorithm OIDs (PKCS#1).
var (
	oidMD5WithRSA     = asn1.ObjectIdentifier{1, 2, 840, 113549, 1, 1, 4}
	oidSHA1WithRSA    = asn1.ObjectIdentifier{1, 2, 840, 113549, 1, 1, 5}
	oidSHA256WithRSA  = asn1.ObjectIdentifier{1, 2, 840, 113549, 1, 1, 11}
	oidRSAEncryption  = asn1.ObjectIdentifier{1, 2, 840, 113549, 1, 1, 1}
	oidSubjectAltName = asn1.ObjectIdentifier{2, 5, 29, 17}
)

func sigOID(h HashAlg) (asn1.ObjectIdentifier, error) {
	switch h {
	case HashMD5:
		return oidMD5WithRSA, nil
	case HashSHA1:
		return oidSHA1WithRSA, nil
	case HashSHA256:
		return oidSHA256WithRSA, nil
	default:
		return nil, fmt.Errorf("uacert: unsupported signature hash %v", h)
	}
}

func hashFromOID(oid asn1.ObjectIdentifier) HashAlg {
	switch {
	case oid.Equal(oidMD5WithRSA):
		return HashMD5
	case oid.Equal(oidSHA1WithRSA):
		return HashSHA1
	case oid.Equal(oidSHA256WithRSA):
		return HashSHA256
	default:
		return HashUnknown
	}
}

// ASN.1 template structures mirroring RFC 5280.

type algorithmIdentifier struct {
	Algorithm  asn1.ObjectIdentifier
	Parameters asn1.RawValue `asn1:"optional"`
}

type validity struct {
	NotBefore, NotAfter time.Time
}

type subjectPublicKeyInfo struct {
	Algorithm algorithmIdentifier
	PublicKey asn1.BitString
}

type tbsCertificate struct {
	Raw          asn1.RawContent
	Version      int `asn1:"optional,explicit,default:0,tag:0"`
	SerialNumber *big.Int
	Signature    algorithmIdentifier
	Issuer       asn1.RawValue
	Validity     validity
	Subject      asn1.RawValue
	PublicKey    subjectPublicKeyInfo
	Extensions   []pkix.Extension `asn1:"optional,explicit,tag:3"`
}

type certificate struct {
	TBS            tbsCertificate
	SignatureAlg   algorithmIdentifier
	SignatureValue asn1.BitString
}

type rsaPublicKeyASN struct {
	N *big.Int
	E int
}

// Certificate is a parsed OPC UA application-instance certificate.
type Certificate struct {
	Raw            []byte
	SerialNumber   *big.Int
	SubjectCN      string
	SubjectOrg     string
	IssuerCN       string
	IssuerOrg      string
	NotBefore      time.Time
	NotAfter       time.Time
	SignatureHash  HashAlg
	PublicKey      *rsa.PublicKey
	ApplicationURI string

	rawIssuer  []byte
	rawSubject []byte
	signature  []byte
	rawTBS     []byte

	thumbprint    [sha1.Size]byte // SHA-1 of Raw, computed once by Parse
	thumbprintHex string
}

// Options configures certificate generation.
type Options struct {
	CommonName     string
	Organization   string
	ApplicationURI string
	SignatureHash  HashAlg
	NotBefore      time.Time
	NotAfter       time.Time
	SerialNumber   *big.Int // random if nil
	// Issuer defaults to the subject (self-signed). If IssuerKey is set,
	// the certificate is signed by the issuer instead.
	IssuerCN  string
	IssuerOrg string
	IssuerKey *rsa.PrivateKey
}

func marshalName(cn, org string) (asn1.RawValue, error) {
	name := pkix.Name{CommonName: cn}
	if org != "" {
		name.Organization = []string{org}
	}
	der, err := asn1.Marshal(name.ToRDNSequence())
	if err != nil {
		return asn1.RawValue{}, err
	}
	return asn1.RawValue{FullBytes: der}, nil
}

func parseName(raw []byte) (cn, org string, err error) {
	var rdns pkix.RDNSequence
	if _, err = asn1.Unmarshal(raw, &rdns); err != nil {
		return "", "", err
	}
	var name pkix.Name
	name.FillFromRDNSequence(&rdns)
	if len(name.Organization) > 0 {
		org = name.Organization[0]
	}
	return name.CommonName, org, nil
}

func marshalSANURI(uri string) (pkix.Extension, error) {
	inner, err := asn1.Marshal(asn1.RawValue{
		Class: asn1.ClassContextSpecific, Tag: 6, Bytes: []byte(uri),
	})
	if err != nil {
		return pkix.Extension{}, err
	}
	outer, err := asn1.Marshal(asn1.RawValue{
		Class: asn1.ClassUniversal, Tag: asn1.TagSequence,
		IsCompound: true, Bytes: inner,
	})
	if err != nil {
		return pkix.Extension{}, err
	}
	return pkix.Extension{Id: oidSubjectAltName, Value: outer}, nil
}

func parseSANURI(ext []byte) string {
	var outer asn1.RawValue
	if _, err := asn1.Unmarshal(ext, &outer); err != nil {
		return ""
	}
	rest := outer.Bytes
	for len(rest) > 0 {
		var v asn1.RawValue
		var err error
		rest, err = asn1.Unmarshal(rest, &v)
		if err != nil {
			return ""
		}
		if v.Class == asn1.ClassContextSpecific && v.Tag == 6 {
			return string(v.Bytes)
		}
	}
	return ""
}

// Generate creates a certificate for the given RSA key.
func Generate(key *rsa.PrivateKey, opts Options) (*Certificate, error) {
	if key == nil {
		return nil, errors.New("uacert: nil key")
	}
	if opts.SignatureHash == HashUnknown {
		opts.SignatureHash = HashSHA256
	}
	sigAlgOID, err := sigOID(opts.SignatureHash)
	if err != nil {
		return nil, err
	}
	serial := opts.SerialNumber
	if serial == nil {
		//studyvet:entropy-exempt — fallback for ad-hoc certs; campaign certs always pass a derived SerialNumber
		serial, err = rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), 64))
		if err != nil {
			return nil, fmt.Errorf("uacert: serial: %w", err)
		}
	}
	if opts.NotBefore.IsZero() {
		opts.NotBefore = time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	if opts.NotAfter.IsZero() {
		opts.NotAfter = opts.NotBefore.AddDate(20, 0, 0)
	}

	subject, err := marshalName(opts.CommonName, opts.Organization)
	if err != nil {
		return nil, fmt.Errorf("uacert: subject: %w", err)
	}
	issuerCN, issuerOrg := opts.CommonName, opts.Organization
	if opts.IssuerCN != "" {
		issuerCN, issuerOrg = opts.IssuerCN, opts.IssuerOrg
	}
	issuer, err := marshalName(issuerCN, issuerOrg)
	if err != nil {
		return nil, fmt.Errorf("uacert: issuer: %w", err)
	}

	pubDER, err := asn1.Marshal(rsaPublicKeyASN{N: key.N, E: key.E})
	if err != nil {
		return nil, fmt.Errorf("uacert: public key: %w", err)
	}

	var exts []pkix.Extension
	if opts.ApplicationURI != "" {
		san, err := marshalSANURI(opts.ApplicationURI)
		if err != nil {
			return nil, fmt.Errorf("uacert: SAN: %w", err)
		}
		exts = append(exts, san)
	}

	nullParams := asn1.RawValue{Tag: asn1.TagNull}
	tbs := tbsCertificate{
		Version:      2, // X.509v3
		SerialNumber: serial,
		Signature:    algorithmIdentifier{Algorithm: sigAlgOID, Parameters: nullParams},
		Issuer:       issuer,
		Validity:     validity{NotBefore: opts.NotBefore.UTC(), NotAfter: opts.NotAfter.UTC()},
		Subject:      subject,
		PublicKey: subjectPublicKeyInfo{
			Algorithm: algorithmIdentifier{Algorithm: oidRSAEncryption, Parameters: nullParams},
			PublicKey: asn1.BitString{Bytes: pubDER, BitLength: len(pubDER) * 8},
		},
		Extensions: exts,
	}
	tbsDER, err := asn1.Marshal(tbs)
	if err != nil {
		return nil, fmt.Errorf("uacert: TBS: %w", err)
	}

	signKey := key
	if opts.IssuerKey != nil {
		signKey = opts.IssuerKey
	}
	h := opts.SignatureHash.CryptoHash().New()
	h.Write(tbsDER)
	//studyvet:entropy-exempt — PKCS#1 v1.5 signing is deterministic; the rand.Reader argument is unused by the stdlib for signatures
	sig, err := rsa.SignPKCS1v15(rand.Reader, signKey, opts.SignatureHash.CryptoHash(), h.Sum(nil))
	if err != nil {
		return nil, fmt.Errorf("uacert: sign: %w", err)
	}

	cert := certificate{
		TBS:            tbsCertificate{Raw: tbsDER},
		SignatureAlg:   algorithmIdentifier{Algorithm: sigAlgOID, Parameters: nullParams},
		SignatureValue: asn1.BitString{Bytes: sig, BitLength: len(sig) * 8},
	}
	der, err := asn1.Marshal(cert)
	if err != nil {
		return nil, fmt.Errorf("uacert: certificate: %w", err)
	}
	return Parse(der)
}

// Parse decodes a DER certificate.
func Parse(der []byte) (*Certificate, error) {
	var cert certificate
	rest, err := asn1.Unmarshal(der, &cert)
	if err != nil {
		return nil, fmt.Errorf("uacert: parse: %w", err)
	}
	if len(rest) != 0 {
		return nil, errors.New("uacert: trailing bytes after certificate")
	}
	var pub rsaPublicKeyASN
	if _, err := asn1.Unmarshal(cert.TBS.PublicKey.PublicKey.Bytes, &pub); err != nil {
		return nil, fmt.Errorf("uacert: public key: %w", err)
	}
	if pub.N == nil || pub.N.Sign() <= 0 || pub.E <= 0 {
		return nil, errors.New("uacert: invalid RSA public key")
	}

	c := &Certificate{
		Raw:           append([]byte(nil), der...),
		thumbprint:    sha1.Sum(der),
		SerialNumber:  cert.TBS.SerialNumber,
		NotBefore:     cert.TBS.Validity.NotBefore,
		NotAfter:      cert.TBS.Validity.NotAfter,
		SignatureHash: hashFromOID(cert.SignatureAlg.Algorithm),
		PublicKey:     &rsa.PublicKey{N: pub.N, E: pub.E},
		rawIssuer:     cert.TBS.Issuer.FullBytes,
		rawSubject:    cert.TBS.Subject.FullBytes,
		signature:     cert.SignatureValue.Bytes,
		rawTBS:        cert.TBS.Raw,
	}
	c.thumbprintHex = hex.EncodeToString(c.thumbprint[:])
	if c.SubjectCN, c.SubjectOrg, err = parseName(c.rawSubject); err != nil {
		return nil, fmt.Errorf("uacert: subject: %w", err)
	}
	if c.IssuerCN, c.IssuerOrg, err = parseName(c.rawIssuer); err != nil {
		return nil, fmt.Errorf("uacert: issuer: %w", err)
	}
	for _, ext := range cert.TBS.Extensions {
		if ext.Id.Equal(oidSubjectAltName) {
			c.ApplicationURI = parseSANURI(ext.Value)
		}
	}
	return c, nil
}

// KeyBits returns the RSA modulus size in bits.
func (c *Certificate) KeyBits() int { return c.PublicKey.N.BitLen() }

// SelfSigned reports whether issuer and subject are byte-identical.
func (c *Certificate) SelfSigned() bool {
	return string(c.rawIssuer) == string(c.rawSubject)
}

// Thumbprint returns the SHA-1 hash of the DER encoding, the certificate
// identity used by OPC UA security headers and by the reuse analysis.
// Parse computes it once; the array is a copy, so no caller can alter
// the identity another caller reads.
func (c *Certificate) Thumbprint() [sha1.Size]byte { return c.thumbprint }

// ThumbprintHex returns the hex thumbprint, the key used to cluster
// certificate reuse across hosts. It is computed once by Parse.
func (c *Certificate) ThumbprintHex() string { return c.thumbprintHex }
