package uacert

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"crypto/x509"
	"math/big"
	"sync"
	"testing"
	"time"
)

var (
	testPoolOnce sync.Once
	testPool     *KeyPool
)

// testKey returns a shared small test key; generating fresh RSA keys in
// every test would dominate the suite's runtime.
func testKey(t testing.TB, idx int) *rsa.PrivateKey {
	t.Helper()
	testPoolOnce.Do(func() {
		testPool = NewKeyPool()
		fillPool(testPool, 512, 2)
	})
	return testPool.Key(512, idx)
}

func TestGenerateAndParseRoundTrip(t *testing.T) {
	key := testKey(t, 0)
	opts := Options{
		CommonName:     "M1 Controller",
		Organization:   "Bachmann electronic",
		ApplicationURI: "urn:bachmann:m1:0001",
		SignatureHash:  HashSHA256,
		NotBefore:      time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:       time.Date(2039, 6, 1, 0, 0, 0, 0, time.UTC),
		SerialNumber:   big.NewInt(12345),
	}
	cert, err := Generate(key, opts)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if cert.SubjectCN != opts.CommonName || cert.SubjectOrg != opts.Organization {
		t.Errorf("subject = %q/%q", cert.SubjectCN, cert.SubjectOrg)
	}
	if cert.IssuerCN != opts.CommonName {
		t.Errorf("issuer = %q, want self-signed", cert.IssuerCN)
	}
	if !cert.SelfSigned() {
		t.Error("certificate should be self-signed")
	}
	if cert.ApplicationURI != opts.ApplicationURI {
		t.Errorf("application URI = %q", cert.ApplicationURI)
	}
	if cert.SignatureHash != HashSHA256 {
		t.Errorf("hash = %v", cert.SignatureHash)
	}
	if cert.KeyBits() != 512 {
		t.Errorf("key bits = %d", cert.KeyBits())
	}
	if !cert.NotBefore.Equal(opts.NotBefore) || !cert.NotAfter.Equal(opts.NotAfter) {
		t.Errorf("validity = %v..%v", cert.NotBefore, cert.NotAfter)
	}
	if cert.SerialNumber.Int64() != 12345 {
		t.Errorf("serial = %v", cert.SerialNumber)
	}
	if cert.PublicKey.N.Cmp(key.N) != 0 {
		t.Error("public key mismatch")
	}
	if err := verifySignatureFrom(cert, cert.PublicKey); err != nil {
		t.Errorf("self signature invalid: %v", err)
	}
}

func TestGenerateAllHashAlgorithms(t *testing.T) {
	key := testKey(t, 0)
	for _, h := range []HashAlg{HashMD5, HashSHA1, HashSHA256} {
		cert, err := Generate(key, Options{CommonName: "c", SignatureHash: h})
		if err != nil {
			t.Fatalf("Generate(%v): %v", h, err)
		}
		if cert.SignatureHash != h {
			t.Errorf("parsed hash = %v, want %v", cert.SignatureHash, h)
		}
		if err := verifySignatureFrom(cert, cert.PublicKey); err != nil {
			t.Errorf("signature with %v invalid: %v", h, err)
		}
	}
}

// TestSHA256CertParsesWithStdlib cross-checks our DER emitter against the
// standard library parser (stdlib accepts parsing SHA-1/MD5 certs but may
// reject verifying them, so only shape is checked).
func TestSHA256CertParsesWithStdlib(t *testing.T) {
	key := testKey(t, 0)
	cert, err := Generate(key, Options{
		CommonName:     "Interop",
		Organization:   "ACME",
		ApplicationURI: "urn:acme:device",
		SignatureHash:  HashSHA256,
	})
	if err != nil {
		t.Fatal(err)
	}
	std, err := x509.ParseCertificate(cert.Raw)
	if err != nil {
		t.Fatalf("stdlib rejects our DER: %v", err)
	}
	if std.Subject.CommonName != "Interop" {
		t.Errorf("stdlib CN = %q", std.Subject.CommonName)
	}
	if len(std.URIs) != 1 || std.URIs[0].String() != "urn:acme:device" {
		t.Errorf("stdlib URIs = %v", std.URIs)
	}
	pub, ok := std.PublicKey.(*rsa.PublicKey)
	if !ok || pub.N.Cmp(key.N) != 0 {
		t.Error("stdlib public key mismatch")
	}
}

func TestCASignedCertificate(t *testing.T) {
	caKey := testKey(t, 0)
	leafKey := testKey(t, 1)
	cert, err := Generate(leafKey, Options{
		CommonName:    "device-1",
		SignatureHash: HashSHA256,
		IssuerCN:      "Vendor CA",
		IssuerOrg:     "Vendor",
		IssuerKey:     caKey,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cert.SelfSigned() {
		t.Error("CA-signed cert should not be self-signed")
	}
	if cert.IssuerCN != "Vendor CA" || cert.IssuerOrg != "Vendor" {
		t.Errorf("issuer = %q/%q", cert.IssuerCN, cert.IssuerOrg)
	}
	if err := verifySignatureFrom(cert, &caKey.PublicKey); err != nil {
		t.Errorf("CA signature invalid: %v", err)
	}
	if err := verifySignatureFrom(cert, cert.PublicKey); err == nil {
		t.Error("verification with leaf key should fail")
	}
}

func TestThumbprintStableAndUnique(t *testing.T) {
	key := testKey(t, 0)
	c1, err := Generate(key, Options{CommonName: "a", SerialNumber: big.NewInt(1)})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Parse(c1.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1.Thumbprint(), c2.Thumbprint()) {
		t.Error("thumbprint not stable across parse")
	}
	if len(c1.Thumbprint()) != 20 {
		t.Errorf("thumbprint length = %d", len(c1.Thumbprint()))
	}
	c3, err := Generate(key, Options{CommonName: "a", SerialNumber: big.NewInt(2)})
	if err != nil {
		t.Fatal(err)
	}
	if c1.ThumbprintHex() == c3.ThumbprintHex() {
		t.Error("different certs share a thumbprint")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse(nil); err == nil {
		t.Error("nil DER should fail")
	}
	if _, err := Parse([]byte{0x30, 0x03, 0x02, 0x01, 0x01}); err == nil {
		t.Error("truncated DER should fail")
	}
	key := testKey(t, 0)
	cert, err := Generate(key, Options{CommonName: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(append(cert.Raw, 0x00)); err == nil {
		t.Error("trailing bytes should fail")
	}
}

func TestGenerateNilKey(t *testing.T) {
	if _, err := Generate(nil, Options{}); err == nil {
		t.Error("nil key should fail")
	}
}

func TestKeyPoolDeterministicIndexing(t *testing.T) {
	pool := NewKeyPool()
	k1 := pool.Key(512, 0)
	k2 := pool.Key(512, 0)
	if k1 != k2 {
		t.Error("same index should return same key")
	}
	k3 := pool.Key(512, 1)
	if k1.N.Cmp(k3.N) == 0 {
		t.Error("different indexes share a modulus")
	}
	if pool.Size(512) != 2 {
		t.Errorf("pool size = %d", pool.Size(512))
	}
	// A concurrent fill keeps the keys the pool already holds and adds
	// exactly the missing slots.
	fillPool(pool, 512, 4)
	if pool.Size(512) != 4 {
		t.Errorf("after concurrent fill size = %d", pool.Size(512))
	}
	if pool.Key(512, 0) != k1 || pool.Key(512, 1) != k3 {
		t.Error("concurrent fill replaced a key the pool already held")
	}
	// Slots are independent: a high index generates that key alone.
	k9 := pool.Key(512, 9)
	if pool.Size(512) != 5 || pool.Key(512, 9) != k9 {
		t.Errorf("after Key(512, 9) size = %d", pool.Size(512))
	}
}

func TestNewKeyFromPrimes(t *testing.T) {
	p, err := rand.Prime(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	q, err := rand.Prime(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	key, err := NewKeyFromPrimes(p, q)
	if err != nil {
		t.Fatalf("NewKeyFromPrimes: %v", err)
	}
	if key.N.BitLen() < 511 {
		t.Errorf("modulus bits = %d", key.N.BitLen())
	}
	// The constructed key must actually work for signing via certificates.
	cert, err := Generate(key, Options{CommonName: "weak", SignatureHash: HashSHA1})
	if err != nil {
		t.Fatal(err)
	}
	if err := verifySignatureFrom(cert, cert.PublicKey); err != nil {
		t.Errorf("signature with constructed key invalid: %v", err)
	}

	if _, err := NewKeyFromPrimes(p, p); err == nil {
		t.Error("equal primes should fail")
	}
	if _, err := NewKeyFromPrimes(nil, q); err == nil {
		t.Error("nil prime should fail")
	}
}

func TestHashAlgStrings(t *testing.T) {
	if HashMD5.String() != "MD5" || HashSHA1.String() != "SHA-1" ||
		HashSHA256.String() != "SHA-256" || HashUnknown.String() != "unknown" {
		t.Error("hash names wrong")
	}
	if HashUnknown.CryptoHash() != 0 {
		t.Error("unknown hash should map to 0")
	}
}

func BenchmarkGenerateCertificate(b *testing.B) {
	key := testKey(b, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(key, Options{CommonName: "bench", SignatureHash: HashSHA256}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseCertificate(b *testing.B) {
	key := testKey(b, 0)
	cert, err := Generate(key, Options{CommonName: "bench", ApplicationURI: "urn:b"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(cert.Raw); err != nil {
			b.Fatal(err)
		}
	}
}

// verifySignatureFrom checks the certificate signature against pub
// (c.PublicKey for self-signed certificates): the oracle the generator
// is tested against.
func verifySignatureFrom(c *Certificate, pub *rsa.PublicKey) error {
	h := c.SignatureHash.CryptoHash()
	digest := h.New()
	digest.Write(c.rawTBS)
	return rsa.VerifyPKCS1v15(pub, h, digest.Sum(nil), c.signature)
}
