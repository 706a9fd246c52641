package uapolicy

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/uacert"
	"repro/internal/uarsa"
)

var (
	keysOnce sync.Once
	key512   *rsa.PrivateKey
	key1024  *rsa.PrivateKey
)

func testKeys(t testing.TB) (*rsa.PrivateKey, *rsa.PrivateKey) {
	t.Helper()
	keysOnce.Do(func() {
		var err error
		if key512, err = rsa.GenerateKey(rand.Reader, 512); err != nil {
			t.Fatal(err)
		}
		if key1024, err = rsa.GenerateKey(rand.Reader, 1024); err != nil {
			t.Fatal(err)
		}
	})
	return key512, key1024
}

// keyFor picks a key large enough for the policy's OAEP overhead.
func keyFor(t testing.TB, p *Policy) *rsa.PrivateKey {
	k512, k1024 := testKeys(t)
	if p.asymEnc == encOAEPSHA256 {
		return k1024
	}
	return k512
}

func TestTable1Metadata(t *testing.T) {
	// The paper's Table 1, row by row.
	cases := []struct {
		abbrev     string
		name       string
		sigHash    uacert.HashAlg
		minBits    int
		maxBits    int
		deprecated bool
		insecure   bool
	}{
		{"N", "None", uacert.HashUnknown, 0, 0, false, true},
		{"D1", "Basic128Rsa15", uacert.HashSHA1, 1024, 2048, true, false},
		{"D2", "Basic256", uacert.HashSHA1, 1024, 2048, true, false},
		{"S1", "Aes128_Sha256_RsaOaep", uacert.HashSHA256, 2048, 4096, false, false},
		{"S2", "Basic256Sha256", uacert.HashSHA256, 2048, 4096, false, false},
		{"S3", "Aes256_Sha256_RsaPss", uacert.HashSHA256, 2048, 4096, false, false},
	}
	if len(All()) != len(cases) {
		t.Fatalf("policy count = %d", len(All()))
	}
	for i, c := range cases {
		p, ok := LookupAbbrev(c.abbrev)
		if !ok {
			t.Fatalf("missing policy %s", c.abbrev)
		}
		if p.Name != c.name || p.SignatureHash != c.sigHash ||
			p.MinKeyBits != c.minBits || p.MaxKeyBits != c.maxBits ||
			p.Deprecated != c.deprecated || p.Insecure != c.insecure {
			t.Errorf("%s: %+v", c.abbrev, p)
		}
		if p.Rank != i {
			t.Errorf("%s rank = %d, want %d", c.abbrev, p.Rank, i)
		}
		if All()[i] != p {
			t.Errorf("All() out of rank order at %d", i)
		}
		back, ok := Lookup(p.URI)
		if !ok || back != p {
			t.Errorf("URI lookup failed for %s", p.URI)
		}
	}
	// D2 additionally allows SHA-256 certificates (Table 1 "SHA1, SHA256").
	if len(Basic256.CertHashes) != 2 {
		t.Errorf("Basic256 cert hashes = %v", Basic256.CertHashes)
	}
	if !Basic256Sha256.IsSecure() || Basic128Rsa15.IsSecure() || None.IsSecure() {
		t.Error("IsSecure misclassifies")
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := Lookup("http://example.com/policy"); ok {
		t.Error("unknown URI should not resolve")
	}
	if _, ok := LookupAbbrev("X9"); ok {
		t.Error("unknown abbrev should not resolve")
	}
}

func secured() []*Policy {
	var out []*Policy
	for _, p := range All() {
		if !p.Insecure {
			out = append(out, p)
		}
	}
	return out
}

func TestAsymSignVerifyAllPolicies(t *testing.T) {
	data := []byte("open secure channel payload")
	for _, p := range secured() {
		key := keyFor(t, p)
		sig, err := p.AsymSignCtx(CryptoContext{}, key, data)
		if err != nil {
			t.Fatalf("%s: sign: %v", p.Name, err)
		}
		if len(sig) != p.AsymSignatureSize(&key.PublicKey) {
			t.Errorf("%s: signature size %d, want %d", p.Name, len(sig),
				p.AsymSignatureSize(&key.PublicKey))
		}
		if err := p.AsymVerifyCtx(CryptoContext{}, &key.PublicKey, data, sig); err != nil {
			t.Errorf("%s: verify: %v", p.Name, err)
		}
		sig[0] ^= 0xFF
		if err := p.AsymVerifyCtx(CryptoContext{}, &key.PublicKey, data, sig); err == nil {
			t.Errorf("%s: corrupted signature verified", p.Name)
		}
	}
}

func TestAsymEncryptDecryptAllPolicies(t *testing.T) {
	for _, p := range secured() {
		key := keyFor(t, p)
		blockSize, err := p.AsymPlainBlockSize(&key.PublicKey)
		if err != nil {
			t.Fatalf("%s: block size: %v", p.Name, err)
		}
		plain := bytes.Repeat([]byte{0x5A}, blockSize*3)
		ct, err := p.AsymEncryptCtx(CryptoContext{}, &key.PublicKey, plain)
		if err != nil {
			t.Fatalf("%s: encrypt: %v", p.Name, err)
		}
		if len(ct) != 3*p.AsymCipherBlockSize(&key.PublicKey) {
			t.Errorf("%s: ciphertext size %d", p.Name, len(ct))
		}
		pt, err := p.AsymDecryptCtx(CryptoContext{}, key, ct)
		if err != nil {
			t.Fatalf("%s: decrypt: %v", p.Name, err)
		}
		if !bytes.Equal(pt, plain) {
			t.Errorf("%s: round trip mismatch", p.Name)
		}
		// Unaligned input is rejected.
		if _, err := p.AsymEncryptCtx(CryptoContext{}, &key.PublicKey, plain[:blockSize+1]); err == nil {
			t.Errorf("%s: unaligned plaintext accepted", p.Name)
		}
		if _, err := p.AsymDecryptCtx(CryptoContext{}, key, ct[:len(ct)-1]); err == nil {
			t.Errorf("%s: unaligned ciphertext accepted", p.Name)
		}
	}
}

// TestAsymCtxMemoizationTransparent pins the crypto-cache soundness
// argument: with an engine in the context, every memoized operation
// returns results a direct computation accepts, cache hits reproduce
// the first computation bit-for-bit, and a deterministic Rand stream
// makes encryption reproduce bit-identically too (seeding and the
// encrypt memo have their own gate, TestEncryptSeedsDecrypt).
func TestAsymCtxMemoizationTransparent(t *testing.T) {
	data := []byte("open secure channel payload")
	for _, p := range secured() {
		key := keyFor(t, p)
		engine := uarsa.NewEngine(0)
		deriv := uarsa.NewDerivation([]byte("ctx-test"), []byte(p.URI))
		signCC := func() CryptoContext {
			return CryptoContext{Engine: engine, Rand: deriv.Stream("sign")}
		}
		sig1, err := p.AsymSignCtx(signCC(), key, data)
		if err != nil {
			t.Fatalf("%s: sign: %v", p.Name, err)
		}
		sig2, err := p.AsymSignCtx(signCC(), key, data)
		if err != nil || !bytes.Equal(sig1, sig2) {
			t.Errorf("%s: cached signature differs (%v)", p.Name, err)
		}
		if err := p.AsymVerifyCtx(CryptoContext{}, &key.PublicKey, data, sig1); err != nil {
			t.Errorf("%s: cached signature does not verify: %v", p.Name, err)
		}
		cc := CryptoContext{Engine: engine}
		if err := p.AsymVerifyCtx(cc, &key.PublicKey, data, sig1); err != nil {
			t.Errorf("%s: verify miss: %v", p.Name, err)
		}
		if err := p.AsymVerifyCtx(cc, &key.PublicKey, data, sig1); err != nil {
			t.Errorf("%s: verify hit: %v", p.Name, err)
		}
		bad := append([]byte(nil), sig1...)
		bad[0] ^= 0xFF
		if err := p.AsymVerifyCtx(cc, &key.PublicKey, data, bad); err == nil {
			t.Errorf("%s: corrupted signature verified through the engine", p.Name)
		}

		blockSize, err := p.AsymPlainBlockSize(&key.PublicKey)
		if err != nil {
			t.Fatalf("%s: block size: %v", p.Name, err)
		}
		plain := bytes.Repeat([]byte{0x5A}, blockSize*2)
		encCC := func() CryptoContext {
			return CryptoContext{Engine: engine, Rand: deriv.Stream("enc")}
		}
		ct1, err := p.AsymEncryptCtx(encCC(), &key.PublicKey, plain)
		if err != nil {
			t.Fatalf("%s: encrypt: %v", p.Name, err)
		}
		ct2, err := p.AsymEncryptCtx(encCC(), &key.PublicKey, plain)
		if err != nil || !bytes.Equal(ct1, ct2) {
			t.Errorf("%s: deterministic encryption not reproducible (%v)", p.Name, err)
		}
		pt1, err := p.AsymDecryptCtx(cc, key, ct1) // the entry the encrypt seeded
		if err != nil || !bytes.Equal(pt1, plain) {
			t.Errorf("%s: seeded decrypt round trip failed (%v)", p.Name, err)
		}
		ctFresh, err := p.AsymEncryptCtx(CryptoContext{}, &key.PublicKey, plain) // crypto/rand padding: unknown to the engine
		if err != nil {
			t.Fatalf("%s: encrypt: %v", p.Name, err)
		}
		for _, step := range []string{"miss", "hit"} {
			pt, err := p.AsymDecryptCtx(cc, key, ctFresh)
			if err != nil || !bytes.Equal(pt, plain) {
				t.Errorf("%s: decrypt %s round trip failed (%v)", p.Name, step, err)
			}
		}
		st := engine.Stats()
		if st.Sign.Hits == 0 || st.Verify.Hits == 0 || st.Decrypt.Hits == 0 {
			t.Errorf("%s: expected hits on all op kinds, got %+v", p.Name, st)
		}
	}
}

func TestNonePolicyRefusesCrypto(t *testing.T) {
	k, _ := testKeys(t)
	if _, err := None.AsymSignCtx(CryptoContext{}, k, []byte("x")); err == nil {
		t.Error("None.AsymSign should fail")
	}
	if err := None.AsymVerifyCtx(CryptoContext{}, &k.PublicKey, []byte("x"), nil); err == nil {
		t.Error("None.AsymVerify should fail")
	}
	if _, err := None.AsymEncryptCtx(CryptoContext{}, &k.PublicKey, nil); err == nil {
		t.Error("None.AsymEncrypt should fail")
	}
	if _, err := None.DeriveKeys([]byte("a"), []byte("b")); err == nil {
		t.Error("None.DeriveKeys should fail")
	}
	if _, err := None.SymSign(nil, nil); err == nil {
		t.Error("None.SymSign should fail")
	}
	if None.NewNonce() != nil {
		t.Error("None.NewNonce should be nil")
	}
}

func TestDeriveKeysDeterministicAndDirectional(t *testing.T) {
	for _, p := range secured() {
		cn := p.NewNonce()
		sn := p.NewNonce()
		if len(cn) != p.nonceLength {
			t.Errorf("%s: nonce length %d", p.Name, len(cn))
		}
		client1, err := p.DeriveKeys(sn, cn)
		if err != nil {
			t.Fatal(err)
		}
		client2, _ := p.DeriveKeys(sn, cn)
		server, _ := p.DeriveKeys(cn, sn)
		if !bytes.Equal(client1.SigningKey, client2.SigningKey) ||
			!bytes.Equal(client1.EncryptionKey, client2.EncryptionKey) ||
			!bytes.Equal(client1.IV, client2.IV) {
			t.Errorf("%s: derivation not deterministic", p.Name)
		}
		if bytes.Equal(client1.SigningKey, server.SigningKey) {
			t.Errorf("%s: client and server keys identical", p.Name)
		}
		if len(client1.EncryptionKey)*8 != p.symKeyBits {
			t.Errorf("%s: enc key bits = %d", p.Name, len(client1.EncryptionKey)*8)
		}
		if len(client1.IV) != 16 {
			t.Errorf("%s: IV length = %d", p.Name, len(client1.IV))
		}
		if len(client1.SigningKey) != p.sigKeyLen {
			t.Errorf("%s: signing key length = %d", p.Name, len(client1.SigningKey))
		}
	}
}

func TestPHashKnownProperties(t *testing.T) {
	// P_hash output must be deterministic, seed- and secret-sensitive,
	// and prefix-consistent for different lengths.
	f := func(secret, seed []byte) bool {
		if len(secret) == 0 || len(seed) == 0 {
			return true
		}
		a := pHash(sha256.New, secret, seed, 48)
		b := pHash(sha256.New, secret, seed, 80)
		return bytes.Equal(a, b[:48])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	x := pHash(sha256.New, []byte("s1"), []byte("seed"), 32)
	y := pHash(sha256.New, []byte("s2"), []byte("seed"), 32)
	z := pHash(sha256.New, []byte("s1"), []byte("tiny"), 32)
	if bytes.Equal(x, y) || bytes.Equal(x, z) {
		t.Error("pHash not sensitive to inputs")
	}
}

func TestSymmetricSignEncryptRoundTrip(t *testing.T) {
	for _, p := range secured() {
		keys, err := p.DeriveKeys(p.NewNonce(), p.NewNonce())
		if err != nil {
			t.Fatal(err)
		}
		msg := bytes.Repeat([]byte("industrial"), 16) // 160 bytes, block-aligned
		sig, err := p.SymSign(keys, msg)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if len(sig) != p.SymSignatureSize() {
			t.Errorf("%s: sym sig size %d, want %d", p.Name, len(sig), p.SymSignatureSize())
		}
		if err := p.SymVerify(keys, msg, sig); err != nil {
			t.Errorf("%s: sym verify: %v", p.Name, err)
		}
		if err := p.SymVerify(keys, msg[1:], sig); err == nil {
			t.Errorf("%s: modified message verified", p.Name)
		}

		buf := append([]byte(nil), msg...)
		if err := p.SymEncrypt(keys, buf); err != nil {
			t.Fatalf("%s: encrypt: %v", p.Name, err)
		}
		if bytes.Equal(buf, msg) {
			t.Errorf("%s: encryption is identity", p.Name)
		}
		if err := p.SymDecrypt(keys, buf); err != nil {
			t.Fatalf("%s: decrypt: %v", p.Name, err)
		}
		if !bytes.Equal(buf, msg) {
			t.Errorf("%s: symmetric round trip mismatch", p.Name)
		}
		if err := p.SymEncrypt(keys, msg[:15]); err == nil {
			t.Errorf("%s: unaligned encrypt accepted", p.Name)
		}
	}
}

func TestCheckCertificateConformance(t *testing.T) {
	cases := []struct {
		policy *Policy
		hash   uacert.HashAlg
		bits   int
		want   CertificateConformance
	}{
		// Figure 4 core case: S2 requires SHA-256 with 2048..4096 bits.
		{Basic256Sha256, uacert.HashSHA256, 2048, CertConformant},
		{Basic256Sha256, uacert.HashSHA1, 2048, CertTooWeak},
		{Basic256Sha256, uacert.HashMD5, 2048, CertTooWeak},
		{Basic256Sha256, uacert.HashSHA256, 1024, CertTooWeak},
		{Basic256Sha256, uacert.HashSHA1, 1024, CertTooWeak},
		// D1: SHA-1 with 1024..2048; SHA-256 is "too strong" (paper §5.2).
		{Basic128Rsa15, uacert.HashSHA1, 1024, CertConformant},
		{Basic128Rsa15, uacert.HashSHA1, 2048, CertConformant},
		{Basic128Rsa15, uacert.HashSHA256, 2048, CertTooStrong},
		{Basic128Rsa15, uacert.HashSHA1, 4096, CertTooStrong},
		{Basic128Rsa15, uacert.HashMD5, 1024, CertTooWeak},
		{Basic128Rsa15, uacert.HashSHA1, 512, CertTooWeak},
		// D2 allows both SHA-1 and SHA-256 certificates.
		{Basic256, uacert.HashSHA256, 2048, CertConformant},
		{Basic256, uacert.HashSHA1, 1024, CertConformant},
		{Basic256, uacert.HashMD5, 1024, CertTooWeak},
		// None never complains.
		{None, uacert.HashMD5, 512, CertConformant},
	}
	for _, c := range cases {
		if got := c.policy.CheckCertificate(c.hash, c.bits); got != c.want {
			t.Errorf("%s(%v, %d) = %v, want %v", c.policy.Name, c.hash, c.bits, got, c.want)
		}
	}
}

func TestConformanceStrings(t *testing.T) {
	if CertConformant.String() != "conformant" || CertTooWeak.String() != "too weak" ||
		CertTooStrong.String() != "too strong" {
		t.Error("conformance strings wrong")
	}
	if Basic256Sha256.String() != "Basic256Sha256" {
		t.Error("policy String wrong")
	}
	if Basic256Sha256.SecurityLevel() <= Basic128Rsa15.SecurityLevel() {
		t.Error("security levels not monotone")
	}
}

func BenchmarkDeriveKeys(b *testing.B) {
	p := Basic256Sha256
	cn, sn := p.NewNonce(), p.NewNonce()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.DeriveKeys(sn, cn); err != nil {
			b.Fatal(err)
		}
	}
}

// symChunk is the chunk size of symEncryptSign.
const symChunk = 4096

// symEncryptSign encrypts and signs one chunk under a Basic256Sha256
// channel's keys, the operation BenchmarkSymEncryptSign and
// TestSymEncryptSignAllocBudget measure.
func symEncryptSign(tb testing.TB) func() {
	p := Basic256Sha256
	keys, _ := p.DeriveKeys(p.NewNonce(), p.NewNonce())
	msg := make([]byte, symChunk)
	return func() {
		if err := p.SymEncrypt(keys, msg); err != nil {
			tb.Fatal(err)
		}
		if _, err := p.SymSign(keys, msg); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkSymEncryptSign(b *testing.B) {
	op := symEncryptSign(b)
	b.SetBytes(symChunk)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op()
	}
}
