// Package uapolicy implements the six OPC UA security policies of the
// paper's Table 1 with working cryptography from the standard library:
// RSA key transport (PKCS#1 v1.5 and OAEP), RSA signatures (PKCS#1 v1.5
// and PSS), AES-CBC message encryption, HMAC message authentication, and
// the P_SHA1/P_SHA256 key-derivation PRF.
package uapolicy

import (
	"crypto"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha1"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/big"
	"sync"

	"repro/internal/uacert"
	"repro/internal/uarsa"
)

// Security policy URIs (OPC 10000-7).
const (
	URINone           = "http://opcfoundation.org/UA/SecurityPolicy#None"
	URIBasic128Rsa15  = "http://opcfoundation.org/UA/SecurityPolicy#Basic128Rsa15"
	URIBasic256       = "http://opcfoundation.org/UA/SecurityPolicy#Basic256"
	URIAes128Sha256   = "http://opcfoundation.org/UA/SecurityPolicy#Aes128_Sha256_RsaOaep"
	URIBasic256Sha256 = "http://opcfoundation.org/UA/SecurityPolicy#Basic256Sha256"
	URIAes256Sha256   = "http://opcfoundation.org/UA/SecurityPolicy#Aes256_Sha256_RsaPss"
)

// asymEncScheme selects the RSA key-transport primitive.
type asymEncScheme int

const (
	encNone asymEncScheme = iota
	encPKCS1v15
	encOAEPSHA1
	encOAEPSHA256
)

// asymSigScheme selects the RSA signature primitive.
type asymSigScheme int

const (
	sigNone asymSigScheme = iota
	sigPKCS1v15SHA1
	sigPKCS1v15SHA256
	sigPSSSHA256
)

// Policy describes one security policy: its Table 1 metadata and its
// crypto suite parameters.
type Policy struct {
	URI    string
	Name   string
	Abbrev string // paper abbreviation: N, D1, D2, S1, S2, S3

	// Table 1 metadata.
	SignatureHash uacert.HashAlg   // required certificate signature hash
	CertHashes    []uacert.HashAlg // hashes the policy permits in certificates
	MinKeyBits    int
	MaxKeyBits    int
	Deprecated    bool // D1, D2: SHA-1 based, deprecated 2017
	Insecure      bool // None

	// Rank orders policies from weakest (0 = None) to strongest; the
	// study uses it for "least/most secure" analyses (Figure 3).
	Rank int

	// Crypto suite.
	asymEnc     asymEncScheme
	asymSig     asymSigScheme
	symKeyBits  int // AES key size for message encryption
	sigKeyLen   int // derived signing key length
	symSigHash  func() hash.Hash
	symSigSize  int
	nonceLength int
	prf         func() hash.Hash
}

// The six policies, ordered by rank.
var (
	None = &Policy{
		URI: URINone, Name: "None", Abbrev: "N",
		Insecure: true, Rank: 0,
	}
	Basic128Rsa15 = &Policy{
		URI: URIBasic128Rsa15, Name: "Basic128Rsa15", Abbrev: "D1",
		SignatureHash: uacert.HashSHA1,
		CertHashes:    []uacert.HashAlg{uacert.HashSHA1},
		MinKeyBits:    1024, MaxKeyBits: 2048,
		Deprecated: true, Rank: 1,
		asymEnc: encPKCS1v15, asymSig: sigPKCS1v15SHA1,
		symKeyBits: 128, sigKeyLen: 16,
		symSigHash: sha1.New, symSigSize: sha1.Size,
		nonceLength: 16, prf: sha1.New,
	}
	Basic256 = &Policy{
		URI: URIBasic256, Name: "Basic256", Abbrev: "D2",
		SignatureHash: uacert.HashSHA1,
		CertHashes:    []uacert.HashAlg{uacert.HashSHA1, uacert.HashSHA256},
		MinKeyBits:    1024, MaxKeyBits: 2048,
		Deprecated: true, Rank: 2,
		asymEnc: encOAEPSHA1, asymSig: sigPKCS1v15SHA1,
		symKeyBits: 256, sigKeyLen: 24,
		symSigHash: sha1.New, symSigSize: sha1.Size,
		nonceLength: 32, prf: sha1.New,
	}
	Aes128Sha256RsaOaep = &Policy{
		URI: URIAes128Sha256, Name: "Aes128_Sha256_RsaOaep", Abbrev: "S1",
		SignatureHash: uacert.HashSHA256,
		CertHashes:    []uacert.HashAlg{uacert.HashSHA256},
		MinKeyBits:    2048, MaxKeyBits: 4096,
		Rank:    3,
		asymEnc: encOAEPSHA1, asymSig: sigPKCS1v15SHA256,
		symKeyBits: 128, sigKeyLen: 32,
		symSigHash: sha256.New, symSigSize: sha256.Size,
		nonceLength: 32, prf: sha256.New,
	}
	Basic256Sha256 = &Policy{
		URI: URIBasic256Sha256, Name: "Basic256Sha256", Abbrev: "S2",
		SignatureHash: uacert.HashSHA256,
		CertHashes:    []uacert.HashAlg{uacert.HashSHA256},
		MinKeyBits:    2048, MaxKeyBits: 4096,
		Rank:    4,
		asymEnc: encOAEPSHA1, asymSig: sigPKCS1v15SHA256,
		symKeyBits: 256, sigKeyLen: 32,
		symSigHash: sha256.New, symSigSize: sha256.Size,
		nonceLength: 32, prf: sha256.New,
	}
	Aes256Sha256RsaPss = &Policy{
		URI: URIAes256Sha256, Name: "Aes256_Sha256_RsaPss", Abbrev: "S3",
		SignatureHash: uacert.HashSHA256,
		CertHashes:    []uacert.HashAlg{uacert.HashSHA256},
		MinKeyBits:    2048, MaxKeyBits: 4096,
		Rank:    5,
		asymEnc: encOAEPSHA256, asymSig: sigPSSSHA256,
		symKeyBits: 256, sigKeyLen: 32,
		symSigHash: sha256.New, symSigSize: sha256.Size,
		nonceLength: 32, prf: sha256.New,
	}
)

var all = []*Policy{None, Basic128Rsa15, Basic256, Aes128Sha256RsaOaep,
	Basic256Sha256, Aes256Sha256RsaPss}

var byURI = func() map[string]*Policy {
	m := make(map[string]*Policy, len(all))
	for _, p := range all {
		m[p.URI] = p
	}
	return m
}()

var byAbbrev = func() map[string]*Policy {
	m := make(map[string]*Policy, len(all))
	for _, p := range all {
		m[p.Abbrev] = p
	}
	return m
}()

// All returns the policies ordered by rank (weakest first).
func All() []*Policy { return all }

// Lookup resolves a policy URI.
func Lookup(uri string) (*Policy, bool) {
	p, ok := byURI[uri]
	return p, ok
}

// LookupAbbrev resolves a paper abbreviation (N, D1, D2, S1, S2, S3).
func LookupAbbrev(a string) (*Policy, bool) {
	p, ok := byAbbrev[a]
	return p, ok
}

// IsSecure reports whether the policy is neither None nor deprecated,
// i.e. one of the recommended S1/S2/S3 policies.
func (p *Policy) IsSecure() bool { return !p.Insecure && !p.Deprecated }

// String implements fmt.Stringer.
func (p *Policy) String() string { return p.Name }

// SecurityLevel returns the advertised endpoint security level; higher is
// stronger. None is 0.
func (p *Policy) SecurityLevel() byte { return byte(p.Rank) }

// NewNonce returns a fresh random channel nonce.
func (p *Policy) NewNonce() []byte { return p.NonceFrom(nil) }

// NonceFrom draws a channel nonce from r (nil means crypto/rand).
// Deterministic handshakes pass a labeled uarsa.Stream so an unchanged
// host's exchange replays bit-identically across waves (DESIGN.md §4).
func (p *Policy) NonceFrom(r io.Reader) []byte {
	if p.nonceLength == 0 {
		return nil
	}
	if r == nil {
		//studyvet:entropy-exempt — fallback for interactive use; deterministic handshakes always pass a labeled uarsa.Stream
		r = rand.Reader
	}
	b := make([]byte, p.nonceLength)
	if _, err := io.ReadFull(r, b); err != nil {
		panic("uapolicy: nonce source failed: " + err.Error())
	}
	return b
}

// CryptoContext threads the optional memoization engine and the
// (possibly deterministic) random source through the asymmetric
// operations. The zero value computes directly with crypto/rand — the
// legacy behavior. When Engine is set, AsymSign/AsymVerify/AsymDecrypt
// results are memoized by (operation, scheme, key fingerprint, input
// digest), and AsymEncrypt results too when Rand is an unconsumed
// uarsa.Stream (its seed joins the key); see package uarsa for why that
// is semantically transparent.
type CryptoContext struct {
	Engine *uarsa.Engine
	Rand   io.Reader
}

// rand returns the context's random source, defaulting to crypto/rand.
func (cc CryptoContext) rand() io.Reader {
	if cc.Rand != nil {
		return cc.Rand
	}
	//studyvet:entropy-exempt — legacy zero-value behavior; campaign contexts always set Rand to a uarsa stream
	return rand.Reader
}

// verifiedOK is the cached sentinel for a successful verification.
var verifiedOK = []byte{}

// errors
var (
	ErrNoCrypto         = errors.New("uapolicy: policy None has no cryptographic primitives")
	ErrInvalidSignature = errors.New("uapolicy: signature verification failed")
	ErrKeyTooSmall      = errors.New("uapolicy: RSA key too small for policy")
)

// --- Asymmetric operations (OpenSecureChannel) ---

// AsymSignatureSize returns the signature size in bytes for the key.
func (p *Policy) AsymSignatureSize(key *rsa.PublicKey) int {
	if p.asymSig == sigNone {
		return 0
	}
	return key.Size()
}

// AsymPlainBlockSize returns the maximum plaintext block fed into one RSA
// encryption operation.
func (p *Policy) AsymPlainBlockSize(key *rsa.PublicKey) (int, error) {
	k := key.Size()
	var overhead int
	switch p.asymEnc {
	case encNone:
		return 0, ErrNoCrypto
	case encPKCS1v15:
		overhead = 11
	case encOAEPSHA1:
		overhead = 2*sha1.Size + 2
	case encOAEPSHA256:
		overhead = 2*sha256.Size + 2
	}
	if k <= overhead {
		return 0, ErrKeyTooSmall
	}
	return k - overhead, nil
}

// AsymCipherBlockSize returns the ciphertext block size (the key size).
func (p *Policy) AsymCipherBlockSize(key *rsa.PublicKey) int { return key.Size() }

// AsymSignCtx signs data, memoizing by (key fingerprint, input digest)
// when the context carries an engine. PKCS#1 v1.5 signatures are
// deterministic, so the cached bytes equal a recomputation; PSS
// signatures replayed from cache are equally valid, and bit-identical
// to a recomputation whenever the context's Rand is a deterministic
// stream. Cached signatures are shared: callers must not modify them.
func (p *Policy) AsymSignCtx(cc CryptoContext, key *rsa.PrivateKey, data []byte) ([]byte, error) {
	if p.asymSig == sigNone {
		return nil, ErrNoCrypto
	}
	var fp uarsa.Fingerprint
	var dg [32]byte
	if cc.Engine != nil {
		fp = cc.Engine.Fingerprint(&key.PublicKey)
		dg = uarsa.Digest(data)
		if sig, ok := cc.Engine.Get(uarsa.OpSign, uint8(p.asymSig), fp, dg); ok {
			return sig, nil
		}
	}
	sig, err := p.asymSign(cc.rand(), key, data)
	if err == nil && cc.Engine != nil {
		cc.Engine.Put(uarsa.OpSign, uint8(p.asymSig), fp, dg, sig)
	}
	return sig, err
}

func (p *Policy) asymSign(r io.Reader, key *rsa.PrivateKey, data []byte) ([]byte, error) {
	switch p.asymSig {
	case sigPKCS1v15SHA1:
		d := sha1.Sum(data)
		return rsa.SignPKCS1v15(r, key, crypto.SHA1, d[:])
	case sigPKCS1v15SHA256:
		d := sha256.Sum256(data)
		return rsa.SignPKCS1v15(r, key, crypto.SHA256, d[:])
	case sigPSSSHA256:
		d := sha256.Sum256(data)
		return rsa.SignPSS(r, key, crypto.SHA256, d[:],
			&rsa.PSSOptions{SaltLength: rsa.PSSSaltLengthEqualsHash})
	default:
		return nil, ErrNoCrypto
	}
}

// AsymVerifyCtx verifies a signature; verification is a pure predicate
// of (key, data, sig), so successes are memoized (failures never are).
func (p *Policy) AsymVerifyCtx(cc CryptoContext, key *rsa.PublicKey, data, sig []byte) error {
	if p.asymSig == sigNone {
		return ErrNoCrypto
	}
	var fp uarsa.Fingerprint
	var dg [32]byte
	if cc.Engine != nil {
		fp = cc.Engine.Fingerprint(key)
		dg = uarsa.Digest(data, sig)
		if _, ok := cc.Engine.Get(uarsa.OpVerify, uint8(p.asymSig), fp, dg); ok {
			return nil
		}
	}
	if err := p.asymVerify(key, data, sig); err != nil {
		return err
	}
	if cc.Engine != nil {
		cc.Engine.Put(uarsa.OpVerify, uint8(p.asymSig), fp, dg, verifiedOK)
	}
	return nil
}

func (p *Policy) asymVerify(key *rsa.PublicKey, data, sig []byte) error {
	switch p.asymSig {
	case sigPKCS1v15SHA1:
		d := sha1.Sum(data)
		if rsa.VerifyPKCS1v15(key, crypto.SHA1, d[:], sig) != nil {
			return ErrInvalidSignature
		}
	case sigPKCS1v15SHA256:
		d := sha256.Sum256(data)
		if rsa.VerifyPKCS1v15(key, crypto.SHA256, d[:], sig) != nil {
			return ErrInvalidSignature
		}
	case sigPSSSHA256:
		d := sha256.Sum256(data)
		if rsa.VerifyPSS(key, crypto.SHA256, d[:], sig,
			&rsa.PSSOptions{SaltLength: rsa.PSSSaltLengthEqualsHash}) != nil {
			return ErrInvalidSignature
		}
	default:
		return ErrNoCrypto
	}
	return nil
}

// AsymEncryptCtx encrypts data, drawing padding from the context's Rand.
// Fresh padding is what makes RSA encryption non-deterministic, so the
// result is memoized only when the padding is not fresh: when the
// context carries an engine and Rand is an unconsumed *uarsa.Stream, the
// ciphertext is a pure function of (scheme, key, stream seed, plaintext)
// and is keyed by exactly that — a hit returns the bytes a
// recomputation would produce and leaves the stream untouched (a
// context's stream serves one operation). Any other Rand computes.
//
// On a miss the engine also receives the decrypt entry for the new
// ciphertext, (key, Digest(ciphertext)) → a private copy of data. That
// is the statement Dec(Enc(P)) = P, stored by the one side that knows it
// without a private-key operation; a peer whose private key matches key
// and who receives these exact bytes finds it in AsymDecryptCtx, and any
// other peer or any altered ciphertext misses and really decrypts.
// Cached ciphertexts are shared: callers must not modify them.
func (p *Policy) AsymEncryptCtx(cc CryptoContext, key *rsa.PublicKey, data []byte) ([]byte, error) {
	plainBlock, err := p.AsymPlainBlockSize(key)
	if err != nil {
		return nil, err
	}
	if len(data)%plainBlock != 0 {
		return nil, fmt.Errorf("uapolicy: plaintext length %d not a multiple of block size %d",
			len(data), plainBlock)
	}
	var fp uarsa.Fingerprint
	var dg [32]byte
	memo := false
	if stream, ok := cc.Rand.(*uarsa.Stream); ok && cc.Engine != nil {
		var seed [32]byte
		seed, memo = stream.Seed()
		if memo {
			fp = cc.Engine.Fingerprint(key)
			dg = uarsa.Digest(seed[:], data)
			if ct, ok := cc.Engine.Get(uarsa.OpEncrypt, uint8(p.asymEnc), fp, dg); ok {
				return ct, nil
			}
		}
	}
	r := cc.rand()
	out := make([]byte, 0, (len(data)/plainBlock)*key.Size())
	for off := 0; off < len(data); off += plainBlock {
		var ct []byte
		block := data[off : off+plainBlock]
		switch p.asymEnc {
		case encPKCS1v15:
			if cc.Rand != nil {
				// The stdlib deliberately reads a byte from the random
				// source with 50% probability (randutil.MaybeReadByte), so
				// its padding is not reproducible even from a fixed
				// stream. Deterministic handshakes need bit-identical
				// ciphertext — it is what lets the peer's memoized decrypt
				// hit — so the v1.5 padding is applied here, consuming the
				// stream exactly.
				ct, err = encryptPKCS1v15Det(cc.Rand, key, block)
			} else {
				ct, err = rsa.EncryptPKCS1v15(r, key, block)
			}
		case encOAEPSHA1:
			ct, err = rsa.EncryptOAEP(sha1.New(), r, key, block, nil)
		case encOAEPSHA256:
			ct, err = rsa.EncryptOAEP(sha256.New(), r, key, block, nil)
		default:
			return nil, ErrNoCrypto
		}
		if err != nil {
			return nil, fmt.Errorf("uapolicy: asymmetric encrypt: %w", err)
		}
		out = append(out, ct...)
	}
	if memo {
		cc.Engine.Put(uarsa.OpEncrypt, uint8(p.asymEnc), fp, dg, out)
		// data is the caller's (pooled) buffer; the engine owns what it stores.
		cc.Engine.Put(uarsa.OpDecrypt, uint8(p.asymEnc), fp, uarsa.Digest(out), append([]byte(nil), data...))
	}
	return out, nil
}

// encryptPKCS1v15Det is RSAES-PKCS1-v1_5 encryption (RFC 8017 §7.2.1)
// with the nonzero padding bytes drawn exactly from r: EM = 00 || 02 ||
// PS || 00 || M, then the public-key operation. It produces the same
// ciphertext class as rsa.EncryptPKCS1v15 — rsa.DecryptPKCS1v15 inverts
// it — but consumes the stream reproducibly.
func encryptPKCS1v15Det(r io.Reader, key *rsa.PublicKey, msg []byte) ([]byte, error) {
	k := key.Size()
	if len(msg) > k-11 {
		return nil, fmt.Errorf("uapolicy: message too long for PKCS#1 v1.5")
	}
	em := make([]byte, k)
	em[1] = 2
	ps := em[2 : k-len(msg)-1]
	if _, err := io.ReadFull(r, ps); err != nil {
		return nil, err
	}
	for i := range ps {
		for ps[i] == 0 {
			var b [1]byte
			if _, err := io.ReadFull(r, b[:]); err != nil {
				return nil, err
			}
			ps[i] = b[0]
		}
	}
	copy(em[k-len(msg):], msg)
	m := new(big.Int).SetBytes(em)
	m.Exp(m, big.NewInt(int64(key.E)), key.N)
	m.FillBytes(em)
	return em, nil
}

// AsymDecryptCtx decrypts ciphertext, memoizing the plaintext by
// (key fingerprint, ciphertext digest) when the context carries an
// engine — decryption is a pure function of the ciphertext. The cached
// plaintext is shared across callers and must be treated as read-only
// (the secure-channel layer only slices and copies out of it).
func (p *Policy) AsymDecryptCtx(cc CryptoContext, key *rsa.PrivateKey, data []byte) ([]byte, error) {
	if p.asymEnc == encNone {
		return nil, ErrNoCrypto
	}
	k := key.Size()
	if len(data)%k != 0 {
		return nil, fmt.Errorf("uapolicy: ciphertext length %d not a multiple of key size %d",
			len(data), k)
	}
	var fp uarsa.Fingerprint
	var dg [32]byte
	if cc.Engine != nil {
		fp = cc.Engine.Fingerprint(&key.PublicKey)
		dg = uarsa.Digest(data)
		if pt, ok := cc.Engine.Get(uarsa.OpDecrypt, uint8(p.asymEnc), fp, dg); ok {
			return pt, nil
		}
	}
	var out []byte
	for off := 0; off < len(data); off += k {
		var pt []byte
		var err error
		block := data[off : off+k]
		switch p.asymEnc {
		case encPKCS1v15:
			//studyvet:entropy-exempt — RSA blinding source only; the decrypted plaintext is a pure function of the ciphertext
			pt, err = rsa.DecryptPKCS1v15(rand.Reader, key, block)
		case encOAEPSHA1:
			//studyvet:entropy-exempt — RSA blinding source only; the decrypted plaintext is a pure function of the ciphertext
			pt, err = rsa.DecryptOAEP(sha1.New(), rand.Reader, key, block, nil)
		case encOAEPSHA256:
			//studyvet:entropy-exempt — RSA blinding source only; the decrypted plaintext is a pure function of the ciphertext
			pt, err = rsa.DecryptOAEP(sha256.New(), rand.Reader, key, block, nil)
		default:
			return nil, ErrNoCrypto
		}
		if err != nil {
			return nil, fmt.Errorf("uapolicy: asymmetric decrypt: %w", err)
		}
		out = append(out, pt...)
	}
	if cc.Engine != nil {
		cc.Engine.Put(uarsa.OpDecrypt, uint8(p.asymEnc), fp, dg, out)
	}
	return out, nil
}

// --- Key derivation ---

// DerivedKeys holds one direction's symmetric key material.
type DerivedKeys struct {
	SigningKey    []byte
	EncryptionKey []byte
	IV            []byte

	// block caches the expanded AES cipher for EncryptionKey so the
	// per-chunk encrypt/decrypt path skips the key schedule. DeriveKeys
	// populates it; zero-value DerivedKeys fall back to expanding on
	// demand. The cached cipher.Block is stateless and safe for
	// concurrent use.
	block cipher.Block
	// macPool recycles keyed HMAC states across chunks (hmac.New hashes
	// the key pads on every call; Reset on a pooled instance restores
	// the precomputed state instead). Populated by DeriveKeys;
	// zero-value DerivedKeys fall back to a fresh HMAC per call.
	macPool sync.Pool
}

// aesBlock returns the cached cipher. Zero-value DerivedKeys (built
// without DeriveKeys) expand the key per call instead of caching — a
// lazy unsynchronized write would be a data race when such keys are
// shared across goroutines.
func (k *DerivedKeys) aesBlock() (cipher.Block, error) {
	if k.block != nil {
		return k.block, nil
	}
	block, err := aes.NewCipher(k.EncryptionKey)
	if err != nil {
		return nil, fmt.Errorf("uapolicy: %w", err)
	}
	return block, nil
}

// pHash implements the TLS-style P_hash PRF used by OPC UA
// (OPC 10000-6 §6.7.5). Its HMACs (RFC 2104) run on one hash and one
// buffer; TestPHashMatchesReference holds them to crypto/hmac's bytes.
func pHash(newHash func() hash.Hash, secret, seed []byte, n int) []byte {
	h := newHash()
	block, size := h.BlockSize(), h.Size()
	// The pads, A(i), the inner digest and the output (and a block more).
	buf := make([]byte, 2*block+2*size+n+size)
	ipad, opad := buf[:block], buf[block:2*block]
	a, inner, out := buf[2*block:2*block], buf[2*block+size:2*block+size], buf[2*block+2*size:2*block+2*size]
	key := secret
	if len(key) > block {
		h.Write(key)
		key = h.Sum(inner[:0])
	}
	copy(ipad, key)
	copy(opad, key)
	for i := range ipad {
		ipad[i] ^= 0x36
		opad[i] ^= 0x5c
	}
	// mac appends HMAC(secret, m1 + m2) to dst.
	mac := func(dst, m1, m2 []byte) []byte {
		h.Reset()
		h.Write(ipad)
		h.Write(m1)
		h.Write(m2)
		sum := h.Sum(inner[:0])
		h.Reset()
		h.Write(opad)
		h.Write(sum)
		return h.Sum(dst)
	}
	for prev := seed; len(out) < n; prev = a {
		a = mac(a[:0], prev, nil)
		out = mac(out, a, seed)
	}
	return out[:n]
}

// DeriveKeys derives one direction's keys from the PRF(secret, seed).
// For the client's keys, secret is the server nonce and seed the client
// nonce; for the server's keys the roles swap.
func (p *Policy) DeriveKeys(secret, seed []byte) (*DerivedKeys, error) {
	if p.Insecure {
		return nil, ErrNoCrypto
	}
	encLen := p.symKeyBits / 8
	const ivLen = aes.BlockSize
	material := pHash(p.prf, secret, seed, p.sigKeyLen+encLen+ivLen)
	keys := &DerivedKeys{
		SigningKey:    material[:p.sigKeyLen],
		EncryptionKey: material[p.sigKeyLen : p.sigKeyLen+encLen],
		IV:            material[p.sigKeyLen+encLen:],
	}
	// Expand the AES key schedule once per channel direction instead of
	// once per chunk in SymEncrypt/SymDecrypt.
	block, err := aes.NewCipher(keys.EncryptionKey)
	if err != nil {
		return nil, fmt.Errorf("uapolicy: %w", err)
	}
	keys.block = block
	keys.macPool.New = func() any { return hmac.New(p.symSigHash, keys.SigningKey) }
	return keys, nil
}

// --- Symmetric operations (MSG/CLO chunks) ---

// SymSignatureSize returns the HMAC size in bytes.
func (p *Policy) SymSignatureSize() int { return p.symSigSize }

// SymBlockSize returns the cipher block size for padding computations.
func (p *Policy) SymBlockSize() int { return aes.BlockSize }

// SymSign computes the message HMAC.
func (p *Policy) SymSign(keys *DerivedKeys, data []byte) ([]byte, error) {
	if p.Insecure {
		return nil, ErrNoCrypto
	}
	var mac hash.Hash
	if keys.macPool.New != nil {
		mac = keys.macPool.Get().(hash.Hash)
		mac.Reset()
		defer keys.macPool.Put(mac)
	} else {
		mac = hmac.New(p.symSigHash, keys.SigningKey)
	}
	mac.Write(data)
	return mac.Sum(nil), nil
}

// SymVerify checks the message HMAC in constant time.
func (p *Policy) SymVerify(keys *DerivedKeys, data, sig []byte) error {
	want, err := p.SymSign(keys, data)
	if err != nil {
		return err
	}
	if subtle.ConstantTimeCompare(want, sig) != 1 {
		return ErrInvalidSignature
	}
	return nil
}

// SymEncrypt encrypts data in place with AES-CBC. len(data) must be a
// multiple of the block size.
func (p *Policy) SymEncrypt(keys *DerivedKeys, data []byte) error {
	block, err := keys.aesBlock()
	if err != nil {
		return err
	}
	if len(data)%block.BlockSize() != 0 {
		return fmt.Errorf("uapolicy: plaintext length %d not block-aligned", len(data))
	}
	cipher.NewCBCEncrypter(block, keys.IV).CryptBlocks(data, data)
	return nil
}

// SymDecrypt decrypts data in place with AES-CBC.
func (p *Policy) SymDecrypt(keys *DerivedKeys, data []byte) error {
	block, err := keys.aesBlock()
	if err != nil {
		return err
	}
	if len(data)%block.BlockSize() != 0 {
		return fmt.Errorf("uapolicy: ciphertext length %d not block-aligned", len(data))
	}
	cipher.NewCBCDecrypter(block, keys.IV).CryptBlocks(data, data)
	return nil
}

// CertificateConformance classifies a certificate against the policy's
// Table 1 requirements, the core check behind Figure 4.
type CertificateConformance int

// Conformance classes.
const (
	CertConformant CertificateConformance = iota
	CertTooWeak                           // weaker hash or shorter key than required
	CertTooStrong                         // stronger primitives than the policy allows
)

// String implements fmt.Stringer.
func (c CertificateConformance) String() string {
	switch c {
	case CertConformant:
		return "conformant"
	case CertTooWeak:
		return "too weak"
	case CertTooStrong:
		return "too strong"
	default:
		return "unknown"
	}
}

// CheckCertificate classifies cert against the policy (None has no
// requirements and always reports conformant).
func (p *Policy) CheckCertificate(hash uacert.HashAlg, keyBits int) CertificateConformance {
	if p.Insecure {
		return CertConformant
	}
	hashAllowed := false
	for _, h := range p.CertHashes {
		if h == hash {
			hashAllowed = true
			break
		}
	}
	hashRank := func(h uacert.HashAlg) int {
		switch h {
		case uacert.HashMD5:
			return 0
		case uacert.HashSHA1:
			return 1
		case uacert.HashSHA256:
			return 2
		default:
			return -1
		}
	}
	maxAllowed := 0
	for _, h := range p.CertHashes {
		if r := hashRank(h); r > maxAllowed {
			maxAllowed = r
		}
	}
	switch {
	case keyBits < p.MinKeyBits:
		return CertTooWeak
	case !hashAllowed && hashRank(hash) < maxAllowed:
		return CertTooWeak
	case keyBits > p.MaxKeyBits:
		return CertTooStrong
	case !hashAllowed && hashRank(hash) > maxAllowed:
		return CertTooStrong
	default:
		return CertConformant
	}
}
