package uapolicy

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"io"
	"sync"
	"testing"

	"repro/internal/uarsa"
)

// seedKeys holds two keys per size: the receiver's, and a stranger's of
// the same size that the ciphertext was not made for.
var (
	seedKeysOnce sync.Once
	seedKeyBits  = []int{512, 1024, 2048}
	seedKeys     [][2]*rsa.PrivateKey
)

func seedTestKeys(t testing.TB) [][2]*rsa.PrivateKey {
	t.Helper()
	seedKeysOnce.Do(func() {
		for _, bits := range seedKeyBits {
			var pair [2]*rsa.PrivateKey
			for i := range pair {
				k, err := rsa.GenerateKey(rand.Reader, bits)
				if err != nil {
					t.Fatal(err)
				}
				pair[i] = k
			}
			seedKeys = append(seedKeys, pair)
		}
	})
	return seedKeys
}

// sameOutcome reports whether two (plaintext, error) results agree:
// both failed with the same message, or both succeeded with equal bytes.
func sameOutcome(a []byte, aErr error, b []byte, bErr error) bool {
	if aErr != nil || bErr != nil {
		return aErr != nil && bErr != nil && aErr.Error() == bErr.Error()
	}
	return bytes.Equal(a, b)
}

// checkEncryptSeedsDecrypt is the soundness property of the encrypt memo
// and of the decrypt entry an encrypt miss seeds, for one (policy, key,
// stream seed, plaintext). Everything the engine answers is compared
// with what the same call computes without an engine.
func checkEncryptSeedsDecrypt(t *testing.T, p *Policy, key, stranger *rsa.PrivateKey, seed, plain []byte, blocks int) {
	t.Helper()
	pub := &key.PublicKey
	blockSize, err := p.AsymPlainBlockSize(pub)
	if err != nil {
		return // key too small for the policy's padding: nothing to encrypt
	}
	want := make([]byte, blocks*blockSize)
	for i := range want {
		if len(plain) > 0 {
			want[i] = plain[i%len(plain)]
		}
	}
	// buf plays the caller's pooled frame buffer: handed to the encrypt,
	// overwritten afterwards.
	buf := append([]byte(nil), want...)

	engine := uarsa.NewEngine(0)
	deriv := uarsa.NewDerivation([]byte("seed-test"), seed)
	memo := func(label string) CryptoContext {
		return CryptoContext{Engine: engine, Rand: deriv.Stream(label)}
	}
	mustEncrypt := func(cc CryptoContext, data []byte) []byte {
		t.Helper()
		ct, err := p.AsymEncryptCtx(cc, pub, data)
		if err != nil {
			t.Fatalf("%s/%d: encrypt: %v", p.Name, pub.Size()*8, err)
		}
		return ct
	}
	encryptOps := func() uint64 {
		st := engine.Stats().Encrypt
		return st.Hits + st.Misses
	}

	ct := mustEncrypt(memo("enc"), buf)
	if st := engine.Stats(); st.Encrypt.Misses != 1 || st.Encrypt.Hits != 0 || st.Entries != 2 {
		t.Fatalf("%s: first encrypt: %+v, want one encrypt miss and two entries", p.Name, st)
	}
	for i := range buf {
		buf[i] ^= 0xA5
	}

	// A hit is the ciphertext a fresh stream of the same seed recomputes.
	recomputed := mustEncrypt(CryptoContext{Rand: deriv.Stream("enc")}, want)
	if !bytes.Equal(ct, recomputed) {
		t.Errorf("%s: memoizing encrypt and engine-less encrypt disagree", p.Name)
	}
	if hit := mustEncrypt(memo("enc"), want); !bytes.Equal(hit, recomputed) {
		t.Errorf("%s: encrypt hit differs from a recomputation", p.Name)
	}
	if st := engine.Stats().Encrypt; st.Hits != 1 || st.Misses != 1 {
		t.Errorf("%s: replayed encrypt: %+v, want 1 hit, 1 miss", p.Name, st)
	}

	// The seeded plaintext is what the private key really yields, and it
	// is the engine's own copy, not the buffer overwritten above.
	real, err := p.AsymDecryptCtx(CryptoContext{}, key, ct)
	if err != nil || !bytes.Equal(real, want) {
		t.Fatalf("%s: engine-less decrypt: %v", p.Name, err)
	}
	seeded, err := p.AsymDecryptCtx(CryptoContext{Engine: engine}, key, ct)
	if err != nil || !bytes.Equal(seeded, real) {
		t.Errorf("%s: seeded plaintext differs from the real decrypt (err %v)", p.Name, err)
	}
	if st := engine.Stats().Decrypt; st.Hits != 1 || st.Misses != 0 {
		t.Errorf("%s: decrypt of a seeded ciphertext: %+v, want 1 hit, 0 misses", p.Name, st)
	}

	// A seeded entry never answers for other bytes or another key.
	altered := append([]byte(nil), ct...)
	altered[len(altered)/2] ^= 0x01
	for _, c := range []struct {
		name string
		key  *rsa.PrivateKey
		data []byte
	}{
		{"altered ciphertext", key, altered},
		{"truncated ciphertext", key, ct[:len(ct)-pub.Size()]},
		{"stranger's key", stranger, ct},
	} {
		before := engine.Stats().Decrypt
		got, gotErr := p.AsymDecryptCtx(CryptoContext{Engine: engine}, c.key, c.data)
		ref, refErr := p.AsymDecryptCtx(CryptoContext{}, c.key, c.data)
		if !sameOutcome(got, gotErr, ref, refErr) {
			t.Errorf("%s: %s: engine says (%x, %v), real decrypt (%x, %v)", p.Name, c.name, got, gotErr, ref, refErr)
		}
		after := engine.Stats().Decrypt
		if after.Hits != before.Hits || after.Misses != before.Misses+1 {
			t.Errorf("%s: %s: decrypt counters %+v -> %+v, want one miss", p.Name, c.name, before, after)
		}
	}

	// Only an unconsumed Stream is memoized: a consumed one, a reader
	// that merely wraps one, and crypto/rand all compute and store nothing.
	consumed := deriv.Stream("enc")
	_, _ = consumed.Read(make([]byte, 1))
	ops, entries := encryptOps(), engine.Stats().Entries
	for name, r := range map[string]io.Reader{
		"consumed stream": consumed,
		"wrapped stream":  struct{ io.Reader }{deriv.Stream("enc")},
		"crypto/rand":     nil,
	} {
		fresh := mustEncrypt(CryptoContext{Engine: engine, Rand: r}, want)
		if got, err := p.AsymDecryptCtx(CryptoContext{}, key, fresh); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: %s: ciphertext does not decrypt (%v)", p.Name, name, err)
		}
		if st := engine.Stats(); encryptOps() != ops || st.Entries != entries {
			t.Errorf("%s: %s reached the engine: %+v", p.Name, name, st)
		}
	}

	// Two labels, two seeds and two plaintexts never share an entry.
	other := append([]byte(nil), want...)
	other[0] ^= 0x01
	for name, c := range map[string]struct {
		cc   CryptoContext
		data []byte
	}{
		"label":     {memo("enc-2"), want},
		"seed":      {CryptoContext{Engine: engine, Rand: uarsa.NewDerivation([]byte("seed-test-2"), seed).Stream("enc")}, want},
		"plaintext": {memo("enc"), other},
	} {
		before := engine.Stats().Encrypt
		distinct := mustEncrypt(c.cc, c.data)
		if after := engine.Stats().Encrypt; after.Hits != before.Hits || after.Misses != before.Misses+1 {
			t.Errorf("%s: a second %s hit the first one's entry: %+v -> %+v", p.Name, name, before, after)
		}
		if bytes.Equal(distinct, ct) {
			t.Errorf("%s: a second %s produced the first one's ciphertext", p.Name, name)
		}
		if got, err := p.AsymDecryptCtx(CryptoContext{Engine: engine}, key, distinct); err != nil || !bytes.Equal(got, c.data) {
			t.Errorf("%s: second %s: seeded plaintext wrong (%v)", p.Name, name, err)
		}
	}
}

// TestEncryptSeedsDecrypt runs the property over every encrypting
// policy at 512, 1024 and 2048-bit keys.
func TestEncryptSeedsDecrypt(t *testing.T) {
	for i, pair := range seedTestKeys(t) {
		for _, p := range secured() {
			for blocks := 1; blocks <= 3; blocks += 2 {
				checkEncryptSeedsDecrypt(t, p, pair[0], pair[1],
					[]byte{byte(i), byte(blocks)}, []byte("open secure channel request"), blocks)
			}
		}
	}
}

// FuzzEncryptSeedsDecrypt drives the same property from fuzzed stream
// seeds and plaintexts.
func FuzzEncryptSeedsDecrypt(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(1), []byte("seed"), []byte("plaintext"))
	f.Add(uint8(4), uint8(1), uint8(2), []byte{}, []byte{0})
	f.Add(uint8(1), uint8(2), uint8(3), []byte{0xff}, []byte{})
	f.Add(uint8(3), uint8(0), uint8(0), []byte("s"), bytes.Repeat([]byte{0x5A}, 300))
	f.Fuzz(func(t *testing.T, policy, keySize, blocks uint8, seed, plain []byte) {
		policies, keys := secured(), seedTestKeys(t)
		pair := keys[int(keySize)%len(keys)]
		checkEncryptSeedsDecrypt(t, policies[int(policy)%len(policies)], pair[0], pair[1],
			seed, plain, 1+int(blocks)%3)
	})
}
