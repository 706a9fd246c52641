package uapolicy

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha1"
	"crypto/sha256"
	"hash"
	"testing"
)

// referencePHash is P_hash written straight from OPC 10000-6 §6.7.5
// (and RFC 5246 §5), one fresh HMAC per step: A(i) = HMAC(secret,
// A(i-1)) with A(0) = seed, output block i = HMAC(secret, A(i) + seed).
// pHash must produce exactly its bytes.
func referencePHash(newHash func() hash.Hash, secret, seed []byte, n int) []byte {
	out := make([]byte, 0, n)
	a := seed
	for len(out) < n {
		mac := hmac.New(newHash, secret)
		mac.Write(a)
		a = mac.Sum(nil)
		mac = hmac.New(newHash, secret)
		mac.Write(a)
		mac.Write(seed)
		out = append(out, mac.Sum(nil)...)
	}
	return out[:n]
}

// TestPHashMatchesReference pins pHash to the reference for both PRF
// hashes, every output length a policy could ask for and then some, and
// secrets shorter than, equal to and longer than the HMAC block.
func TestPHashMatchesReference(t *testing.T) {
	hashes := []struct {
		name string
		new  func() hash.Hash
	}{{"sha1", sha1.New}, {"sha256", sha256.New}}
	secrets := map[string][]byte{
		"empty": {},
		"short": []byte("nonce-16-bytes!!"),
		"block": bytes.Repeat([]byte{0xA5}, 64),
		"long":  bytes.Repeat([]byte{0x3C, 0x7E, 0x01}, 50),
	}
	seeds := [][]byte{nil, []byte("s"), bytes.Repeat([]byte{9}, 32)}
	for _, h := range hashes {
		for sname, secret := range secrets {
			for _, seed := range seeds {
				for n := 0; n <= 200; n++ {
					want := referencePHash(h.new, secret, seed, n)
					got := pHash(h.new, secret, seed, n)
					if !bytes.Equal(got, want) {
						t.Fatalf("%s secret %s seed %d bytes n=%d:\n got %x\nwant %x", h.name, sname, len(seed), n, got, want)
					}
				}
			}
		}
	}
}
