package uacert

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"testing"
)

// TestDeterministicKeyGolden pins the deterministic pool's keys bit for
// bit: SHA-256 over N‖p‖q‖d of keys 0..n-1, first 12 bytes. The digests
// were read from the ProbablyPrime(20) search that every dataset and
// certificate golden of this repository was recorded with; a change to
// the prime search may make it cheaper but must leave them alone (a
// different accepted prime anywhere changes a key, its certificate's
// thumbprint, and with it every process's view of the reuse clusters).
func TestDeterministicKeyGolden(t *testing.T) {
	cases := []struct {
		seed    int64
		bits, n int
		want    string
	}{
		{2020, 512, 700, "675fbd6b1cc15646900c6954"},
		{2020, 1024, 60, "7aaa38f0bb274ae7ca875987"},
		{2020, 2048, 24, "d422215525228a271953fc99"},
		{2020, 4096, 2, "1dc4c8f6de41e6a487e30978"},
		{7, 512, 700, "d7e7397f59d7eaeab8795aa6"},
		{7, 1024, 60, "9a8ca0eb6fbd5bc492ee2c5b"},
		{7, 2048, 24, "2f2b444ba54ccb442f18418f"},
		{7, 4096, 2, "144f6fbacfeda649f3a21dec"},
	}
	for _, c := range cases {
		t.Run(strconv.FormatInt(c.seed, 10)+"/"+strconv.Itoa(c.bits), func(t *testing.T) {
			if testing.Short() && c.bits >= 2048 {
				t.Skip("seconds of real-size keygen; run without -short")
			}
			pool := NewDeterministicKeyPool(c.seed)
			pool.Prewarm(c.bits, c.n)
			h := sha256.New()
			for i := 0; i < c.n; i++ {
				k := pool.Key(c.bits, i)
				h.Write(k.N.Bytes())
				h.Write(k.Primes[0].Bytes())
				h.Write(k.Primes[1].Bytes())
				h.Write(k.D.Bytes())
			}
			if got := hex.EncodeToString(h.Sum(nil)[:12]); got != c.want {
				t.Errorf("seed %d, %d keys of %d bits: digest %s, want %s", c.seed, c.n, c.bits, got, c.want)
			}
		})
	}
}
