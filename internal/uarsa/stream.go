package uarsa

import (
	"crypto/sha256"
	"encoding/binary"
)

// Stream is a deterministic byte stream: SHA-256 in counter mode over a
// 32-byte seed. It stands in for crypto/rand on the deterministic
// handshake path — nonces, OAEP/PKCS#1 padding and PSS salts are drawn
// from labeled Streams so that equal exchange parameters produce equal
// wire bytes. It is NOT a general-purpose CSPRNG: its whole point is
// that the output is reproducible from the seed.
type Stream struct {
	seed [32]byte
	ctr  uint64
	buf  [32]byte
	off  int // consumed bytes of buf
}

// Read implements io.Reader; it never fails.
func (s *Stream) Read(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if s.off == len(s.buf) {
			var block [40]byte
			copy(block[:32], s.seed[:])
			binary.LittleEndian.PutUint64(block[32:], s.ctr)
			s.buf = sha256.Sum256(block[:])
			s.ctr++
			s.off = 0
		}
		c := copy(p, s.buf[s.off:])
		s.off += c
		p = p[c:]
	}
	return n, nil
}

// Seed returns the stream's seed and whether the stream is still
// unconsumed. Everything an unconsumed stream will ever yield is a
// function of its seed, which is what lets a memo key stand in for the
// random draws of one operation (uapolicy.AsymEncryptCtx).
func (s *Stream) Seed() (seed [32]byte, unconsumed bool) {
	return s.seed, s.ctr == 0 && s.off == len(s.buf)
}

// Derivation is a seed from which independent labeled Streams are
// derived. Independence per label matters: a cache hit skips the random
// draws the computation would have made, so every draw site uses its
// own substream — consumption at one site can never shift the bytes
// another site sees.
type Derivation struct {
	seed [32]byte
}

// NewDerivation builds a derivation from length-framed seed material.
func NewDerivation(parts ...[]byte) *Derivation {
	return &Derivation{seed: Digest(parts...)}
}

// Stream returns the labeled substream, positioned at its start. Each
// call returns a fresh, independently consumable stream.
func (d *Derivation) Stream(label string) *Stream {
	s := &Stream{seed: Digest(d.seed[:], []byte(label))}
	s.off = len(s.buf) // force a refill on first read
	return s
}

// Uint32 derives a labeled 32-bit value.
func (d *Derivation) Uint32(label string) uint32 {
	var b [4]byte
	_, _ = d.Stream(label).Read(b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// Suite bundles a campaign's crypto-reuse state: the memo engine and
// the determinism seed. A nil Suite (or Deterministic=false) reproduces
// the legacy behavior: fresh crypto/rand draws, no memoization.
type Suite struct {
	Engine        *Engine
	Seed          int64
	Deterministic bool
}

// Exchange derives the per-exchange derivation for the given identity
// parts (the scanner keys it by purpose, remote certificate, policy and
// mode — deliberately not by wave, so an unchanged host replays the
// identical exchange in every wave). Returns nil when the suite is nil
// or non-deterministic.
func (s *Suite) Exchange(parts ...[]byte) *Derivation {
	if s == nil || !s.Deterministic {
		return nil
	}
	var sb [8]byte
	binary.LittleEndian.PutUint64(sb[:], uint64(s.Seed))
	all := make([][]byte, 0, 2+len(parts))
	all = append(all, []byte("uarsa-exchange"), sb[:])
	all = append(all, parts...)
	return NewDerivation(all...)
}

// EngineOrNil returns the suite's engine, tolerating a nil suite.
func (s *Suite) EngineOrNil() *Engine {
	if s == nil {
		return nil
	}
	return s.Engine
}
