package uacert

import (
	"crypto/rand"
	"crypto/rsa"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
	"strconv"
	"sync"

	"repro/internal/uarsa"
)

// KeyPool generates and memoizes RSA keys by size. World construction in
// the simulation needs hundreds of keys; generating them once and indexing
// them deterministically keeps repeated campaign runs affordable while
// every key still has unique, independently generated primes.
type KeyPool struct {
	mu   sync.Mutex
	keys map[int]map[int]*rsa.PrivateKey // by bits, then idx
	// gen produces the (bits, idx) key. The default draws crypto/rand;
	// deterministic pools derive the key from a seed instead, so that
	// separate processes materializing the same world agree on every
	// key byte (the multi-process shard workers depend on this).
	gen func(bits, idx int) *rsa.PrivateKey
}

// NewKeyPool returns an empty pool drawing keys from crypto/rand.
func NewKeyPool() *KeyPool {
	return &KeyPool{keys: make(map[int]map[int]*rsa.PrivateKey)}
}

// NewDeterministicKeyPool returns a pool whose (bits, idx) key is a pure
// function of seed: any number of processes building the pool from the
// same seed hold byte-identical keys at every index. The simulated
// world's certificate analysis only needs keys that are unique and of
// the right size — it never relies on them being secret — so the
// deterministic derivation trades no fidelity for cross-process
// reproducibility (DESIGN.md §5).
func NewDeterministicKeyPool(seed int64) *KeyPool {
	var sb [8]byte
	binary.LittleEndian.PutUint64(sb[:], uint64(seed))
	p := NewKeyPool()
	p.gen = func(bits, idx int) *rsa.PrivateKey {
		key, err := DeterministicKey(bits, []byte("uacert-keypool"), sb[:],
			[]byte(strconv.Itoa(bits)+"/"+strconv.Itoa(idx)))
		if err != nil {
			panic(fmt.Sprintf("uacert: deterministic %d-bit key %d: %v", bits, idx, err))
		}
		return key
	}
	return p
}

// generate produces one key at the absolute index.
func (p *KeyPool) generate(bits, idx int) *rsa.PrivateKey {
	if p.gen != nil {
		return p.gen(bits, idx)
	}
	//studyvet:entropy-exempt — default generator for ad-hoc pools; deterministic campaigns install p.gen (DeterministicKey above)
	key, err := rsa.GenerateKey(rand.Reader, bits)
	if err != nil {
		panic(fmt.Sprintf("uacert: generating %d-bit key: %v", bits, err))
	}
	// Explicit CRT precomputation: every private-key operation in the
	// measurement hot path (OPN sign/decrypt) takes the ~4× CRT fast
	// path. GenerateKey precomputes today, but the wave budget depends
	// on it, so it is asserted here and tested in deploy.
	key.Precompute()
	return key
}

// Key returns the idx-th key of the given bit size, generating it if the
// pool does not hold it yet. Two calls with the same (bits, idx) return
// the same key. Generation runs outside the lock: goroutines asking for
// different slots fill the pool in parallel (deploy.Materialize does), and
// of two racing for one slot the first to store wins.
func (p *KeyPool) Key(bits, idx int) *rsa.PrivateKey {
	p.mu.Lock()
	key := p.keys[bits][idx]
	p.mu.Unlock()
	if key != nil {
		return key
	}
	key = p.generate(bits, idx)
	p.mu.Lock()
	defer p.mu.Unlock()
	if first := p.keys[bits][idx]; first != nil {
		return first
	}
	if p.keys[bits] == nil {
		p.keys[bits] = make(map[int]*rsa.PrivateKey)
	}
	p.keys[bits][idx] = key
	return key
}

// Size returns how many keys of the given bit size the pool holds.
//
//studyvet:api — the certificate golden checks the pool holds exactly the keys a world serves
func (p *KeyPool) Size(bits int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.keys[bits])
}

// DeterministicKey derives an RSA key of the given (even) bit size as a
// pure function of the length-framed label parts: every process calling
// it with the same arguments holds the same key. Primes are drawn from
// labeled uarsa streams via the standard prime search, so the key is
// structurally indistinguishable from a crypto/rand one (distinct
// primes, full modulus length, CRT precomputed) — only reproducible.
func DeterministicKey(bits int, parts ...[]byte) (*rsa.PrivateKey, error) {
	if bits < 128 || bits%2 != 0 {
		return nil, fmt.Errorf("uacert: deterministic key size %d unsupported", bits)
	}
	for attempt := 0; ; attempt++ {
		d := uarsa.NewDerivation(append(parts, []byte("attempt-"+strconv.Itoa(attempt)))...)
		p := deterministicPrime(d.Stream("p"), bits/2)
		q := deterministicPrime(d.Stream("q"), bits/2)
		// Retry deterministically on the rare rejects (p == q, e not
		// invertible, product a bit short): the attempt counter is part
		// of the derivation, so every process walks the same sequence.
		key, err := NewKeyFromPrimes(p, q)
		if err != nil || key.N.BitLen() != bits {
			continue
		}
		return key, nil
	}
}

// deterministicPrime returns the first prime of r's candidate stream. It
// is crypto/rand.Prime's search without its randutil.MaybeReadByte call —
// that call consumes 0 or 1 stream bytes at the runtime's whim,
// deliberately defeating the reproducible derivation this package needs.
// r never fails (it is a uarsa.Stream).
//
//studyvet:entropy-exempt — the prime search draws only from the labeled uarsa stream passed in; there is no ambient entropy here
func deterministicPrime(r io.Reader, bits int) *big.Int {
	buf := make([]byte, (bits+7)/8)
	p, t := new(big.Int), new(big.Int)
	for {
		drawCandidate(r, buf, bits)
		if acceptsCandidate(buf, p, t) {
			return p
		}
	}
}

var bigOne, bigTwo = big.NewInt(1), big.NewInt(2)

// acceptsCandidate sets p to the odd candidate in buf and reports whether
// the search takes it. The predicate is ProbablyPrime(0) (Baillie–PSW),
// run only on what two cheaper filters cannot reject: trial division by
// the odd primes below sieveLimit, then base-2 Fermat. Both reject
// composites only (a prime has no smaller prime factor, and 2^(p-1) ≡ 1
// mod p), so the accepted set is the bare predicate's, whatever the
// filters skip (DESIGN.md §5). t is scratch.
func acceptsCandidate(buf []byte, p, t *big.Int) bool {
	return !hasSmallFactor(buf) &&
		t.Exp(bigTwo, t.Sub(p.SetBytes(buf), bigOne), p).Cmp(bigOne) == 0 && p.ProbablyPrime(0)
}

// drawCandidate fills buf with the stream's next candidate of the given
// bit length: the top two bits set (so a product of two halves never
// comes up a bit short) and the low bit set.
func drawCandidate(r io.Reader, buf []byte, bits int) {
	b := uint(bits % 8)
	if b == 0 {
		b = 8
	}
	_, _ = io.ReadFull(r, buf)
	buf[0] &= uint8(int(1<<b) - 1)
	if b >= 2 {
		buf[0] |= 3 << (b - 2)
	} else {
		// b == 1: the second-highest bit lives in the next byte.
		buf[0] |= 1
		if len(buf) > 1 {
			buf[1] |= 0x80
		}
	}
	buf[len(buf)-1] |= 1
}

// sieveLimit bounds the trial-division filter: a higher limit spares a few
// more modexps and costs every survivor more divisions. 2^13 is within 4 %
// of the fastest limit at 512, 1024 and 2048 bits (EXPERIMENTS.md "Spending
// the ledger on cold start"); any value in (3, 2^16] yields the same primes.
const sieveLimit = 1 << 13

// sieveChunk is a run of consecutive odd primes whose product fits a
// uint64: one multi-word remainder serves the whole run.
type sieveChunk struct {
	product uint64
	primes  []uint16
}

// sieveChunks holds every odd prime below sieveLimit, in order.
var sieveChunks = func() (chunks []sieveChunk) {
	cur := sieveChunk{product: 1}
	composite := make([]bool, sieveLimit)
	for p := 3; p < sieveLimit; p += 2 {
		if composite[p] {
			continue
		}
		for m := p * p; m < sieveLimit; m += 2 * p {
			composite[m] = true
		}
		if hi, _ := bits.Mul64(cur.product, uint64(p)); hi != 0 {
			chunks = append(chunks, cur)
			cur = sieveChunk{product: 1}
		}
		cur.product *= uint64(p)
		cur.primes = append(cur.primes, uint16(p))
	}
	return append(chunks, cur)
}()

// hasSmallFactor reports whether the big-endian magnitude c (no leading
// zero bytes) has an odd prime factor below sieveLimit. It reads bytes, not
// big.Words, so the answer does not depend on the platform's word size.
// Values below 2^16 are never reported: a prime could be its own factor.
func hasSmallFactor(c []byte) bool {
	if len(c) <= 2 {
		return false
	}
	var head uint64
	n := len(c) % 8
	for _, b := range c[:n] {
		head = head<<8 | uint64(b)
	}
	for i := range sieveChunks {
		ch := &sieveChunks[i]
		_, r := bits.Div64(0, head, ch.product)
		for j := n; j < len(c); j += 8 {
			_, r = bits.Div64(r, binary.BigEndian.Uint64(c[j:]), ch.product)
		}
		for _, p := range ch.primes {
			if r%uint64(p) == 0 {
				return true
			}
		}
	}
	return false
}

// DeterministicSerial derives a positive 64-bit certificate serial as a
// pure function of the label parts, mirroring the size Generate draws
// from crypto/rand when Options.SerialNumber is nil.
func DeterministicSerial(parts ...[]byte) *big.Int {
	var b [8]byte
	_, _ = uarsa.NewDerivation(parts...).Stream("serial").Read(b[:])
	return new(big.Int).SetBytes(b[:])
}

// NewKeyFromPrimes constructs an RSA private key from explicit primes.
// The study uses it to inject shared-prime weak keys and verify that the
// batch-GCD detector finds them (§5.3 of the paper).
func NewKeyFromPrimes(p, q *big.Int) (*rsa.PrivateKey, error) {
	if p == nil || q == nil || p.Cmp(q) == 0 {
		return nil, errors.New("uacert: need two distinct primes")
	}
	one := big.NewInt(1)
	n := new(big.Int).Mul(p, q)
	phi := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
	e := big.NewInt(65537)
	d := new(big.Int).ModInverse(e, phi)
	if d == nil {
		return nil, errors.New("uacert: e not invertible modulo phi(n)")
	}
	key := &rsa.PrivateKey{
		PublicKey: rsa.PublicKey{N: n, E: int(e.Int64())},
		D:         d,
		Primes:    []*big.Int{new(big.Int).Set(p), new(big.Int).Set(q)},
	}
	key.Precompute()
	if err := key.Validate(); err != nil {
		return nil, fmt.Errorf("uacert: key validation: %w", err)
	}
	return key, nil
}

// GeneratePrime returns a random prime of the given bit size.
//
//studyvet:entropy-exempt — random by contract; weak-key injection on the deterministic path uses deterministicPrime instead
func GeneratePrime(bits int) (*big.Int, error) {
	return rand.Prime(rand.Reader, bits)
}
