// Package uarsa is the campaign's memoized asymmetric-crypto engine.
//
// A full-fidelity measurement wave is ≥90 % RSA private-key work: every
// secure-channel attempt is protocol-mandated to sign and block-decrypt
// OPN messages on both sides (docs/history/experiments.md, PR 3). The
// paper's own findings make most of that work redundant — one
// certificate (and therefore one key) is re-served by 385 hosts across
// 24 ASes, and only 84 certificates renew across all eight weekly
// waves — so the simulated Internet performs the *same* RSA operations
// over and over.
//
// The engine memoizes those operations by (operation, scheme, key
// fingerprint, input digest):
//
//   - signing: PKCS#1 v1.5 signatures are deterministic functions of
//     (key, digest); PSS signatures are not, but any stored valid
//     signature verifies, and with the deterministic salt streams below
//     the replayed signature is also bit-identical to a recomputation.
//   - verification: a pure predicate of (key, data, signature). Only
//     successes are cached.
//   - decryption: a pure function of (key, ciphertext).
//   - encryption: not a function of (key, plaintext) — its padding comes
//     from a random source — but the handshake path draws padding (and
//     nonces, and PSS salts) from deterministic labeled streams
//     (Derivation/Stream) seeded per exchange, and with such a stream
//     the ciphertext is a pure function of (key, stream seed,
//     plaintext). Encryption is memoized under exactly that key, and
//     only when the padding source is an unconsumed Stream.
//
// An unchanged host therefore replays a bit-identical OPN exchange in
// every wave, and the whole exchange — both sides' signs, encrypts and
// decrypts — resolves from the cache. The side that computes a
// ciphertext also stores the decrypt entry for it (Dec_sk(Enc_pk(P)) =
// P), so in a process that simulates both peers even the first
// occurrence of an exchange costs no private-key decryption.
// DESIGN.md §4 records the ownership and determinism rules.
//
// The engine is sharded and bounded: entries live in per-shard
// two-generation maps (a full current generation rotates to "previous";
// a rotation drops the old previous generation), so memory is capped at
// the configured entry budget while hot entries are promoted back into
// the current generation on hit.
package uarsa

import (
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"
)

// Op identifies a memoized operation kind.
type Op uint8

// Memoized operation kinds.
const (
	OpSign Op = iota
	OpVerify
	OpDecrypt
	OpEncrypt
	numOps
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpSign:
		return "sign"
	case OpVerify:
		return "verify"
	case OpDecrypt:
		return "decrypt"
	case OpEncrypt:
		return "encrypt"
	default:
		return "unknown"
	}
}

// DefaultMaxEntries bounds an engine built with NewEngine(0). A
// full-fidelity eight-wave campaign needs roughly 8 entries per distinct
// (certificate, policy, mode) exchange (two signatures, two
// verifications, two ciphertexts, two plaintexts) — several thousand
// total — so the default leaves an order of magnitude of headroom.
const DefaultMaxEntries = 1 << 16

// numShards spreads lock contention; must be a power of two.
const numShards = 64

// Fingerprint identifies an RSA key: SHA-256 over (e, N).
type Fingerprint [32]byte

// KeyFingerprint computes the key's fingerprint. Hot paths should use
// Engine.Fingerprint, which memoizes per key object with the engine's
// (campaign-scoped) lifetime.
func KeyFingerprint(pub *rsa.PublicKey) Fingerprint {
	h := sha256.New()
	var eb [8]byte
	binary.LittleEndian.PutUint64(eb[:], uint64(pub.E))
	h.Write(eb[:])
	h.Write(pub.N.Bytes())
	var fp Fingerprint
	h.Sum(fp[:0])
	return fp
}

// Digest hashes a sequence of byte strings with length framing, so
// ("ab","c") and ("a","bc") digest differently.
func Digest(parts ...[]byte) [32]byte {
	h := sha256.New()
	var lb [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(lb[:], uint64(len(p)))
		h.Write(lb[:])
		h.Write(p)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// cacheKey is the full memoization identity: op, scheme, key
// fingerprint, input digest. Using a fixed-size array keys the shard
// maps without a per-lookup allocation.
type cacheKey [2 + 32 + 32]byte

//studyvet:hotpath — one cache key per RSA operation; the fixed-size array keeps lookups allocation-free
func makeKey(op Op, scheme uint8, fp Fingerprint, digest [32]byte) cacheKey {
	var k cacheKey
	k[0] = byte(op)
	k[1] = scheme
	copy(k[2:34], fp[:])
	copy(k[34:], digest[:])
	return k
}

// shard is one lock-striped two-generation map.
type shard struct {
	mu sync.Mutex
	//studyvet:owned mu — generation maps mutate only under mu (Get promotion, Put insert, rotation)
	cur, prev map[cacheKey][]byte
}

type opCounters struct {
	hits, misses, evictions atomic.Uint64
}

// Engine is a sharded, bounded, concurrency-safe memo table for RSA
// operations. Values returned by Get are shared and MUST be treated as
// immutable by callers.
type Engine struct {
	shardCap int
	shards   [numShards]shard
	counters [numOps]opCounters

	// fps memoizes fingerprints by public-key pointer, so the hot path
	// does not re-serialize the modulus per operation. Keys in this code
	// base (world host keys, the scanner identity) are never mutated
	// after construction, which is what makes pointer identity a valid
	// cache key; scoping the map to the engine bounds it to the keys one
	// campaign touches and lets it die with the campaign.
	fps sync.Map // *rsa.PublicKey -> Fingerprint
}

// Fingerprint returns the key's fingerprint, memoized per key object
// for the engine's lifetime.
func (e *Engine) Fingerprint(pub *rsa.PublicKey) Fingerprint {
	if e == nil {
		return KeyFingerprint(pub)
	}
	if v, ok := e.fps.Load(pub); ok {
		return v.(Fingerprint)
	}
	fp := KeyFingerprint(pub)
	e.fps.Store(pub, fp)
	return fp
}

// NewEngine returns an engine bounded to roughly maxEntries cached
// results (0 uses DefaultMaxEntries).
func NewEngine(maxEntries int) *Engine {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	capPerShard := maxEntries / (2 * numShards)
	if capPerShard < 1 {
		capPerShard = 1
	}
	e := &Engine{shardCap: capPerShard}
	for i := range e.shards {
		//studyvet:locked — construction: the engine is unpublished, nothing else can hold mu yet
		e.shards[i].cur = make(map[cacheKey][]byte)
	}
	return e
}

func (e *Engine) shardFor(k *cacheKey) *shard {
	// op, scheme and the leading fingerprint bytes are highly repetitive;
	// the digest tail is uniform.
	return &e.shards[int(k[34])&(numShards-1)]
}

// insertLocked adds k→v to the current generation, rotating generations
// when the current one is full. Callers hold sh.mu.
//
//studyvet:locked — callers hold sh.mu (Get and Put lock before calling)
func (e *Engine) insertLocked(sh *shard, k cacheKey, v []byte) {
	if _, ok := sh.cur[k]; ok {
		return
	}
	// A concurrent Put may race a rotation that moved this key to the
	// previous generation (compute started before the rotation); drop
	// that copy so the key never lives in both generations — a duplicate
	// would double-count Stats.Entries and later report a spurious
	// eviction for an entry that survives.
	delete(sh.prev, k)
	if len(sh.cur) >= e.shardCap {
		for old := range sh.prev {
			e.counters[Op(old[0])].evictions.Add(1)
		}
		sh.prev = sh.cur
		sh.cur = make(map[cacheKey][]byte, e.shardCap)
	}
	sh.cur[k] = v
}

// Get looks a memoized result up. The returned slice is shared: callers
// must not modify it.
//
//studyvet:hotpath — every RSA operation in a full-fidelity wave passes through here
func (e *Engine) Get(op Op, scheme uint8, fp Fingerprint, digest [32]byte) ([]byte, bool) {
	if e == nil {
		return nil, false
	}
	k := makeKey(op, scheme, fp, digest)
	sh := e.shardFor(&k)
	sh.mu.Lock()
	v, ok := sh.cur[k]
	if !ok {
		if v, ok = sh.prev[k]; ok {
			// Promote so entries in active use survive the next rotation.
			// The previous-generation copy is removed first: otherwise it
			// would be double-counted in Stats.Entries and counted as an
			// eviction on the next rotation despite surviving.
			delete(sh.prev, k)
			e.insertLocked(sh, k, v)
		}
	}
	sh.mu.Unlock()
	if ok {
		e.counters[op].hits.Add(1)
	} else {
		e.counters[op].misses.Add(1)
	}
	return v, ok
}

// Put stores a computed result. The engine takes ownership of v: the
// caller must not modify it afterwards. Concurrent Puts for the same
// key are benign — with the deterministic handshake streams both
// goroutines computed identical bytes.
//
//studyvet:hotpath — cache-miss completion path
func (e *Engine) Put(op Op, scheme uint8, fp Fingerprint, digest [32]byte, v []byte) {
	if e == nil {
		return
	}
	k := makeKey(op, scheme, fp, digest)
	sh := e.shardFor(&k)
	sh.mu.Lock()
	e.insertLocked(sh, k, v)
	sh.mu.Unlock()
}

// OpStats is one operation kind's counters.
type OpStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// HitRate returns hits/(hits+misses), 0 when idle.
func (s OpStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats is a point-in-time snapshot of the engine's observability
// counters (surfaced by cmd/measure and the campaign benchmarks).
type Stats struct {
	Sign    OpStats
	Verify  OpStats
	Decrypt OpStats
	Encrypt OpStats
	Entries int
}

// Stats snapshots the counters and the current entry count.
func (e *Engine) Stats() Stats {
	var st Stats
	if e == nil {
		return st
	}
	ops := [numOps]*OpStats{&st.Sign, &st.Verify, &st.Decrypt, &st.Encrypt}
	for op := Op(0); op < numOps; op++ {
		ops[op].Hits = e.counters[op].hits.Load()
		ops[op].Misses = e.counters[op].misses.Load()
		ops[op].Evictions = e.counters[op].evictions.Load()
	}
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		st.Entries += len(sh.cur) + len(sh.prev)
		sh.mu.Unlock()
	}
	return st
}

// Epoch is the fixed timestamp deterministic handshakes stamp into OPN
// requests and responses instead of time.Now(), so an unchanged host's
// exchange is bit-identical in every wave. Nothing in the measurement
// pipeline reads OPN timestamps; dataset record times come from the
// wave schedule.
//
//studyvet:entropy-exempt — the sanctioned clock constant itself; a fixed date, not a wall-clock read
var Epoch = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
