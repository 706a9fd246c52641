// Package chaos is the deterministic adversarial-host layer: seeded,
// per-(wave, host) behavior profiles that make the simulated internet
// hostile the way the paper's real scan targets were — tarpits that
// dribble bytes and stall, peers that reset mid-handshake, flapping
// listeners that refuse the first connect attempts, truncated and
// corrupted frames, oversized chunk-size claims, and garbage written
// before any banner.
//
// Every decision derives purely from (seed, wave, ip, port) through
// FNV-1a — no state, no clocks, no ambient entropy — so a chaos
// campaign is bit-reproducible across runs, across shard counts and
// across processes, exactly like the polite universe it perturbs
// (DESIGN.md §9). The package deliberately does not import simnet:
// simnet and worldview consult a WaveModel at dial time and hand the
// server end of the connection to Serve, keeping the dependency one-way.
package chaos

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"

	"repro/internal/memconn"
)

// Kind identifies one adversarial behavior.
type Kind uint8

const (
	// KindNone is the zero Kind: the host behaves politely.
	KindNone Kind = iota
	// KindTarpit dribbles a few banner bytes, then holds the
	// connection open silently until the peer gives up. The probe can
	// only fail by deadline — the taxonomy's "timeout" class.
	KindTarpit
	// KindReset accepts the connection, reads the hello, and closes
	// without answering — a mid-handshake RST ("reset").
	KindReset
	// KindFlap refuses the first Param connect attempts and serves
	// politely afterwards; a retrying scanner deterministically
	// recovers the host, a single-shot scanner loses it.
	KindFlap
	// KindTruncate serves the real handler but cuts the server→client
	// stream after Param bytes — a frame truncated mid-acknowledge.
	KindTruncate
	// KindCorrupt serves the real handler but XORs the high bit of the
	// server→client byte at offset Param, inside the acknowledge frame
	// where the transcript is limits-negotiation and fully
	// deterministic.
	KindCorrupt
	// KindOversize answers the hello with a frame header claiming a
	// near-4GiB body — the hostile length field the uasc frame ceiling
	// must bound ("malformed").
	KindOversize
	// KindGarbage writes a well-framed chunk of an unknown message
	// type before reading any banner ("malformed").
	KindGarbage
)

func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindTarpit:
		return "tarpit"
	case KindReset:
		return "reset"
	case KindFlap:
		return "flap"
	case KindTruncate:
		return "truncate"
	case KindCorrupt:
		return "corrupt"
	case KindOversize:
		return "oversize"
	case KindGarbage:
		return "garbage"
	}
	return fmt.Sprintf("chaos.Kind(%d)", uint8(k))
}

// Behavior is the decided adversarial behavior for one (wave, host).
type Behavior struct {
	Kind Kind
	// Param is the Kind-specific deterministic parameter: refused
	// connect attempts (Flap), dribbled banner bytes (Tarpit), the
	// server→client cut offset (Truncate) or corruption offset
	// (Corrupt). Zero for the parameterless kinds.
	Param uint32
}

// Refuses reports whether a dial with the given zero-based attempt
// number must be refused (the connect-refuse flap).
func (b Behavior) Refuses(attempt int) bool {
	return b.Kind == KindFlap && attempt < int(b.Param)
}

// Model is a campaign-level chaos configuration: which kinds can occur,
// with what probability, under which seed. The zero value is disabled.
type Model struct {
	Seed  int64
	Prob  float64
	Kinds []Kind
}

// Enabled reports whether the model can ever produce a behavior.
func (m Model) Enabled() bool { return m.Prob > 0 && len(m.Kinds) > 0 }

// ForWave binds the model to one wave, yielding the stateless decision
// function dial paths consult. Distinct waves draw independent
// behaviors for the same host, mirroring how the real internet changes
// between the paper's weekly scans.
func (m Model) ForWave(wave int) WaveModel { return WaveModel{model: m, wave: wave} }

// WaveModel is a Model bound to a wave. The zero value is disabled.
type WaveModel struct {
	model Model
	wave  int
}

// FNV-1a 64-bit parameters, restated locally (simnet exports the same
// constants, but chaos must not import simnet); pinned against
// hash/fnv by TestFNVConstants.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Behavior decides the behavior of host ip:port in this wave, purely
// from (seed, wave, ip, port): one FNV-1a hash of behaviorKey supplies
// the occurrence roll (low bits, the same %1000000 mapping as
// simnet.Noise), the kind selection (middle bits) and the kind
// parameter (high bits). Every input moves the decision
// (TestBehaviorDependsOnEveryInput).
func (wm WaveModel) Behavior(ip [4]byte, port int) Behavior {
	m := wm.model
	if !m.Enabled() {
		return Behavior{}
	}
	key := behaviorKey(m.Seed, wm.wave, ip, port)
	return m.decide(hashKey(key[:]))
}

// behaviorKey is what Behavior hashes: the seed, the wave, the address
// and the port, each big-endian.
func behaviorKey(seed int64, wave int, ip [4]byte, port int) [18]byte {
	var k [18]byte
	binary.BigEndian.PutUint64(k[0:], uint64(seed))
	binary.BigEndian.PutUint32(k[8:], uint32(wave))
	copy(k[12:], ip[:])
	binary.BigEndian.PutUint16(k[16:], uint16(port))
	return k
}

// hashKey is FNV-1a over key.
func hashKey(key []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}

// decide maps a behavior hash to the behavior it draws under m.
func (m Model) decide(h uint64) Behavior {
	if float64(h%1000000)/1000000.0 >= m.Prob {
		return Behavior{}
	}
	kind := m.Kinds[(h>>20)%uint64(len(m.Kinds))]
	return Behavior{Kind: kind, Param: param(kind, uint32(h>>32))}
}

// param derives the kind-specific parameter from the hash's high bits.
// Truncate and Corrupt offsets stay inside the 28-byte acknowledge
// frame: its bytes are pure limits negotiation, deterministic across
// runs, so the resulting failure (and its error string) is too.
func param(k Kind, x uint32) uint32 {
	switch k {
	case KindFlap:
		return 1 + x%3 // refuse the first 1..3 attempts
	case KindTarpit:
		return 1 + x%4 // dribble 1..4 of the 8 header bytes
	case KindTruncate:
		return 1 + x%27 // cut server→client inside the ACK frame
	case KindCorrupt:
		return 4 + x%24 // flip a byte past the msgType, inside the ACK
	}
	return 0
}

// --- named profiles (the measure -chaos vocabulary) ---

// Profile is a named chaos configuration template.
type Profile struct {
	Name  string
	Prob  float64
	Kinds []Kind
}

var profiles = map[string]Profile{
	"mixed": {Name: "mixed", Prob: 0.35, Kinds: []Kind{
		KindTarpit, KindReset, KindFlap, KindTruncate, KindCorrupt, KindOversize, KindGarbage,
	}},
	"tarpit":   {Name: "tarpit", Prob: 0.35, Kinds: []Kind{KindTarpit}},
	"reset":    {Name: "reset", Prob: 0.35, Kinds: []Kind{KindReset}},
	"flap":     {Name: "flap", Prob: 0.35, Kinds: []Kind{KindFlap}},
	"truncate": {Name: "truncate", Prob: 0.35, Kinds: []Kind{KindTruncate}},
	"corrupt":  {Name: "corrupt", Prob: 0.35, Kinds: []Kind{KindCorrupt}},
	"oversize": {Name: "oversize", Prob: 0.35, Kinds: []Kind{KindOversize}},
	"garbage":  {Name: "garbage", Prob: 0.35, Kinds: []Kind{KindGarbage}},
}

// Profiles returns the known profile names, sorted.
func Profiles() []string {
	names := make([]string, 0, len(profiles))
	for name := range profiles {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ModelForProfile resolves a named profile to a Model under seed.
func ModelForProfile(name string, seed int64) (Model, error) {
	p, ok := profiles[name]
	if !ok {
		return Model{}, fmt.Errorf("chaos: unknown profile %q (known profiles: %s)",
			name, strings.Join(Profiles(), ", "))
	}
	return Model{Seed: seed, Prob: p.Prob, Kinds: p.Kinds}, nil
}

// DeriveSeed folds strings into seed with FNV-1a — how the scanner
// derives a per-address backoff seed from the campaign chaos seed.
func DeriveSeed(seed int64, parts ...string) int64 {
	h := uint64(fnvOffset64)
	s := uint64(seed)
	for shift := 56; shift >= 0; shift -= 8 {
		h ^= uint64(byte(s >> shift))
		h *= fnvPrime64
	}
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= fnvPrime64
		}
		h ^= 0xff // separator so ("ab","c") != ("a","bc")
		h *= fnvPrime64
	}
	return int64(h)
}

// --- connect-attempt plumbing ---

// attemptKey carries the zero-based connect attempt number through a
// dial's context, so the stateless flap decision can compare it against
// Param without any shared per-address counter (which would break
// 1-vs-N-shard byte identity).
type attemptKey struct{}

// WithAttempt annotates ctx with a zero-based connect attempt number.
func WithAttempt(ctx context.Context, attempt int) context.Context {
	if attempt <= 0 {
		return ctx
	}
	return context.WithValue(ctx, attemptKey{}, attempt)
}

// AttemptFromContext returns the connect attempt number from ctx
// (zero when unannotated).
func AttemptFromContext(ctx context.Context) int {
	if v, ok := ctx.Value(attemptKey{}).(int); ok {
		return v
	}
	return 0
}

// --- server-side behavior execution ---

// Serve runs behavior b on the server end of a freshly dialed
// connection; handle is the host's real connection handler, consulted
// only by the kinds that serve (possibly filtered) genuine traffic.
// Serve owns conn and closes it before returning. Every behavior
// terminates once the peer closes its end, so a goroutine running
// Serve is bounded by the client's deadline — chaos hosts can stall a
// probe, never leak its serving goroutine.
//
// No simulated server closes before it has consumed the client's hello.
// The connection is buffered (internal/memconn): a server that closed
// first would race the client's hello write, which fails with
// io.ErrClosedPipe if the close wins and succeeds if it loses, and the
// record's error string and failure class would follow the scheduler.
// Reading the hello first orders every close after that write, so each
// kind yields one outcome (TestChaosOutcomeIndependentOfScheduling).
func Serve(b Behavior, conn net.Conn, handle func(net.Conn)) {
	switch b.Kind {
	case KindTarpit:
		serveTarpit(conn, int(b.Param))
	case KindReset:
		serveReset(conn)
	case KindTruncate:
		serveFiltered(conn, handle, func(dst io.Writer, src io.Reader) {
			_, _ = io.CopyN(dst, src, int64(b.Param))
		})
	case KindCorrupt:
		serveFiltered(conn, handle, corruptAt(uint64(b.Param)))
	case KindOversize:
		serveOversize(conn)
	case KindGarbage:
		serveGarbage(conn)
	default:
		// KindNone, and KindFlap once past its refused attempts.
		handle(conn)
	}
}

// ackHeader is the first 8 bytes of a plausible acknowledge frame;
// tarpits dribble a prefix of it, the oversize kind rewrites its size
// field.
var ackHeader = []byte{'A', 'C', 'K', 'F', 0, 0, 0, 0}

// serveTarpit absorbs the hello, writes the first n (< 8) header bytes
// of an acknowledge, and then swallows everything silently: the probe
// blocks mid-frame-header until its deadline fires.
func serveTarpit(conn net.Conn, n int) {
	defer func() { _ = conn.Close() }()
	buf := make([]byte, 256)
	if _, err := conn.Read(buf); err != nil {
		return
	}
	if n > 4 {
		n = 4
	}
	if _, err := conn.Write(ackHeader[:n]); err != nil {
		return
	}
	for {
		if _, err := conn.Read(buf); err != nil {
			return
		}
	}
}

// serveReset reads the hello and closes without a byte in response.
func serveReset(conn net.Conn) {
	buf := make([]byte, 256)
	_, _ = conn.Read(buf)
	_ = conn.Close()
}

// serveOversize answers the hello with an acknowledge header whose
// size field claims a near-4GiB body, then closes once the peer does.
func serveOversize(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	buf := make([]byte, 256)
	if _, err := conn.Read(buf); err != nil {
		return
	}
	hdr := make([]byte, 8)
	copy(hdr, ackHeader[:4])
	claimed := uint32(0xfffffff0)
	hdr[4] = byte(claimed)
	hdr[5] = byte(claimed >> 8)
	hdr[6] = byte(claimed >> 16)
	hdr[7] = byte(claimed >> 24)
	_, _ = conn.Write(hdr)
}

// serveGarbage writes a well-framed chunk of an unknown message type
// before reading any banner, absorbs the hello, then closes (the rule in
// Serve's comment). The connection buffers, so the unsolicited write
// cannot wedge against the peer's hello.
func serveGarbage(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	hdr := []byte{'G', 'G', 'G', 'F', 8, 0, 0, 0} // valid frame, empty body
	if _, err := conn.Write(hdr); err != nil {
		return
	}
	buf := make([]byte, 256)
	_, _ = conn.Read(buf)
}

// serveFiltered runs the real handler behind an inner pipe and relays
// traffic, applying filter to the server→client direction. filter
// returns when it is done damaging the stream; serveFiltered then tears
// both connections down. The inner pipe joins conn's group, as a relay
// blocked on one pipe is feeding the other.
func serveFiltered(conn net.Conn, handle func(net.Conn), filter func(io.Writer, io.Reader)) {
	inner, outer := memconn.Join(conn)
	go handle(inner)
	go func() {
		// client→server passthrough; unblocks when either side closes.
		_, _ = io.Copy(outer, conn)
		_ = outer.Close()
	}()
	filter(conn, outer)
	_ = conn.Close()
	_ = outer.Close()
}

// corruptAt returns a server→client filter that copies the stream
// unmodified except for XORing the high bit of the byte at offset.
func corruptAt(offset uint64) func(io.Writer, io.Reader) {
	return func(dst io.Writer, src io.Reader) {
		buf := make([]byte, 2048)
		var off uint64
		for {
			n, err := src.Read(buf)
			if n > 0 {
				if off <= offset && offset < off+uint64(n) {
					buf[offset-off] ^= 0x80
				}
				off += uint64(n)
				if _, werr := dst.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}
}
