// Package simnet holds the parameters of the in-memory IPv4 Internet
// the measurement campaign scans: the universe of address prefixes, the
// deterministic noise model (open TCP 4840 without OPC UA, as the paper
// observes for 99.95% of open ports), the fallback AS attribution of
// addresses without a host, the noise hosts' reply (ServeNoise), and
// View, the read-only interface the scanner consumes.
//
// Real Internet-wide scanning is gated (ethically and technically), so
// the campaign runs against this network instead. The one dialable
// Internet is internal/worldview's per-wave Snapshot: every host is a
// real OPC UA server speaking the full binary protocol over an
// in-process connection (internal/memconn).
package simnet

import (
	"cmp"
	"context"
	"fmt"
	"net"
	"net/netip"
	"slices"
	"time"

	"repro/internal/memconn"
)

// ConnHandler serves one accepted connection. *uaserver.Server satisfies
// this interface.
type ConnHandler interface {
	HandleConn(conn net.Conn)
}

// Prefix is a contiguous IPv4 range [Base, Base+Size).
type Prefix struct {
	Base netip.Addr
	Size uint32
}

// NewPrefix builds a prefix from CIDR-ish parameters.
func NewPrefix(base string, bits int) (Prefix, error) {
	addr, err := netip.ParseAddr(base)
	if err != nil {
		return Prefix{}, fmt.Errorf("simnet: %w", err)
	}
	if !addr.Is4() {
		return Prefix{}, fmt.Errorf("simnet: %s is not IPv4", base)
	}
	// A /0 would need 1<<32 addresses, which a uint32 Size truncates to
	// an empty prefix.
	if bits < 1 || bits > 32 {
		return Prefix{}, fmt.Errorf("simnet: invalid prefix length %d", bits)
	}
	if p := netip.PrefixFrom(addr, bits); p.Masked().Addr() != addr {
		return Prefix{}, fmt.Errorf("simnet: %s is not the first address of its /%d", base, bits)
	}
	return Prefix{Base: addr, Size: 1 << (32 - bits)}, nil
}

// AddrToU32 returns an IPv4 address as its 32-bit big-endian value, the
// key form of the host tables and the noise hash (no netip hashing or
// comparison).
func AddrToU32(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// U32ToAddr is the inverse of AddrToU32.
func U32ToAddr(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// Contains reports whether the prefix contains the address.
func (p Prefix) Contains(a netip.Addr) bool {
	v, base := AddrToU32(a), AddrToU32(p.Base)
	return v >= base && v-base < p.Size
}

// AddrAt returns the i-th address of the prefix.
func (p Prefix) AddrAt(i uint32) netip.Addr {
	return U32ToAddr(AddrToU32(p.Base) + i)
}

// Universe is the scannable address space: an ordered set of prefixes.
type Universe struct {
	prefixes []Prefix
	// cum[i] is the linear index of prefixes[i]'s first address;
	// cum[len(prefixes)] == total.
	cum   []uint64
	total uint64
	// byBase orders prefix indexes by base address when the prefixes
	// are pairwise disjoint, enabling a binary-search PrefixIndex (the
	// by-address and dial path); nil when prefixes overlap, which falls
	// back to the first-match linear walk.
	byBase []int
}

// NewUniverse builds a universe from prefixes.
func NewUniverse(prefixes ...Prefix) *Universe {
	u := &Universe{
		prefixes: prefixes,
		cum:      make([]uint64, len(prefixes)+1),
	}
	for i, p := range prefixes {
		u.cum[i] = u.total
		u.total += uint64(p.Size)
	}
	u.cum[len(prefixes)] = u.total

	byBase := make([]int, len(prefixes))
	for i := range byBase {
		byBase[i] = i
	}
	slices.SortFunc(byBase, func(a, b int) int {
		return cmp.Compare(AddrToU32(prefixes[a].Base), AddrToU32(prefixes[b].Base))
	})
	disjoint := true
	for k := 1; k < len(byBase); k++ {
		prev, cur := prefixes[byBase[k-1]], prefixes[byBase[k]]
		if uint64(AddrToU32(prev.Base))+uint64(prev.Size) > uint64(AddrToU32(cur.Base)) {
			disjoint = false
			break
		}
	}
	if disjoint {
		u.byBase = byBase
	}
	return u
}

// Size returns the number of scannable addresses.
func (u *Universe) Size() uint64 { return u.total }

// Locate maps a linear index to its position: the prefix holding it and
// the offset inside that prefix. i must be < Size(). It performs no heap
// allocations.
//
//studyvet:hotpath — called once per responsive address a sweep reports
func (u *Universe) Locate(i uint64) (prefix int, off uint32) {
	// Find the prefix whose range contains i: the last k with cum[k] <= i.
	lo, hi := 0, len(u.prefixes)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if u.cum[mid] <= i {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, uint32(i - u.cum[lo])
}

// Contains reports whether the universe contains the address.
func (u *Universe) Contains(a netip.Addr) bool {
	return u.PrefixIndex(a) >= 0
}

// PrefixIndex returns the index of the universe prefix containing the
// address, or -1 if the address is outside the universe. Worldview
// snapshots shard their host lookup by this index so concurrent
// scanners working disjoint prefixes hit independent shards.
func (u *Universe) PrefixIndex(a netip.Addr) int {
	if u.byBase != nil {
		// Disjoint prefixes: at most one can contain the address, so
		// the first match equals the only match and a binary search on
		// the base-ordered view is exact. Find the last prefix with
		// Base <= a and check containment.
		v := AddrToU32(a)
		lo, hi := 0, len(u.byBase)-1
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if AddrToU32(u.prefixes[u.byBase[mid]].Base) <= v {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		if len(u.byBase) > 0 && u.prefixes[u.byBase[lo]].Contains(a) {
			return u.byBase[lo]
		}
		return -1
	}
	for i, p := range u.prefixes {
		if p.Contains(a) {
			return i
		}
	}
	return -1
}

// NumPrefixes returns the number of prefixes in the universe.
func (u *Universe) NumPrefixes() int { return len(u.prefixes) }

// Prefix returns the i-th prefix, in the order Locate numbers them.
func (u *Universe) Prefix(i int) Prefix { return u.prefixes[i] }

// View is the read-only interface over the simulated Internet that the
// scanner consumes: address-space enumeration, the sweep's responsive
// index, SYN-probe checks, AS attribution and connection establishment;
// DialContext additionally makes every View a uaclient.Dialer. Its one
// implementation is internal/worldview's Snapshot; the interface stays
// because the benchmark module declares its views through it.
type View interface {
	// Universe returns the scannable address space.
	Universe() *Universe
	// Responsive returns, ascending, every linear universe index
	// (Universe.Locate's domain) whose address answers on ScanPort: the
	// whole result of a sweep, which visits them in permuted order. An
	// address that two overlapping prefixes share appears once per
	// index. Callers must not modify the slice.
	Responsive() []uint64
	// OpenPort reports whether a TCP connect would succeed, without
	// spawning handlers.
	OpenPort(ip netip.Addr, port int) bool
	// ASOf returns the autonomous system of an address.
	ASOf(ip netip.Addr) int
	// DialContext connects to "ip:port" like net.Dialer.
	DialContext(ctx context.Context, network, address string) (net.Conn, error)
}

// DefaultASN is the deterministic fallback AS attribution for addresses
// without a registered host: a private-use ASN derived from the /16.
func DefaultASN(ip netip.Addr) int {
	return 64512 + int(AddrToU32(ip)>>16)%1024
}

// ScanPort is the standard OPC UA port: the one port the campaign
// sweeps, and the one port noise answers on.
const ScanPort = 4840

// Noise is the deterministic open-port-but-not-OPC-UA model: Prob of
// the universe's unregistered addresses answer on ScanPort with some
// other service (the paper observes 99.95% of open ports are not
// OPC UA). The decision is a pure hash of the address, so every
// snapshot sharing the same Noise agrees.
type Noise struct {
	Prob float64
	Seed uint64

	// limit is noiseLimit(Prob), resolved once by NewNoise so the
	// per-address decision is an integer compare. A Noise literal leaves
	// it zero — no positive Prob has a zero limit — and HitU32 then
	// resolves it per call.
	limit uint32
}

// NewNoise returns the noise model with its per-address threshold resolved.
func NewNoise(prob float64, seed uint64) Noise {
	return Noise{Prob: prob, Seed: seed, limit: noiseLimit(prob)}
}

// noiseResidues is the modulus that maps a noise hash onto [0,1).
const noiseResidues = 1000000

// noiseLimit returns the number of residues r in [0, noiseResidues)
// with float64(r)/noiseResidues < p. The quotient never decreases as r
// grows, so those residues are exactly 0..limit-1 and r < noiseLimit(p)
// is the same predicate without the division.
func noiseLimit(p float64) uint32 {
	if !(p > 0) {
		return 0
	}
	if p >= 1 {
		return noiseResidues
	}
	// The product lands next to the limit; the predicate itself settles
	// which side of it.
	t := uint32(p * noiseResidues)
	for t > 0 && !(float64(t-1)/noiseResidues < p) {
		t--
	}
	for t < noiseResidues && float64(t)/noiseResidues < p {
		t++
	}
	return t
}

// FNV-1a parameters (matching hash/fnv's 64-bit variant). The noise
// model below and the scanner's Feistel permutation both inline the
// hash so their per-address paths allocate nothing; sharing the
// constants here keeps one canonical definition
// (TestNoiseMatchesFNVReference and the scanner's
// TestPermutationRoundMatchesFNV pin both inlined variants against
// hash/fnv).
const (
	FNVOffset64 = 14695981039346656037
	FNVPrime64  = 1099511628211
)

// HitU32 reports whether the universe address, in its AddrToU32 form,
// answers on the port with a non-OPC-UA service. It performs no heap
// allocations.
//
//studyvet:hotpath — called once per universe address by Positions
func (z Noise) HitU32(addr uint32, port int) bool {
	if port != ScanPort || z.Prob <= 0 {
		return false
	}
	// FNV-1a over the address's four bytes in network order.
	h := uint64(FNVOffset64)
	h = (h ^ uint64(addr>>24)) * FNVPrime64
	h = (h ^ uint64(addr>>16&0xff)) * FNVPrime64
	h = (h ^ uint64(addr>>8&0xff)) * FNVPrime64
	h = (h ^ uint64(addr&0xff)) * FNVPrime64
	v := h ^ z.Seed
	// Map the hash to [0,1) and compare: r/noiseResidues < Prob, as
	// r < limit.
	limit := z.limit
	if limit == 0 {
		limit = noiseLimit(z.Prob)
	}
	return uint32(v%noiseResidues) < limit
}

// Positions returns, ascending, the linear indexes of u whose address
// the noise answers at on ScanPort: the noise's share of every sweep's
// responsive index, one HitU32 per index (≈ 12 ms over the 2.6 M-index
// study universe).
func (z Noise) Positions(u *Universe) []uint64 {
	var at []uint64
	if !(z.Prob > 0) {
		return at
	}
	z.limit = noiseLimit(z.Prob)
	for k, p := range u.prefixes {
		base := AddrToU32(p.Base)
		for off := uint32(0); off < p.Size; off++ {
			if z.HitU32(base+off, ScanPort) {
				at = append(at, u.cum[k]+uint64(off))
			}
		}
	}
	return at
}

// ErrRefused mirrors a TCP RST from a closed port.
type ErrRefused struct{ Addr string }

// Error implements the error interface.
func (e ErrRefused) Error() string { return "simnet: connection refused: " + e.Addr }

// Timeout reports false; refusals are immediate.
func (e ErrRefused) Timeout() bool { return false }

// ServeNoise emulates a non-OPC-UA service on port 4840: it reads a
// little and responds with an HTTP error, as embedded web servers do.
// Its deadline is on conn's clock (memconn.ClockOf).
func ServeNoise(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetDeadline(memconn.ClockOf(conn).Now().Add(2 * time.Second))
	buf := make([]byte, 256)
	_, _ = conn.Read(buf)
	_, _ = conn.Write([]byte("HTTP/1.0 400 Bad Request\r\nConnection: close\r\n\r\n"))
}
