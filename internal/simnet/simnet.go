// Package simnet provides the in-memory IPv4 Internet the measurement
// campaign scans: a universe of address prefixes, hosts registered at
// IP:port with their autonomous system, connection-level noise hosts
// (open TCP 4840 without OPC UA, as the paper observes for 99.95% of
// open ports), latency injection and a Dialer compatible with the
// client and scanner.
//
// Real Internet-wide scanning is gated (ethically and technically), so
// the campaign runs against this network instead; every host is a real
// OPC UA server speaking the full binary protocol over an in-process
// connection (internal/memconn).
package simnet

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"net"
	"net/netip"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/memconn"
)

// ConnHandler serves one accepted connection. *uaserver.Server satisfies
// this interface.
type ConnHandler interface {
	HandleConn(conn net.Conn)
}

// HandlerFunc adapts a function to ConnHandler.
type HandlerFunc func(conn net.Conn)

// HandleConn implements ConnHandler.
func (f HandlerFunc) HandleConn(conn net.Conn) { f(conn) }

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
	if bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("simnet: invalid prefix length %d", bits)
	}
	return Prefix{Base: addr, Size: 1 << (32 - bits)}, nil
}

// AddrToU32 returns an IPv4 address as its 32-bit big-endian value, the
// key form of the per-probe paths (no netip hashing or comparison).
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
	// slot[i>>shift] is the prefix holding linear index i. Every prefix
	// size, hence every cum entry, is a multiple of 1<<shift, so no slot
	// straddles a prefix boundary. nil when the table would exceed
	// maxLocateSlots (prefix sizes sharing no large power-of-two factor
	// over a big universe); Locate then binary-searches cum.
	slot  []int32
	shift uint
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

	var sizes uint64
	for _, p := range prefixes {
		sizes |= uint64(p.Size)
	}
	u.shift = uint(bits.TrailingZeros64(sizes))
	if slots := u.total >> u.shift; slots <= maxLocateSlots {
		u.slot = make([]int32, slots)
		for i := range prefixes {
			for k := u.cum[i] >> u.shift; k < u.cum[i+1]>>u.shift; k++ {
				u.slot[k] = int32(i)
			}
		}
	}

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

// maxLocateSlots caps the direct Locate table (256 KiB of int32). The
// study universe of 40 x /16 needs 40 slots; any NewPrefix-built
// universe needs total / smallest-prefix-size.
const maxLocateSlots = 1 << 16

// AddrAt maps a linear index to an address.
func (u *Universe) AddrAt(i uint64) (netip.Addr, error) {
	if i >= u.total {
		return netip.Addr{}, fmt.Errorf("simnet: index %d outside universe", i)
	}
	prefix, off := u.Locate(i)
	return u.prefixes[prefix].AddrAt(off), nil
}

// Locate maps a linear index to its position: the prefix holding it and
// the offset inside that prefix. i must be < Size(). It performs no heap
// allocations.
//
//studyvet:hotpath — called once per probed address
func (u *Universe) Locate(i uint64) (prefix int, off uint32) {
	if u.slot != nil {
		prefix = int(u.slot[i>>u.shift])
		return prefix, uint32(i - u.cum[prefix])
	}
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

// Disjoint reports whether no two prefixes share an address. Only then
// does a Locate position name the same prefix PrefixIndex resolves the
// address to; views that shard state by PrefixIndex resolve positions of
// an overlapping universe by address instead.
func (u *Universe) Disjoint() bool { return u.byBase != nil }

// View is the read-only interface over the simulated Internet that the
// scanner consumes: address-space enumeration, SYN-probe checks, AS
// attribution and connection establishment. Both the legacy mutable
// *Network and the immutable per-wave snapshots built by
// internal/worldview satisfy it; DialContext additionally makes every
// View a uaclient.Dialer.
type View interface {
	// Universe returns the scannable address space.
	Universe() *Universe
	// OpenPort reports whether a TCP connect would succeed, without
	// spawning handlers.
	OpenPort(ip netip.Addr, port int) bool
	// OpenPortAt is OpenPort for the address at a Universe.Locate
	// position; the sweep probes by position so that a netip.Addr exists
	// only for responsive addresses.
	OpenPortAt(prefix int, off uint32, port int) bool
	// ASOf returns the autonomous system of an address.
	ASOf(ip netip.Addr) int
	// DialContext connects to "ip:port" like net.Dialer.
	DialContext(ctx context.Context, network, address string) (net.Conn, error)
}

// Network is the simulated Internet.
type Network struct {
	universe *Universe

	mu      sync.RWMutex
	hosts   map[netip.AddrPort]*Host
	asOfIP  map[netip.Addr]int
	latency time.Duration
	// noiseProb is the probability that an unregistered universe address
	// has TCP 4840 open but speaks something other than OPC UA.
	noiseProb   float64
	noiseSeed   uint64
	dialCount   int64
	excludedIPs map[netip.Addr]bool
	// chaos is the wave-bound adversarial-host model (DESIGN.md §9);
	// the zero value leaves every registered host polite.
	chaos chaos.WaveModel
}

// New creates a network over the given universe.
func New(u *Universe) *Network {
	return &Network{
		universe:    u,
		hosts:       make(map[netip.AddrPort]*Host),
		asOfIP:      make(map[netip.Addr]int),
		excludedIPs: make(map[netip.Addr]bool),
		noiseSeed:   0x9E3779B97F4A7C15,
	}
}

// Host is one registered endpoint.
type Host struct {
	IP      netip.Addr
	Port    int
	ASN     int
	Handler ConnHandler
}

// SetLatency sets the artificial dial latency.
func (n *Network) SetLatency(d time.Duration) { n.latency = d }

// SetNoise configures the open-port-but-not-OPC-UA probability for
// unregistered universe addresses on port 4840.
func (n *Network) SetNoise(prob float64) { n.noiseProb = prob }

// SetChaos installs the wave-bound adversarial-host model consulted on
// every dial to a registered host (deploy.World.ApplyWave rebinds it
// each wave on this legacy mutable path; snapshot views carry their own
// via worldview.Config.Chaos). A zero WaveModel disables chaos.
func (n *Network) SetChaos(wm chaos.WaveModel) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.chaos = wm
}

// ChaosModel returns the currently bound wave chaos model.
func (n *Network) ChaosModel() chaos.WaveModel {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.chaos
}

// Exclude removes an IP from the network (opt-out list, Appendix A.2).
func (n *Network) Exclude(ip netip.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.excludedIPs[ip] = true
}

// Register adds a host. Registering the same ip:port twice replaces the
// previous handler (hosts change across measurement waves).
func (n *Network) Register(ip netip.Addr, port, asn int, h ConnHandler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.hosts[netip.AddrPortFrom(ip, uint16(port))] = &Host{IP: ip, Port: port, ASN: asn, Handler: h}
	n.asOfIP[ip] = asn
}

// Unregister removes a host (churn between waves).
func (n *Network) Unregister(ip netip.Addr, port int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.hosts, netip.AddrPortFrom(ip, uint16(port)))
}

// Hosts returns a snapshot of all registered hosts, sorted by IP then
// port so snapshots are stable across runs.
func (n *Network) Hosts() []*Host {
	n.mu.RLock()
	out := make([]*Host, 0, len(n.hosts))
	for _, h := range n.hosts {
		out = append(out, h)
	}
	n.mu.RUnlock()
	slices.SortFunc(out, func(a, b *Host) int {
		if c := a.IP.Compare(b.IP); c != 0 {
			return c
		}
		return cmp.Compare(a.Port, b.Port)
	})
	return out
}

// NumHosts returns the number of registered endpoints.
func (n *Network) NumHosts() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.hosts)
}

// Universe returns the scannable address space.
func (n *Network) Universe() *Universe { return n.universe }

// ASOf returns the autonomous system of an address; unregistered
// addresses get a deterministic ASN derived from their /16.
func (n *Network) ASOf(ip netip.Addr) int {
	n.mu.RLock()
	if asn, ok := n.asOfIP[ip]; ok {
		n.mu.RUnlock()
		return asn
	}
	n.mu.RUnlock()
	return DefaultASN(ip)
}

// DefaultASN is the deterministic fallback AS attribution for addresses
// without a registered host: a private-use ASN derived from the /16.
// Snapshots use the same formula so every View agrees on AS mapping.
func DefaultASN(ip netip.Addr) int {
	return 64512 + int(AddrToU32(ip)>>16)%1024
}

// Noise is the deterministic open-port-but-not-OPC-UA model: Prob of
// the universe's unregistered addresses answer on TCP 4840 with some
// other service (the paper observes 99.95% of open ports are not
// OPC UA). The decision is a pure hash of the address, so the mutable
// Network and every immutable snapshot sharing the same Noise agree.
type Noise struct {
	Prob float64
	Seed uint64

	// limit is noiseLimit(Prob), resolved once by Network.NoiseModel so
	// the per-probe decision is an integer compare. A Noise literal
	// leaves it zero — no positive Prob has a zero limit — and HitU32
	// then resolves it per call.
	limit uint32
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

// Hit reports whether the address answers with a non-OPC-UA service.
func (z Noise) Hit(u *Universe, ip netip.Addr, port int) bool {
	// Cheap rejections first: the universe prefix walk only runs for
	// dials that could plausibly be noise.
	if port != 4840 || z.Prob <= 0 {
		return false
	}
	return u.Contains(ip) && z.HitInUniverse(ip, port)
}

// FNV-1a parameters (matching hash/fnv's 64-bit variant). The noise
// model below and the scanner's Feistel permutation both inline the
// hash on their per-probe paths so probes allocate nothing; sharing the
// constants here keeps one canonical definition
// (TestNoiseMatchesFNVReference and the scanner's
// TestPermutationRoundMatchesFNV pin both inlined variants against
// hash/fnv).
const (
	FNVOffset64 = 14695981039346656037
	FNVPrime64  = 1099511628211
)

// HitInUniverse is Hit for an address the caller already resolved to a
// universe prefix; it skips the containment walk.
func (z Noise) HitInUniverse(ip netip.Addr, port int) bool {
	return z.HitU32(AddrToU32(ip), port)
}

// HitU32 is HitInUniverse on the AddrToU32 form of the address (the
// port-scan hot path calls this once per address). It performs no heap
// allocations.
//
//studyvet:hotpath — called once per probed address
func (z Noise) HitU32(addr uint32, port int) bool {
	if port != 4840 || z.Prob <= 0 {
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

// isNoise deterministically decides whether an unregistered address
// answers on port 4840 with a non-OPC-UA service.
func (n *Network) isNoise(ip netip.Addr, port int) bool {
	return n.NoiseModel().Hit(n.universe, ip, port)
}

// NoiseModel returns the network's noise configuration, for snapshot
// construction, with the per-probe threshold resolved.
func (n *Network) NoiseModel() Noise {
	return Noise{Prob: n.noiseProb, Seed: n.noiseSeed, limit: noiseLimit(n.noiseProb)}
}

// Latency returns the artificial dial latency.
func (n *Network) Latency() time.Duration { return n.latency }

// ExcludedIPs returns a copy of the opt-out list, sorted by address so
// downstream blocklist construction is order-independent.
func (n *Network) ExcludedIPs() []netip.Addr {
	n.mu.RLock()
	out := make([]netip.Addr, 0, len(n.excludedIPs))
	for ip := range n.excludedIPs {
		out = append(out, ip)
	}
	n.mu.RUnlock()
	slices.SortFunc(out, netip.Addr.Compare)
	return out
}

// ErrRefused mirrors a TCP RST from a closed port.
type ErrRefused struct{ Addr string }

// Error implements the error interface.
func (e ErrRefused) Error() string { return "simnet: connection refused: " + e.Addr }

// Timeout reports false; refusals are immediate.
func (e ErrRefused) Timeout() bool { return false }

// DialContext implements the Dialer interface used by uaclient and the
// scanner. It spawns the host's handler on the server end of an
// in-process connection.
func (n *Network) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	if network != "tcp" && network != "tcp4" {
		return nil, fmt.Errorf("simnet: unsupported network %q", network)
	}
	host, portStr, err := net.SplitHostPort(address)
	if err != nil {
		return nil, fmt.Errorf("simnet: %w", err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, fmt.Errorf("simnet: invalid port %q", portStr)
	}
	ip, err := netip.ParseAddr(host)
	if err != nil {
		return nil, fmt.Errorf("simnet: %w", err)
	}
	if n.latency > 0 {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(n.latency):
		}
	}
	n.mu.RLock()
	excluded := n.excludedIPs[ip]
	h, ok := n.hosts[netip.AddrPortFrom(ip, uint16(port))]
	cm := n.chaos
	n.mu.RUnlock()
	if excluded {
		return nil, ErrRefused{Addr: address}
	}
	if !ok {
		if n.isNoise(ip, port) {
			client, server := memconn.Pipe()
			go ServeNoise(server)
			return client, nil
		}
		return nil, ErrRefused{Addr: address}
	}
	// Adversarial behavior applies to registered hosts only: noise
	// endpoints and closed ports stay polite. The decision is a pure
	// function of (seed, wave, ip, port) plus the dial's context-borne
	// attempt number, so it is identical across shards and processes.
	if b := cm.Behavior(ip.As4(), port); b.Kind != chaos.KindNone {
		if b.Refuses(chaos.AttemptFromContext(ctx)) {
			return nil, ErrRefused{Addr: address}
		}
		client, server := memconn.Pipe()
		go chaos.Serve(b, server, h.Handler.HandleConn)
		return client, nil
	}
	client, server := memconn.Pipe()
	go h.Handler.HandleConn(server)
	return client, nil
}

// ServeNoise emulates a non-OPC-UA service on port 4840: it reads a
// little and responds with an HTTP error, as embedded web servers do.
// Exported so snapshot views serve the exact same noise behaviour.
func ServeNoise(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 256)
	_, _ = conn.Read(buf)
	_, _ = conn.Write([]byte("HTTP/1.0 400 Bad Request\r\nConnection: close\r\n\r\n"))
}

// Compile-time check: the mutable network satisfies the read-only view.
var _ View = (*Network)(nil)

// OpenPort reports whether a TCP connect to the address would succeed,
// without spawning handlers. The port-scan stage uses it as its fast
// SYN-probe path; the result matches DialContext behaviour exactly.
func (n *Network) OpenPort(ip netip.Addr, port int) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if len(n.excludedIPs) > 0 && n.excludedIPs[ip] {
		return false
	}
	if _, ok := n.hosts[netip.AddrPortFrom(ip, uint16(port))]; ok {
		return true
	}
	return n.isNoise(ip, port)
}

// OpenPortAt resolves the position to its address and asks OpenPort: the
// mutable network keys everything by address, and no campaign sweeps it.
func (n *Network) OpenPortAt(prefix int, off uint32, port int) bool {
	return n.OpenPort(n.universe.prefixes[prefix].AddrAt(off), port)
}
