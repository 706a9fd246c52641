// Package worldview provides immutable, shareable snapshots of the
// simulated Internet at one measurement wave: the one Internet a
// campaign dials. A Snapshot is constructed once per wave from the world
// spec and never mutated afterwards, so a campaign can materialize the
// views for all N waves up front and run every wave's scan concurrently
// (see DESIGN.md).
//
// Host lookup is sharded by universe address prefix: each /16 of the
// scannable space owns an independent shard (plus one shard for hosts
// outside the universe, e.g. hidden servers reached only through
// references). Shards are immutable after Build, so concurrent
// scanners read them without any locking and scanners working
// disjoint prefixes touch disjoint memory.
//
// Snapshots for different waves share the world's underlying server
// instances, which is what makes the campaign-scoped crypto-reuse layer
// (PR 4) work across waves: deploy.World.SetCrypto installs the
// memoized RSA engine on those shared servers once, and every snapshot
// — past and future — serves handshakes through it. The snapshot
// itself holds no crypto state (DESIGN.md §4).
//
// Snapshots are also the unit the sharded campaign runtime (PR 5)
// distributes over: scanner.RunWaveShard scans one slice of the
// permuted probe space against a snapshot, any number of shards
// concurrently against the same snapshot in-process — or against
// independently materialized but byte-identical snapshots in worker
// processes, since deploy.Materialize is a pure function of the spec
// (DESIGN.md §5).
package worldview

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"time"

	"repro/internal/chaos"
	"repro/internal/memconn"
	"repro/internal/simnet"
)

// Config fixes the snapshot's universe and dial behaviour. A world keeps
// one Config (deploy.World.Net) and every wave's snapshot copies it, so
// all waves observe the same Internet.
type Config struct {
	// Universe is the scannable address space (required).
	Universe *simnet.Universe
	// Noise is the deterministic open-port-but-not-OPC-UA model, from
	// simnet.NewNoise so its per-probe threshold is resolved once.
	Noise simnet.Noise
	// Latency delays every dial.
	Latency time.Duration
	// Chaos is the wave-bound adversarial-host model (DESIGN.md §9),
	// already bound to this snapshot's wave; the zero value leaves
	// every registered host polite. Like Noise it is pure function
	// state, so snapshots stay immutable and shard-equivalent.
	Chaos chaos.WaveModel
}

// SetLatency sets the dial latency of the snapshots built from c afterwards.
func (c *Config) SetLatency(d time.Duration) { c.Latency = d }

// host is one registered endpoint of the snapshot.
type host struct {
	asn     int
	handler simnet.ConnHandler
}

// hostKey packs an endpoint into a map key: the simnet.AddrToU32 address
// above the 16-bit port.
func hostKey(addr uint32, port int) uint64 { return uint64(addr)<<16 | uint64(uint16(port)) }

// shard is one prefix's slice of the host table, keyed by
// simnet.AddrToU32 addresses. Immutable after Build; maps and the
// bitset are safe for unlimited concurrent readers.
type shard struct {
	// base and size are the prefix's first address and address count
	// (both 0 for the catch-all shard).
	base, size uint32
	hosts      map[uint64]host
	asOfIP     map[uint32]int
	// occupied has one bit per address of the prefix, set where any port
	// has a host, so a sweep consults hosts only where one can exist
	// (1,921 of 2.6 M addresses in the study world). Allocated by the
	// first AddHost into the shard; nil on host-free prefixes and on the
	// catch-all shard, whose addresses have no offset.
	occupied []uint64
}

// occupiedAt reports whether any port of the prefix's off-th address
// has a host.
func (sh *shard) occupiedAt(off uint32) bool {
	w := int(off >> 6)
	return w < len(sh.occupied) && sh.occupied[w]&(1<<(off&63)) != 0
}

// Builder accumulates one wave's population and seals it into a
// Snapshot. Builders are not safe for concurrent use; construction is
// cheap (map inserts only — servers are built and cached by the world).
type Builder struct {
	cfg    Config
	shards []shard
	built  bool
}

// NewBuilder starts a snapshot with one shard per universe prefix plus
// a catch-all shard for out-of-universe hosts.
func NewBuilder(cfg Config) (*Builder, error) {
	if cfg.Universe == nil {
		return nil, fmt.Errorf("worldview: nil universe")
	}
	shards := make([]shard, cfg.Universe.NumPrefixes()+1)
	for i := range shards {
		shards[i] = shard{
			hosts:  make(map[uint64]host),
			asOfIP: make(map[uint32]int),
		}
		if i < cfg.Universe.NumPrefixes() {
			p := cfg.Universe.Prefix(i)
			shards[i].base, shards[i].size = simnet.AddrToU32(p.Base), p.Size
		}
	}
	return &Builder{cfg: cfg, shards: shards}, nil
}

// resolve maps an address to its shard and AddrToU32 form: the shard of
// the first universe prefix containing it (inUniverse true), else the
// final catch-all shard.
func resolve(u *simnet.Universe, shards []shard, ip netip.Addr) (sh *shard, inUniverse bool, addr uint32) {
	addr = simnet.AddrToU32(ip)
	i := u.PrefixIndex(ip)
	if i < 0 {
		return &shards[len(shards)-1], false, addr
	}
	return &shards[i], true, addr
}

// AddHost registers one endpoint. Adding the same ip:port twice
// replaces the previous handler.
func (b *Builder) AddHost(ip netip.Addr, port, asn int, h simnet.ConnHandler) {
	s, inUniverse, addr := resolve(b.cfg.Universe, b.shards, ip)
	s.hosts[hostKey(addr, port)] = host{asn: asn, handler: h}
	s.asOfIP[addr] = asn
	if inUniverse {
		if s.occupied == nil {
			s.occupied = make([]uint64, (uint64(s.size)+63)/64)
		}
		off := addr - s.base
		s.occupied[off>>6] |= 1 << (off & 63)
	}
}

// Build seals the population into an immutable Snapshot. The builder
// must not be used afterwards.
func (b *Builder) Build() *Snapshot {
	if b.built {
		panic("worldview: Build called twice")
	}
	b.built = true
	return &Snapshot{cfg: b.cfg, shards: b.shards}
}

// Snapshot is the immutable world at one wave. It satisfies
// simnet.View (and therefore uaclient.Dialer); any number of snapshots
// can be scanned concurrently because nothing is ever written after
// Build.
type Snapshot struct {
	cfg    Config
	shards []shard
}

// Compile-time check: snapshots satisfy the scanner's view interface.
var _ simnet.View = (*Snapshot)(nil)

// Universe returns the scannable address space.
func (s *Snapshot) Universe() *simnet.Universe { return s.cfg.Universe }

// outcome is what a connect to one endpoint meets.
type outcome int

const (
	refused outcome = iota // closed port
	served                 // a registered host answers
	noise                  // some non-OPC-UA service answers
)

// lookup decides a connect to (addr, port), an address of shard sh, for
// the probe and dial paths alike: the registered host first, then noise
// (which only universe addresses have). It performs no heap allocations.
//
//studyvet:hotpath — called once per probed address
func (s *Snapshot) lookup(sh *shard, inUniverse bool, addr uint32, port int) (host, outcome) {
	if !inUniverse || sh.occupiedAt(addr-sh.base) {
		if h, ok := sh.hosts[hostKey(addr, port)]; ok {
			return h, served
		}
	}
	if inUniverse && s.cfg.Noise.HitU32(addr, port) {
		return host{}, noise
	}
	return host{}, refused
}

// lookupAddr is lookup by address.
func (s *Snapshot) lookupAddr(ip netip.Addr, port int) (host, outcome) {
	sh, inUniverse, addr := resolve(s.cfg.Universe, s.shards, ip)
	return s.lookup(sh, inUniverse, addr, port)
}

// OpenPort reports whether a TCP connect to the address would succeed,
// without spawning handlers; the result matches DialContext exactly.
func (s *Snapshot) OpenPort(ip netip.Addr, port int) bool {
	_, o := s.lookupAddr(ip, port)
	return o != refused
}

// OpenPortAt is OpenPort for the address at a Universe.Locate position.
// In a disjoint universe the position's prefix is the address's shard;
// where prefixes overlap an earlier prefix may own the address, so the
// position resolves by address.
//
//studyvet:hotpath — called once per probed address
func (s *Snapshot) OpenPortAt(prefix int, off uint32, port int) bool {
	if !s.cfg.Universe.Disjoint() {
		return s.OpenPort(s.cfg.Universe.Prefix(prefix).AddrAt(off), port)
	}
	sh := &s.shards[prefix]
	_, o := s.lookup(sh, true, sh.base+off, port)
	return o != refused
}

// ASOf returns the autonomous system of an address; addresses without
// a registered host get simnet.DefaultASN.
func (s *Snapshot) ASOf(ip netip.Addr) int {
	sh, _, addr := resolve(s.cfg.Universe, s.shards, ip)
	if asn, ok := sh.asOfIP[addr]; ok {
		return asn
	}
	return simnet.DefaultASN(ip)
}

// DialContext implements the Dialer interface used by uaclient and the
// scanner: it spawns the host's handler on the server end of an
// in-process connection.
func (s *Snapshot) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	if network != "tcp" && network != "tcp4" {
		return nil, fmt.Errorf("worldview: unsupported network %q", network)
	}
	// Single-pass address parse: every grab dials several times, and
	// the split/parse/atoi chain costs three allocations per dial.
	ap, err := netip.ParseAddrPort(address)
	if err != nil {
		return nil, fmt.Errorf("worldview: %w", err)
	}
	ip, port := ap.Addr(), int(ap.Port())
	if s.cfg.Latency > 0 {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(s.cfg.Latency):
		}
	}
	h, o := s.lookupAddr(ip, port)
	switch o {
	case refused:
		return nil, simnet.ErrRefused{Addr: address}
	case noise:
		client, server := memconn.Pipe()
		go simnet.ServeNoise(server)
		return client, nil
	}
	// Adversarial behavior applies to registered hosts only: noise
	// endpoints and closed ports stay polite. The decision is a pure
	// function of (seed, wave, ip, port) plus the dial's context-borne
	// attempt number, so it is identical across shards and processes.
	if b := s.cfg.Chaos.Behavior(ip.As4(), port); b.Kind != chaos.KindNone {
		if b.Refuses(chaos.AttemptFromContext(ctx)) {
			return nil, simnet.ErrRefused{Addr: address}
		}
		client, server := memconn.Pipe()
		go chaos.Serve(b, server, h.handler.HandleConn)
		return client, nil
	}
	client, server := memconn.Pipe()
	go h.handler.HandleConn(server)
	return client, nil
}
