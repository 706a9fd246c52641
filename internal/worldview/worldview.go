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
// Build also seals the snapshot's responsive index: every linear
// universe index whose address answers on simnet.ScanPort, the wave's
// own hosts merged with the noise list the world's Config evaluated
// once (Config.IndexNoise). A sweep is a range query on it
// (Snapshot.Responsive), not a probe of every address.
//
// Snapshots share the world's underlying server instances, but what a
// campaign chooses belongs to the snapshot (deploy.World.SnapshotWaveFor):
// its chaos model rides on the Config, and each registered handler
// carries the campaign's connection options — the memoized RSA engine
// its scanner encrypts and signs through, and whether responses come
// from the pre-encoded caches. So every wave of one campaign serves
// through one engine under one chaos model, and campaigns scanning one
// world at once never see each other's (DESIGN.md §4).
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
	"slices"
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
	// simnet.NewNoise so its per-address threshold is resolved once.
	Noise simnet.Noise
	// Latency delays every dial.
	Latency time.Duration
	// Chaos is the wave-bound adversarial-host model (DESIGN.md §9),
	// already bound to this snapshot's wave; the zero value leaves
	// every registered host polite. Like Noise it is pure function
	// state, so snapshots stay immutable and shard-equivalent.
	Chaos chaos.WaveModel

	// noiseAt is Noise.Positions(Universe), set by IndexNoise;
	// noiseIndexed tells an empty list from one never computed.
	noiseAt      []uint64
	noiseIndexed bool
}

// SetLatency sets the dial latency of the snapshots built from c afterwards.
func (c *Config) SetLatency(d time.Duration) { c.Latency = d }

// IndexNoise evaluates the noise model over the whole universe once, so
// every snapshot built from c afterwards shares the list instead of
// computing its own (NewBuilder does that for a Config never indexed).
// Universe and Noise must not change afterwards.
func (c *Config) IndexNoise() {
	c.noiseAt, c.noiseIndexed = c.Noise.Positions(c.Universe), true
}

// host is one registered endpoint of the snapshot.
type host struct {
	asn     int
	handler simnet.ConnHandler
}

// hostKey packs an endpoint into a map key: the simnet.AddrToU32 address
// above the 16-bit port.
func hostKey(addr uint32, port int) uint64 { return uint64(addr)<<16 | uint64(uint16(port)) }

// shard is one prefix's slice of the host table, keyed by
// simnet.AddrToU32 addresses. Immutable after Build; the maps are safe
// for unlimited concurrent readers.
type shard struct {
	// base and size are the prefix's first address and address count,
	// start the linear universe index of its first address (all 0 for
	// the catch-all shard).
	base, size uint32
	start      uint64
	hosts      map[uint64]host
	asOfIP     map[uint32]int
}

// Builder accumulates one wave's population and seals it into a
// Snapshot. Builders are not safe for concurrent use; construction is
// cheap (map inserts only — servers are built and cached by the world).
type Builder struct {
	cfg    Config
	shards []shard
	// open collects the linear indexes of the hosts added on
	// simnet.ScanPort, in insertion order; Build sorts it.
	open  []uint64
	built bool
}

// NewBuilder starts a snapshot with one shard per universe prefix plus
// a catch-all shard for out-of-universe hosts.
func NewBuilder(cfg Config) (*Builder, error) {
	if cfg.Universe == nil {
		return nil, fmt.Errorf("worldview: nil universe")
	}
	if !cfg.noiseIndexed {
		cfg.IndexNoise()
	}
	shards := make([]shard, cfg.Universe.NumPrefixes()+1)
	var start uint64
	for i := range shards {
		shards[i] = shard{
			hosts:  make(map[uint64]host),
			asOfIP: make(map[uint32]int),
		}
		if i < cfg.Universe.NumPrefixes() {
			p := cfg.Universe.Prefix(i)
			shards[i].base, shards[i].size, shards[i].start = simnet.AddrToU32(p.Base), p.Size, start
			start += uint64(p.Size)
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
	s, _, addr := resolve(b.cfg.Universe, b.shards, ip)
	s.hosts[hostKey(addr, port)] = host{asn: asn, handler: h}
	s.asOfIP[addr] = asn
	if port != simnet.ScanPort {
		return
	}
	// Every prefix holding the address gives it a linear index: one,
	// unless prefixes overlap. The catch-all shard has size 0.
	for k := range b.shards {
		if sk := &b.shards[k]; addr-sk.base < sk.size {
			b.open = append(b.open, sk.start+uint64(addr-sk.base))
		}
	}
}

// Build seals the population into an immutable Snapshot, with its
// responsive index: the hosts' scan-port indexes merged with the
// config's noise list, ascending and without repeats. The builder must
// not be used afterwards.
func (b *Builder) Build() *Snapshot {
	if b.built {
		panic("worldview: Build called twice")
	}
	b.built = true
	slices.Sort(b.open)
	hosts, noise := b.open, b.cfg.noiseAt
	open := make([]uint64, 0, len(hosts)+len(noise))
	for len(hosts) > 0 && len(noise) > 0 {
		if hosts[0] < noise[0] {
			open, hosts = append(open, hosts[0]), hosts[1:]
		} else {
			open, noise = append(open, noise[0]), noise[1:]
		}
	}
	open = slices.Compact(append(append(open, hosts...), noise...))
	return &Snapshot{cfg: b.cfg, shards: b.shards, open: open}
}

// Snapshot is the immutable world at one wave. It satisfies
// simnet.View (and therefore uaclient.Dialer); any number of snapshots
// can be scanned concurrently because nothing is ever written after
// Build.
type Snapshot struct {
	cfg    Config
	shards []shard
	// open is the responsive index Responsive returns.
	open []uint64
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

// lookup decides a connect to (ip, port) for the probe and dial paths
// alike: the registered host first, then noise (which only universe
// addresses have).
func (s *Snapshot) lookup(ip netip.Addr, port int) (host, outcome) {
	sh, inUniverse, addr := resolve(s.cfg.Universe, s.shards, ip)
	if h, ok := sh.hosts[hostKey(addr, port)]; ok {
		return h, served
	}
	if inUniverse && s.cfg.Noise.HitU32(addr, port) {
		return host{}, noise
	}
	return host{}, refused
}

// Responsive returns the linear indexes whose address answers on
// simnet.ScanPort, ascending: the index Build sealed. A sweep is a
// range query on it.
func (s *Snapshot) Responsive() []uint64 { return s.open }

// OpenPort reports whether a TCP connect to the address would succeed,
// without spawning handlers; the result matches DialContext exactly.
func (s *Snapshot) OpenPort(ip netip.Addr, port int) bool {
	_, o := s.lookup(ip, port)
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
		//studyvet:entropy-exempt — wall pacing is what the rtt workload measures; no record reads it
		case <-time.After(s.cfg.Latency):
		}
	}
	h, o := s.lookup(ip, port)
	if o == refused {
		return nil, simnet.ErrRefused{Addr: address}
	}
	// Adversarial behavior applies to registered hosts only: noise
	// endpoints and closed ports stay polite. The decision is a pure
	// function of (seed, wave, ip, port) plus the dial's context-borne
	// attempt number, so it is identical across shards and processes.
	var b chaos.Behavior
	if o == served {
		b = s.cfg.Chaos.Behavior(ip.As4(), port)
		if b.Refuses(chaos.AttemptFromContext(ctx)) {
			return nil, simnet.ErrRefused{Addr: address}
		}
	}
	// The pipe keeps the dial's timeline: the grab's, which its context
	// carries, or one of its own.
	client, server := memconn.TimelineFrom(ctx).Pipe()
	switch {
	case o == noise:
		go simnet.ServeNoise(server)
	case b.Kind != chaos.KindNone:
		go chaos.Serve(b, server, h.handler.HandleConn)
	default:
		go h.handler.HandleConn(server)
	}
	return client, nil
}
