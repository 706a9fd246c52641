package deploy

import (
	"cmp"
	"crypto/rsa"
	"encoding/binary"
	"fmt"
	mrand "math/rand"
	"net"
	"net/netip"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/addrspace"
	"repro/internal/chaos"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/uacert"
	"repro/internal/uamsg"
	"repro/internal/uapolicy"
	"repro/internal/uarsa"
	"repro/internal/uaserver"
	"repro/internal/worldview"
)

// Options tunes world materialization.
type Options struct {
	// NoiseProb is the probability that an unregistered universe address
	// has TCP 4840 open without OPC UA. The paper finds only 0.5‰ of
	// open ports speak OPC UA; the simulated universe is smaller than
	// the IPv4 space, so the default 0.01 preserves "almost all open
	// ports are not OPC UA" at a tractable scale (see DESIGN.md).
	NoiseProb float64
	// TestKeySizes replaces all RSA key sizes with 512 bits to make
	// test-scale materialization fast. Certificate key-length analysis
	// is then meaningless; only the pipeline plumbing is exercised.
	TestKeySizes bool
	// MaxHosts truncates the population (0 = all); used by tests that
	// only need a small world. The discovery servers shrink with it: a
	// small world keeps every one that announces a kept host and the
	// same share of the others as of the hosts (keptDiscovery).
	MaxHosts int
}

// World is the materialized simulated Internet.
type World struct {
	Spec *Spec
	// Net is what every wave's snapshot shares: universe, noise model and
	// dial latency. SnapshotWave copies it, so a change reaches the
	// snapshots built afterwards.
	Net  *worldview.Config
	Keys *uacert.KeyPool

	// mu serializes snapshots and the setters: snapshots walk the
	// per-host lazily-built server cache. Snapshots themselves are
	// immutable and need no lock once returned.
	mu        sync.Mutex
	hosts     []*worldHost
	discovery []*worldDiscovery

	// Build is the stage split of the Materialize call that built this
	// world, in the order the stages were started. Read-only.
	Build []BuildStage

	// serve is how SnapshotWave's servers serve their connections:
	// production's response caches, through the engine SetCrypto
	// installed.
	serve uaserver.ConnOptions
}

// BuildStage is one row of World.Build: "keys_<bits>" per key size,
// "certificates", "address_spaces", and "total" for the whole call (one
// job). Stages overlap, so their Wall times do not add up to the total's.
type BuildStage struct {
	Stage string
	Count int           // keys, certificates, address spaces; hosts for "total"
	Wall  time.Duration // first job's start to last job's end
	Busy  time.Duration // summed over the jobs: CPU seconds while cores are free
}

type worldHost struct {
	spec    *HostSpec
	addr    string // "ip:port", formatted once by Materialize
	updated string // SoftwareVersion after a software-update renewal, likewise
	key     *rsa.PrivateKey
	cert    *uacert.Certificate // final certificate
	prior   *uacert.Certificate // pre-renewal certificate, if any
	space   *addrspace.Space
	server  map[serverKey]*uaserver.Server
}

// serverKey is what a host's server varies by across waves.
type serverKey struct {
	cert    *uacert.Certificate
	version string
}

type worldDiscovery struct {
	spec   *DiscoverySpec
	addr   string // "ip:4840", formatted once by Materialize
	cert   *uacert.Certificate
	server *uaserver.Server
}

// BuildUniverse returns the scannable address space: one /16 per AS.
func BuildUniverse() (*simnet.Universe, error) {
	prefixes := make([]simnet.Prefix, 0, numASes)
	for i := 0; i < numASes; i++ {
		p, err := simnet.NewPrefix(fmt.Sprintf("100.%d.0.0", 64+i), 16)
		if err != nil {
			return nil, err
		}
		prefixes = append(prefixes, p)
	}
	return simnet.NewUniverse(prefixes...), nil
}

// Materialize builds the network parameters, keys, certificates and
// servers.
//
// Materialization is a pure function of the spec: keys come from a
// deterministic pool seeded by spec.Seed and certificate serials are
// derived from the same seed, so any number of processes materializing
// the same spec hold byte-identical certificates. Fabric workers
// (opcuastudy.RunCampaignShard behind cmd/measure -connect) depend on
// this — a cluster certificate observed by two workers must carry one
// thumbprint, or the merged reuse analysis falls apart (DESIGN.md §5).
func Materialize(spec *Spec, opts Options) (*World, error) {
	buildStart := telemetry.NowNs()
	if opts.NoiseProb == 0 {
		opts.NoiseProb = 0.01
	}
	u, err := BuildUniverse()
	if err != nil {
		return nil, err
	}
	// Every noise address, hence every dataset, depends on this seed.
	noise := simnet.NewNoise(opts.NoiseProb, 0x9E3779B97F4A7C15)
	w := &World{Spec: spec, Net: &worldview.Config{Universe: u, Noise: noise}, Keys: uacert.NewDeterministicKeyPool(spec.Seed),
		serve: uaserver.ConnOptions{CachedResponses: true}}
	// One pass over the universe here, not one per snapshot: every wave's
	// responsive index shares the noise list.
	w.Net.IndexNoise()
	var seedB [8]byte
	binary.LittleEndian.PutUint64(seedB[:], uint64(spec.Seed))

	hostSpecs := spec.Hosts
	if opts.MaxHosts > 0 && opts.MaxHosts < len(hostSpecs) {
		hostSpecs = hostSpecs[:opts.MaxHosts]
	}
	discovery := keptDiscovery(spec.Discovery, len(hostSpecs), len(spec.Hosts))

	bits := func(class CertClass) int {
		if opts.TestKeySizes {
			return 512
		}
		return class.Bits
	}

	// Address spaces need no key — one rng, host order — so they are
	// built on their own goroutine while the workers below search primes.
	spaces := make([]*addrspace.Space, len(hostSpecs))
	var spaceErr error
	var spaceTime time.Duration
	spacesDone := make(chan struct{})
	go func() {
		defer close(spacesDone)
		start := telemetry.NowNs()
		rng := mrand.New(mrand.NewSource(spec.Seed ^ 0x5EED))
		for i := range hostSpecs {
			if spaces[i], spaceErr = buildSpace(&hostSpecs[i], hostSpecs[i].SoftwareVersion, rng); spaceErr != nil {
				return
			}
		}
		spaceTime = time.Duration(telemetry.NowNs() - start)
	}()

	// Count keys: one per reuse cluster, per single, and for discovery.
	need := map[int]int{}
	for i := range hostSpecs {
		h := &hostSpecs[i]
		if h.Cert.ReuseCluster < 0 {
			need[bits(h.Cert.Class)]++
		}
	}
	for _, c := range reuseClusters {
		need[bits(c.class)]++
	}
	need[bits(CertClass{Bits: 2048})]++
	// One work-list across all sizes, largest first: the few big keys are
	// the first jobs taken, not a tail behind which the other cores idle.
	var keyJobs [][2]int // (bits, idx)
	for b, n := range need {
		for i := 0; i < n; i++ {
			keyJobs = append(keyJobs, [2]int{b, i})
		}
	}
	slices.SortFunc(keyJobs, func(a, b [2]int) int { return cmp.Or(cmp.Compare(b[0], a[0]), cmp.Compare(a[1], b[1])) })
	keyStart, keyEnd := runJobs(len(keyJobs), func(i int) { w.Keys.Key(keyJobs[i][0], keyJobs[i][1]) })
	for lo := 0; lo < len(keyJobs); {
		hi := lo + need[keyJobs[lo][0]]
		w.Build = append(w.Build, timeStage("keys_"+strconv.Itoa(keyJobs[lo][0]), keyStart[lo:hi], keyEnd[lo:hi]))
		lo = hi
	}

	// Certificates are listed in the order their keys have always been
	// taken (clusters, hosts, discovery) and signed on the same workers:
	// uacert.Generate is a pure function of key and options.
	type certJob struct {
		role string // names the serial and, in an error, the certificate
		idx  int
		key  *rsa.PrivateKey
		opts uacert.Options
		dst  **uacert.Certificate
		err  error
	}
	var certJobs []certJob
	next := map[int]int{}
	takeKey := func(b int) *rsa.PrivateKey {
		k := w.Keys.Key(b, next[b])
		next[b]++
		return k
	}
	// Cluster keys and certificates (shared; the cert subject names the
	// manufacturer, §5.3).
	clusterKey := make([]*rsa.PrivateKey, len(reuseClusters))
	clusterCert := make([]*uacert.Certificate, len(reuseClusters))
	for ci, c := range reuseClusters {
		clusterKey[ci] = takeKey(bits(c.class))
		// Find a member for naming and NotBefore.
		var member *HostSpec
		for i := range hostSpecs {
			if hostSpecs[i].Cert.ReuseCluster == ci {
				member = &hostSpecs[i]
				break
			}
		}
		if member == nil {
			continue // truncated world
		}
		certJobs = append(certJobs, certJob{role: "cluster", idx: ci, key: clusterKey[ci], dst: &clusterCert[ci], opts: uacert.Options{
			CommonName:     member.Manufacturer + " factory image",
			Organization:   member.Manufacturer,
			ApplicationURI: member.AppURI,
			SignatureHash:  c.class.Hash,
			NotBefore:      member.Cert.NotBefore,
		}})
	}
	for i := range hostSpecs {
		hs := &hostSpecs[i]
		wh := &worldHost{spec: hs, addr: fmt.Sprintf("%s:%d", hs.IP, hs.Port),
			updated: hs.SoftwareVersion + ".1", server: make(map[serverKey]*uaserver.Server)}
		w.hosts = append(w.hosts, wh)
		if ci := hs.Cert.ReuseCluster; ci >= 0 {
			wh.key = clusterKey[ci]
			continue
		}
		wh.key = takeKey(bits(hs.Cert.Class))
		o := uacert.Options{
			CommonName:     fmt.Sprintf("%s device %04x", hs.Manufacturer, hs.Index),
			Organization:   hs.Manufacturer,
			ApplicationURI: hs.AppURI,
			SignatureHash:  hs.Cert.Class.Hash,
			NotBefore:      hs.Cert.NotBefore,
		}
		certJobs = append(certJobs, certJob{role: "host", idx: hs.Index, key: wh.key, dst: &wh.cert, opts: o})
		if hs.Cert.RenewalWave > 0 {
			o.SignatureHash, o.NotBefore = hs.Cert.PriorClass.Hash, hs.Cert.PriorNotBefore
			certJobs = append(certJobs, certJob{role: "prior", idx: hs.Index, key: wh.key, dst: &wh.prior, opts: o})
		}
	}
	// Discovery servers share a handful of reference-implementation
	// identities; they are excluded from the security analysis.
	discoKey := takeKey(bits(CertClass{Bits: 2048}))
	var discoCert *uacert.Certificate
	certJobs = append(certJobs, certJob{role: "discovery", key: discoKey, dst: &discoCert, opts: uacert.Options{
		CommonName:     "UA Local Discovery Server",
		Organization:   "OPC Foundation",
		ApplicationURI: "urn:opcfoundation.org:UA:LDS",
		SignatureHash:  uacert.HashSHA256,
		NotBefore:      time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC),
	}})
	certStart, certEnd := runJobs(len(certJobs), func(i int) {
		j := &certJobs[i] // NotAfter is left to Generate's default: NotBefore + 20 years
		j.opts.SerialNumber = uacert.DeterministicSerial([]byte("deploy-serial"), seedB[:],
			[]byte(j.role), []byte(strconv.Itoa(j.idx)))
		*j.dst, j.err = uacert.Generate(j.key, j.opts)
	})
	w.Build = append(w.Build, timeStage("certificates", certStart, certEnd))

	<-spacesDone // nothing above returns early: every goroutine has finished
	for i := range certJobs {
		if j := &certJobs[i]; j.err != nil {
			return nil, fmt.Errorf("deploy: %s %d cert: %w", j.role, j.idx, j.err)
		}
	}
	if spaceErr != nil {
		return nil, spaceErr
	}
	for i, wh := range w.hosts {
		wh.space = spaces[i]
		if ci := wh.spec.Cert.ReuseCluster; ci >= 0 {
			wh.cert = clusterCert[ci]
		}
	}
	w.Build = append(w.Build, BuildStage{"address_spaces", len(spaces), spaceTime, spaceTime})

	for i, ds := range discovery {
		var known []uamsg.ApplicationDescription
		for _, hi := range ds.Announces {
			if hi >= len(hostSpecs) {
				continue
			}
			hh := &hostSpecs[hi]
			known = append(known, uamsg.ApplicationDescription{
				ApplicationURI:  hh.AppURI,
				ApplicationType: uamsg.ApplicationServer,
				DiscoveryURLs: []string{
					fmt.Sprintf("opc.tcp://%s:%d", hh.IP, hh.Port),
				},
			})
		}
		addr := fmt.Sprintf("%s:%d", ds.IP, simnet.ScanPort)
		srv, err := uaserver.New(uaserver.Config{
			ApplicationURI:  ds.AppURI,
			ProductURI:      "urn:opcfoundation.org:UA:LDS",
			ApplicationName: "UA Local Discovery Server",
			SoftwareVersion: "1.03",
			EndpointURL:     "opc.tcp://" + addr,
			Endpoints: []uaserver.EndpointConfig{{
				Policy: uapolicy.None,
				Modes:  []uamsg.MessageSecurityMode{uamsg.SecurityModeNone},
			}},
			Key:          discoKey,
			CertDER:      discoCert.Raw,
			Discovery:    true,
			KnownServers: known,
		})
		if err != nil {
			return nil, fmt.Errorf("deploy: discovery server %d: %w", i, err)
		}
		w.discovery = append(w.discovery, &worldDiscovery{spec: ds, addr: addr, cert: discoCert, server: srv})
	}
	total := time.Duration(telemetry.NowNs() - buildStart)
	w.Build = append(w.Build, BuildStage{"total", len(w.hosts), total, total})
	return w, nil
}

// keptDiscovery is the discovery population of a world of the first
// kept of total hosts: every server that announces a kept host, so
// follow-up references still reach the kept hidden hosts, and of the
// others an evenly spread kept/total share, so a small world's port
// scan finds discovery servers and hosts in the paper's proportion, not
// the full population's 782–1,038 beside a few dozen hosts. A whole
// world keeps them all.
func keptDiscovery(all []DiscoverySpec, kept, total int) []*DiscoverySpec {
	var out []*DiscoverySpec
	rest := 0
	for i := range all {
		ds := &all[i]
		if kept == total || slices.ContainsFunc(ds.Announces, func(hi int) bool { return hi < kept }) {
			out = append(out, ds)
			continue
		}
		// Take the rest's j-th when ⌊(j+1)·kept/total⌋ steps past ⌊j·kept/total⌋.
		if (rest+1)*kept/total > rest*kept/total {
			out = append(out, ds)
		}
		rest++
	}
	return out
}

// runJobs runs job(0) … job(n-1) on up to GOMAXPROCS goroutines, each taking
// the lowest index left, and returns every job's start and end (telemetry clock).
func runJobs(n int, job func(i int)) (start, end []int64) {
	start, end = make([]int64, n), make([]int64, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := min(n, runtime.GOMAXPROCS(0)); g > 0; g-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				start[i] = telemetry.NowNs()
				job(i)
				end[i] = telemetry.NowNs()
			}
		}()
	}
	wg.Wait()
	return start, end
}

// timeStage folds the job times of one stage (at least one job) into its
// World.Build row.
func timeStage(name string, start, end []int64) BuildStage {
	st := BuildStage{name, len(start), time.Duration(slices.Max(end) - slices.Min(start)), 0}
	for i := range start {
		st.Busy += time.Duration(end[i] - start[i])
	}
	return st
}

// buildSpace creates a host's address space from its spec, reporting the
// given software version.
func buildSpace(hs *HostSpec, version string, rng *mrand.Rand) (*addrspace.Space, error) {
	space := addrspace.New(hs.AppURI, version)
	_, err := addrspace.Populate(space, addrspace.BuildOptions{
		Profile:            hs.Profile,
		Variables:          hs.Exposure.Variables,
		Methods:            hs.Exposure.Methods,
		AnonReadableFrac:   hs.Exposure.ReadFrac,
		AnonWritableFrac:   hs.Exposure.WriteFrac,
		AnonExecutableFrac: hs.Exposure.ExecFrac,
		Rand:               rng,
	})
	if err != nil {
		return nil, fmt.Errorf("deploy: space for host %d: %w", hs.Index, err)
	}
	return space, nil
}

// certAt returns the certificate valid at the wave.
func (wh *worldHost) certAt(wave int) *uacert.Certificate {
	if wh.prior != nil && wave < wh.spec.Cert.RenewalWave {
		return wh.prior
	}
	return wh.cert
}

func (wh *worldHost) softwareVersionAt(wave int) string {
	if wh.spec.Cert.SoftwareUpdate && wh.spec.Cert.RenewalWave > 0 &&
		wave >= wh.spec.Cert.RenewalWave {
		return wh.updated
	}
	return wh.spec.SoftwareVersion
}

// serverAt builds (or reuses) the server matching the host's wave state.
func (wh *worldHost) serverAt(wave int) (*uaserver.Server, error) {
	cert := wh.certAt(wave)
	cacheKey := serverKey{cert, wh.softwareVersionAt(wave)}
	if srv, ok := wh.server[cacheKey]; ok {
		return srv, nil
	}
	hs := wh.spec
	var endpoints []uaserver.EndpointConfig
	var modes []uamsg.MessageSecurityMode
	if hs.Modes.Has(ModeS) {
		modes = append(modes, uamsg.SecurityModeSign)
	}
	if hs.Modes.Has(ModeE) {
		modes = append(modes, uamsg.SecurityModeSignAndEncrypt)
	}
	for _, abbrev := range hs.Policies {
		pol, ok := uapolicy.LookupAbbrev(abbrev)
		if !ok {
			return nil, fmt.Errorf("deploy: unknown policy %q", abbrev)
		}
		if pol.Insecure {
			endpoints = append(endpoints, uaserver.EndpointConfig{
				Policy: pol,
				Modes:  []uamsg.MessageSecurityMode{uamsg.SecurityModeNone},
			})
			continue
		}
		endpoints = append(endpoints, uaserver.EndpointConfig{Policy: pol, Modes: modes})
	}
	space := wh.space
	if wh.spec.Cert.SoftwareUpdate {
		// Rebuild so the SoftwareVersion node reflects the update.
		var err error
		space, err = buildSpace(hs, wh.softwareVersionAt(wave), mrand.New(mrand.NewSource(int64(hs.Index))))
		if err != nil {
			return nil, err
		}
	}
	srv, err := uaserver.New(uaserver.Config{
		ApplicationURI:  hs.AppURI,
		ProductURI:      hs.AppURI,
		ApplicationName: hs.Manufacturer,
		SoftwareVersion: wh.softwareVersionAt(wave),
		EndpointURL:     "opc.tcp://" + wh.addr,
		Endpoints:       endpoints,
		TokenTypes:      hs.Tokens,
		Users:           map[string]string{"operator": fmt.Sprintf("pw-%04x", hs.Index)},
		Key:             wh.key,
		CertDER:         cert.Raw,
		Space:           space,
		Quirks: uaserver.Quirks{
			RejectClientCert: hs.RejectClientCert,
			RejectSessions:   hs.RejectSessions,
		},
	})
	if err != nil {
		return nil, fmt.Errorf("deploy: server for host %d: %w", hs.Index, err)
	}
	wh.server[cacheKey] = srv
	return srv, nil
}

// SnapshotWave is SnapshotWaveFor with the world's default serving —
// the pre-encoded response caches and the engine SetCrypto last
// installed — and no chaos.
func (w *World) SnapshotWave(wave int) (*worldview.Snapshot, error) {
	w.mu.Lock()
	o := w.serve
	w.mu.Unlock()
	return w.SnapshotWaveFor(wave, o, chaos.Model{})
}

// SnapshotWaveFor builds one campaign's immutable worldview of the
// wave's population: hosts and discovery servers present at the wave
// are registered into a fresh sharded snapshot over World.Net, with the
// campaign's chaos model m bound to the wave, and every connection the
// snapshot serves runs under o. Snapshots share the underlying
// (concurrency-safe) server instances but nothing a campaign chooses, so
// any number of them — of one wave or many, for one campaign or
// several — can be built and scanned at the same time, each campaign
// seeing its own chaos and handshaking through its own engine on both
// ends of the wire.
func (w *World) SnapshotWaveFor(wave int, o uaserver.ConnOptions, m chaos.Model) (*worldview.Snapshot, error) {
	if wave < 0 || wave >= len(WaveDates) {
		return nil, fmt.Errorf("deploy: wave %d out of range", wave)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	cfg := *w.Net
	cfg.Chaos = m.ForWave(wave)
	b, err := worldview.NewBuilder(cfg)
	if err != nil {
		return nil, err
	}
	for _, wh := range w.hosts {
		if !wh.spec.PresentAt(wave) {
			continue
		}
		srv, err := wh.serverAt(wave)
		if err != nil {
			return nil, err
		}
		b.AddHost(netip.Addr(wh.spec.IP), wh.spec.Port, wh.spec.ASN, &connHandler{srv, o})
	}
	for _, wd := range w.discovery {
		if wave < len(wd.spec.Present) && wd.spec.Present[wave] {
			b.AddHost(wd.spec.IP, 4840, wd.spec.ASN, &connHandler{wd.server, o})
		}
	}
	return b.Build(), nil
}

// connHandler is how a snapshot registers a world server: the
// snapshot's connection options ride on the handler, never on the
// shared server.
type connHandler struct {
	srv *uaserver.Server
	o   uaserver.ConnOptions
}

func (h *connHandler) HandleConn(conn net.Conn) { h.srv.HandleConnWith(conn, h.o) }

// SetCrypto sets the memoized asymmetric-crypto engine and
// deterministic-handshake mode that snapshots taken afterwards by
// SnapshotWave serve through. It reaches no server and no snapshot
// already built. Campaigns do not use it — each snapshots with its own
// options through SnapshotWaveFor — so it only matters to callers that
// drive SnapshotWave themselves.
func (w *World) SetCrypto(engine *uarsa.Engine, deterministic bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.serve.Engine, w.serve.Deterministic = engine, deterministic
}

// HostCert returns the certificate a host serves at the wave; nil if the
// host index is out of the materialized range.
//
//studyvet:api — the certificate golden reads the world through it
func (w *World) HostCert(index, wave int) *uacert.Certificate {
	if index < 0 || index >= len(w.hosts) {
		return nil
	}
	return w.hosts[index].certAt(wave)
}
