package scanner

import (
	"context"
	"fmt"
	"io"
	mrand "math/rand"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/memconn"
	"repro/internal/simnet"
	"repro/internal/uaclient"
	"repro/internal/uamsg"
	"repro/internal/uapolicy"
	"repro/internal/uasc"
	"repro/internal/uaserver"
	"repro/internal/worldview"
)

// gateHost is the one registered host of the connection gates' snapshots
// and gateNoise an unregistered address of the same universe.
const (
	gateHost  = "10.0.0.7:4840"
	gateNoise = "10.0.0.9:4840"
)

// gateSnapshot is a one-host Internet: a None-only server at gateHost
// under the given chaos and noise models.
func gateSnapshot(tb testing.TB, cm chaos.WaveModel, noise simnet.Noise) *worldview.Snapshot {
	tb.Helper()
	prefix, err := simnet.NewPrefix("10.0.0.0", 16)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := worldview.NewBuilder(worldview.Config{
		Universe: simnet.NewUniverse(prefix),
		Noise:    noise,
		Chaos:    cm,
	})
	if err != nil {
		tb.Fatal(err)
	}
	ap := netip.MustParseAddrPort(gateHost)
	b.AddHost(ap.Addr(), int(ap.Port()), 64512, gateServer(tb))
	return b.Build()
}

// gateServer is the None-only server at gateHost.
func gateServer(tb testing.TB) *uaserver.Server {
	tb.Helper()
	srv, err := uaserver.New(uaserver.Config{
		ApplicationURI: "urn:gate:server",
		EndpointURL:    "opc.tcp://" + gateHost,
		Endpoints: []uaserver.EndpointConfig{
			{Policy: uapolicy.None, Modes: []uamsg.MessageSecurityMode{uamsg.SecurityModeNone}},
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

// yieldingDialer gives the processor away between connect and hello on a
// seeded third of its dials, so that a server goroutine that can run
// ahead of the client's first write does.
type yieldingDialer struct {
	d   uaclient.Dialer
	mu  sync.Mutex
	rng *mrand.Rand
}

func (y *yieldingDialer) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	conn, err := y.d.DialContext(ctx, network, address)
	y.mu.Lock()
	yield := y.rng.Intn(3) == 0
	y.mu.Unlock()
	if yield {
		runtime.Gosched()
	}
	return conn, err
}

// TestGrabDurationIsTheGrabsClock pins Result.Duration to the grab's
// timeline: on a snapshot a polite grab never waits, so it takes no
// time at all, and a tarpit under the shipped armor takes exactly the
// hello deadline it waits out (a timeout is not retried).
func TestGrabDurationIsTheGrabsClock(t *testing.T) {
	armor := DefaultResilience(1)
	tarpit := chaos.Model{Seed: 5, Prob: 1, Kinds: []chaos.Kind{chaos.KindTarpit}}.ForWave(0)
	for _, c := range []struct {
		name string
		cm   chaos.WaveModel
		want time.Duration
	}{
		{"polite", chaos.WaveModel{}, 0},
		{"tarpit", tarpit, armor.HelloTimeout},
	} {
		sc := newScanner(t, gateSnapshot(t, c.cm, simnet.Noise{}))
		sc.Resilience = armor
		res := sc.Grab(context.Background(), Target{Address: gateHost, Via: ViaPortScan}, nil)
		if res.Duration != c.want {
			t.Errorf("%s: Duration = %v (error %q), want %v", c.name, res.Duration, res.Error, c.want)
		}
	}
}

// TestChaosOutcomeIndependentOfScheduling is the scheduling gate of the
// buffered connection: a record may never depend on whether a server's
// Close or the client's Write runs first. Every chaos kind and the noise
// service, dialed thousands of times at three GOMAXPROCS settings with
// yields injected before the hello, must produce exactly one (error
// string, failure class) — the one the synchronous net.Pipe produced,
// which is what the datasets of earlier commits hold.
func TestChaosOutcomeIndependentOfScheduling(t *testing.T) {
	type outcome struct{ err, class string }
	kinds := []struct {
		name    string
		kind    chaos.Kind
		seed    int64 // chosen for the Param noted beside want
		param   uint32
		attempt int
		addr    string
		want    outcome
		stalls  bool // the dial ends by its hello deadline
	}{
		{"tarpit", chaos.KindTarpit, 5, 3, 0, gateHost,
			outcome{"uasc: reading acknowledge: read pipe: i/o timeout", FailTimeout}, true},
		{"reset", chaos.KindReset, 1, 0, 0, gateHost,
			outcome{"uasc: reading acknowledge: EOF", FailReset}, false},
		{"flap refusing", chaos.KindFlap, 3, 3, 0, gateHost,
			outcome{"simnet: connection refused: " + gateHost, FailReset}, false},
		{"flap serving", chaos.KindFlap, 3, 3, 3, gateHost, outcome{}, false},
		// Cut inside the acknowledge's header, and on the header's edge.
		{"truncate mid-header", chaos.KindTruncate, 104, 3, 0, gateHost,
			outcome{"uasc: reading acknowledge: unexpected EOF", FailReset}, false},
		{"truncate after header", chaos.KindTruncate, 20, 8, 0, gateHost,
			outcome{"uasc: reading acknowledge: EOF", FailReset}, false},
		// A flipped size byte leaves the client waiting for a body that
		// never comes; a flipped version byte is rejected at once.
		{"corrupt size", chaos.KindCorrupt, 23, 4, 0, gateHost,
			outcome{"uasc: reading acknowledge: read pipe: i/o timeout", FailTimeout}, true},
		{"corrupt version", chaos.KindCorrupt, 13, 8, 0, gateHost,
			outcome{"uasc: unsupported protocol version 128", FailMalformed}, false},
		{"oversize", chaos.KindOversize, 1, 0, 0, gateHost,
			outcome{"uasc: reading acknowledge: uasc: chunk exceeds negotiated buffer size: 4294967280 > 4096", FailMalformed}, false},
		{"garbage", chaos.KindGarbage, 1, 0, 0, gateHost,
			outcome{`uasc: unexpected "GGG" response to hello`, FailMalformed}, false},
		{"noise", chaos.KindNone, 0, 0, 0, gateNoise,
			outcome{"uasc: reading acknowledge: uasc: chunk exceeds negotiated buffer size: 808333615 > 4096", FailMalformed}, false},
	}
	dials := 2000
	if testing.Short() {
		dials = 300
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, k := range kinds {
			t.Run(fmt.Sprintf("procs=%d/%s", procs, k.name), func(t *testing.T) {
				var cm chaos.WaveModel
				if k.kind != chaos.KindNone {
					cm = chaos.Model{Seed: k.seed, Prob: 1, Kinds: []chaos.Kind{k.kind}}.ForWave(0)
					ap := netip.MustParseAddrPort(gateHost)
					if b := cm.Behavior(ap.Addr().As4(), int(ap.Port())); b.Kind != k.kind || b.Param != k.param {
						t.Fatalf("seed %d gives %v/%d at %s, the case needs %v/%d",
							k.seed, b.Kind, b.Param, gateHost, k.kind, k.param)
					}
				}
				snap := gateSnapshot(t, cm, simnet.Noise{Prob: 1})
				// A dial that waits out its deadline sleeps, so many run at
				// once under a short one; the others keep the processors
				// busy, and their deadline is one no load reaches.
				dialers, timeout := 8, 30*time.Second
				if k.stalls {
					dialers, timeout = 512, 250*time.Millisecond
				}
				opts := uaclient.Options{
					Dialer:       &yieldingDialer{d: snap, rng: mrand.New(mrand.NewSource(int64(procs)))},
					HelloTimeout: timeout,
				}
				ctx := chaos.WithAttempt(context.Background(), k.attempt)
				seen := map[outcome]int{}
				var mu sync.Mutex
				var wg sync.WaitGroup
				next := make(chan struct{}, dials)
				for i := 0; i < dials; i++ {
					next <- struct{}{}
				}
				close(next)
				for w := 0; w < dialers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for range next {
							var got outcome
							c, err := uaclient.Dial(ctx, "opc.tcp://"+k.addr, opts)
							if err != nil {
								got = outcome{err.Error(), ClassifyError(err)}
							} else {
								_ = c.Close()
							}
							mu.Lock()
							seen[got]++
							mu.Unlock()
						}
					}()
				}
				wg.Wait()
				if len(seen) != 1 || seen[k.want] != dials {
					t.Errorf("%d dials gave %d outcomes, want only %+v:", dials, len(seen), k.want)
					for o, n := range seen {
						t.Errorf("  %6d × %+v", n, o)
					}
				}
			})
		}
	}
}

// TestConnectionsLeaveNothingBehind is the leak gate: ten thousand
// connections, each with a 30 s deadline armed the way the client arms
// one, leave neither goroutines nor heap objects once closed. On
// net.Pipe every SetDeadline left two timers, and with them the pipe,
// reachable until the deadline fired.
func TestConnectionsLeaveNothingBehind(t *testing.T) {
	snap := gateSnapshot(t, chaos.WaveModel{}, simnet.Noise{})
	cycle := func(n int) {
		for i := 0; i < n; i++ {
			conn, err := snap.DialContext(context.Background(), "tcp", gateHost)
			if err != nil {
				t.Fatal(err)
			}
			_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
			if _, err := uasc.ClientHello(conn, "opc.tcp://"+gateHost, uasc.Limits{}); err != nil {
				t.Fatal(err)
			}
			_ = conn.Close()
		}
	}
	// settle waits for the serving goroutines to see their peers gone,
	// then reports what is left.
	settle := func(goroutines int) (int, uint64) {
		for i := 0; i < 200 && runtime.NumGoroutine() > goroutines; i++ {
			time.Sleep(5 * time.Millisecond)
		}
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return runtime.NumGoroutine(), ms.HeapObjects
	}
	cycle(200) // pools, caches and lazily built tables
	g0, h0 := settle(0)
	cycle(10000)
	g1, h1 := settle(g0)
	if g1 > g0+2 {
		t.Errorf("goroutines: %d before, %d after 10,000 connections", g0, g1)
	}
	if h1 > h0+2000 {
		t.Errorf("heap objects after GC: %d before, %d after 10,000 connections (%.1f per connection left behind)",
			h0, h1, float64(h1-h0)/10000)
	}
}

// closeSpy is a server's end of a pipe that records its Close.
type closeSpy struct {
	net.Conn
	closed atomic.Bool
}

func (c *closeSpy) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

// TestServersCloseTheirEnd is the strand gate. On a simulated connection
// a client's deadline fires only once the server's end is blocked or
// closed, so a server goroutine that returned with its end open would
// leave the client waiting for ever. Every server the simulated
// Internet runs — the OPC UA handler, the noise service and each chaos
// kind of every profile — must close its end when it returns, whether
// the client sent a hello or garbage (the handler's early return), and
// whether the server returns by itself or once the client hangs up.
func TestServersCloseTheirEnd(t *testing.T) {
	srv := gateServer(t)
	type server struct {
		name  string
		serve func(net.Conn)
	}
	servers := []server{
		{"uaserver", func(c net.Conn) { srv.HandleConnWith(c, uaserver.ConnOptions{}) }},
		{"noise", simnet.ServeNoise},
	}
	ap := netip.MustParseAddrPort(gateHost)
	seen := map[chaos.Kind]bool{}
	for _, profile := range chaos.Profiles() {
		m, err := chaos.ModelForProfile(profile, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range m.Kinds {
			if seen[k] {
				continue
			}
			seen[k] = true
			b := chaos.Model{Seed: 1, Prob: 1, Kinds: []chaos.Kind{k}}.ForWave(0).Behavior(ap.Addr().As4(), int(ap.Port()))
			servers = append(servers, server{"chaos_" + k.String(), func(c net.Conn) { chaos.Serve(b, c, srv.HandleConn) }})
		}
	}
	inputs := []struct {
		name  string
		drive func(net.Conn)
	}{
		{"hello", func(c net.Conn) { _, _ = uasc.ClientHello(c, "opc.tcp://"+gateHost, uasc.Limits{}) }},
		{"garbage", func(c net.Conn) {
			_, _ = c.Write([]byte("GET / HTTP/1.0\r\n\r\n"))
			_, _ = io.Copy(io.Discard, c)
		}},
	}
	for _, sv := range servers {
		for _, in := range inputs {
			t.Run(sv.name+"/"+in.name, func(t *testing.T) {
				client, end := memconn.Pipe()
				defer client.Close()
				spy := &closeSpy{Conn: end}
				returned := make(chan struct{})
				go func() {
					defer close(returned)
					sv.serve(spy)
				}()
				_ = client.SetDeadline(memconn.ClockOf(client).Now().Add(time.Second))
				go in.drive(client)
				select {
				case <-returned:
				case <-time.After(100 * time.Millisecond):
					_ = client.Close()
					select {
					case <-returned:
					case <-time.After(10 * time.Second):
						t.Fatal("still serving after the client closed")
					}
				}
				if !spy.closed.Load() {
					t.Error("returned with its end open")
				}
			})
		}
	}
}
