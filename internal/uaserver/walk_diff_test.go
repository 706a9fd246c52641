package uaserver

import (
	"context"
	"fmt"
	mrand "math/rand"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/addrspace"
	"repro/internal/memconn"
	"repro/internal/telemetry"
	"repro/internal/uaclient"
	"repro/internal/uamsg"
	"repro/internal/uapolicy"
	"repro/internal/uastatus"
	"repro/internal/uatypes"
)

// referenceWalk is the walker as it stood before Walk browsed the
// frontier in batches (commit 0f1ca70, internal/uaclient/walk.go): one
// Browse per queued node, verbatim but for going through the client's
// exported methods. It exists only so TestWalkMatchesSingleNodeWalker
// can fail when the batched walker drifts from it.
func referenceWalk(ctx context.Context, c *uaclient.Client, o uaclient.WalkOptions) *uaclient.WalkResult {
	if o.MaxNodes <= 0 {
		o.MaxNodes = 100000
	}
	res := &uaclient.WalkResult{}
	deadline := time.Time{}
	if o.MaxDuration > 0 {
		deadline = time.Now().Add(o.MaxDuration)
	}
	limitHit := func() bool {
		if ctx.Err() != nil {
			res.Truncated, res.LimitHit = true, "context"
			return true
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			res.Truncated, res.LimitHit = true, "time"
			return true
		}
		if o.MaxBytes > 0 {
			r, w := c.BytesTransferred()
			if r+w > o.MaxBytes {
				res.Truncated, res.LimitHit = true, "bytes"
				return true
			}
		}
		return false
	}
	pause := func() {
		if o.Delay > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(o.Delay):
			}
		}
	}

	if ns, err := c.NamespaceArray(); err == nil {
		res.Namespaces = ns
	}
	pause()

	visited := make(map[string]bool)
	queue := []uatypes.NodeID{uatypes.NewNumericNodeID(0, uamsg.IDObjectsFolder)}
	visited[queue[0].Key()] = true

	var variables, methods []uatypes.NodeID
	nodeAt := make(map[string]int) // node key -> index in res.Nodes

	for len(queue) > 0 && len(res.Nodes) < o.MaxNodes {
		if limitHit() {
			break
		}
		id := queue[0]
		queue = queue[1:]
		refs, err := c.Browse(id)
		if err != nil {
			// Nodes may be restricted; continue with the rest.
			continue
		}
		pause()
		for _, ref := range refs {
			key := ref.NodeID.NodeID.Key()
			if visited[key] {
				continue
			}
			visited[key] = true
			info := uaclient.NodeInfo{
				ID:          ref.NodeID.NodeID,
				Class:       ref.NodeClass,
				BrowseName:  ref.BrowseName.String(),
				DisplayName: ref.DisplayName.Text,
			}
			nodeAt[key] = len(res.Nodes)
			res.Nodes = append(res.Nodes, info)
			switch ref.NodeClass {
			case uamsg.NodeClassVariable:
				variables = append(variables, ref.NodeID.NodeID)
			case uamsg.NodeClassMethod:
				methods = append(methods, ref.NodeID.NodeID)
			}
			if ref.NodeClass == uamsg.NodeClassObject || ref.NodeClass == uamsg.NodeClassVariable {
				queue = append(queue, ref.NodeID.NodeID)
			}
			if len(res.Nodes) >= o.MaxNodes {
				res.Truncated, res.LimitHit = true, "nodes"
				break
			}
		}
	}

	// Batch-read effective access rights.
	const batch = 100
	for start := 0; start < len(variables) && !limitHit(); start += batch {
		end := min(start+batch, len(variables))
		vals, err := c.Read(variables[start:end], uamsg.AttrUserAccessLevel)
		if err != nil {
			break
		}
		pause()
		for i, dv := range vals {
			if dv.Value != nil {
				idx := nodeAt[variables[start+i].Key()]
				res.Nodes[idx].UserAccessLevel = uamsg.AccessLevel(dv.Value.Uint)
			}
		}
	}
	for start := 0; start < len(methods) && !limitHit(); start += batch {
		end := min(start+batch, len(methods))
		vals, err := c.Read(methods[start:end], uamsg.AttrUserExecutable)
		if err != nil {
			break
		}
		pause()
		for i, dv := range vals {
			if dv.Value != nil {
				idx := nodeAt[methods[start+i].Key()]
				res.Nodes[idx].UserExecutable = dv.Value.Bool
			}
		}
	}

	if o.ReadValues {
		reads := 0
		for i := range res.Nodes {
			if limitHit() || reads >= o.MaxValueReads {
				break
			}
			n := &res.Nodes[i]
			if n.Class != uamsg.NodeClassVariable || !n.UserAccessLevel.CanRead() {
				continue
			}
			dv, err := c.ReadValue(n.ID)
			if err != nil {
				break
			}
			pause()
			if dv.Value != nil {
				v := *dv.Value
				n.Value = &v
			}
			reads++
		}
	}
	return res
}

// populated returns a generated address space of the profile and size.
func populated(t *testing.T, profile addrspace.Profile, variables, methods int) *addrspace.Space {
	t.Helper()
	space := addrspace.New("urn:test:server", "2.1.0")
	if _, err := addrspace.Populate(space, addrspace.BuildOptions{
		Profile: profile, Variables: variables, Methods: methods,
		AnonReadableFrac: 0.7, AnonWritableFrac: 0.3, AnonExecutableFrac: 0.5,
		Rand: mrand.New(mrand.NewSource(int64(variables)*31 + int64(methods))),
	}); err != nil {
		t.Fatal(err)
	}
	return space
}

// meshed returns a space that is not a tree: eight objects that each
// reference all the others (cycles) and share the same twelve variables
// and three methods, so that nodes of one Browse batch list the same
// targets and the order of the fold decides who reports them.
func meshed(t *testing.T) *addrspace.Space {
	t.Helper()
	space := addrspace.New("urn:test:server", "2.1.0")
	ns := space.AddNamespace("urn:test:mesh")
	add := func(class uamsg.NodeClass, name string) uatypes.NodeID {
		n := &addrspace.Node{
			ID: uatypes.NewStringNodeID(ns, name), Class: class,
			BrowseName:  uatypes.QualifiedName{NamespaceIndex: ns, Name: name},
			DisplayName: name,
			AccessLevel: uamsg.AccessLevelRead, AnonAccess: uamsg.AccessLevelRead,
			Executable: true, AnonExecutable: true,
			Value: uatypes.StringVariant(name),
		}
		if err := space.Add(n); err != nil {
			t.Fatal(err)
		}
		return n.ID
	}
	link := func(parent, child uatypes.NodeID) {
		if err := space.Link(parent, child, uamsg.IDHasComponentRefType); err != nil {
			t.Fatal(err)
		}
	}
	var objects, leaves []uatypes.NodeID
	for i := 0; i < 8; i++ {
		objects = append(objects, add(uamsg.NodeClassObject, fmt.Sprintf("Cell_%d", i)))
	}
	for i := 0; i < 12; i++ {
		leaves = append(leaves, add(uamsg.NodeClassVariable, fmt.Sprintf("Tag_%d", i)))
	}
	for i := 0; i < 3; i++ {
		leaves = append(leaves, add(uamsg.NodeClassMethod, fmt.Sprintf("Reset_%d", i)))
	}
	for i, o := range objects {
		if i%2 == 0 {
			link(addrspace.ObjectsFolder(), o)
		}
		for j, other := range objects {
			if i != j {
				link(o, other)
			}
		}
		// Each object lists the shared leaves from a different start.
		for k := range leaves {
			link(o, leaves[(k+2*i)%len(leaves)])
		}
	}
	return space
}

// sessionOn starts a server for cfg's space and limits and returns an
// anonymous session on it.
func sessionOn(t *testing.T, mutate func(*Config), opts uaclient.Options) *uaclient.Client {
	t.Helper()
	_, url := startTestServer(t, mutate)
	if opts.Timeout == 0 {
		opts.Timeout = 5 * time.Second
	}
	c, err := uaclient.Dial(context.Background(), url, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	if err := c.OpenInsecureChannel(); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateSession(uaclient.AnonymousIdentity()); err != nil {
		t.Fatal(err)
	}
	return c
}

// requestCount sums the ua_requests counters of one service.
func requestCount(reg *telemetry.Registry, service string) uint64 {
	return reg.Snapshot().Counters[`ua_requests{service="`+service+`"}`]
}

// TestWalkMatchesSingleNodeWalker is the differential gate of the
// frontier-batched walker: over every address-space profile at several
// sizes, a non-tree space, forced continuation points, every MaxNodes
// cut of a small space, and servers that cap operations per request or
// continuation points per session, Walk must return exactly what the
// one-node-per-request reference returns — nodes, order, rights,
// namespaces, Truncated and LimitHit.
func TestWalkMatchesSingleNodeWalker(t *testing.T) {
	type fixture struct {
		name   string
		space  func(*testing.T) *addrspace.Space
		limits func(*Config)
		opts   []uaclient.WalkOptions
	}
	full := []uaclient.WalkOptions{{}, {ReadValues: true, MaxValueReads: 16}}
	var fixtures []fixture
	for _, p := range []struct {
		name    string
		profile addrspace.Profile
	}{{"bare", addrspace.ProfileBare}, {"production", addrspace.ProfileProduction}, {"test", addrspace.ProfileTest}} {
		for _, size := range [][2]int{{0, 0}, {1, 1}, {20, 5}, {97, 0}, {230, 120}, {1100, 240}} {
			p, size := p, size
			fixtures = append(fixtures, fixture{
				name:  fmt.Sprintf("%s/%dv%dm", p.name, size[0], size[1]),
				space: func(t *testing.T) *addrspace.Space { return populated(t, p.profile, size[0], size[1]) },
				opts:  full,
			})
		}
	}
	mesh := fixture{name: "mesh", space: meshed, opts: full}
	fixtures = append(fixtures, mesh)

	// Continuation points: listings come in pages of 7, then of 1.
	for _, page := range []int{7, 1} {
		page := page
		for _, f := range []fixture{
			{name: "production/230v120m", space: func(t *testing.T) *addrspace.Space {
				return populated(t, addrspace.ProfileProduction, 230, 120)
			}},
			mesh,
		} {
			f.name = fmt.Sprintf("%s/page%d", f.name, page)
			f.limits = func(cfg *Config) { cfg.MaxRefsPerBrowse = page }
			f.opts = full
			fixtures = append(fixtures, f)
		}
	}

	// MaxNodes cut at every value from 1 to N+1 on small spaces.
	for _, f := range []fixture{
		{name: "production/20v5m", space: func(t *testing.T) *addrspace.Space {
			return populated(t, addrspace.ProfileProduction, 20, 5)
		}},
		mesh,
	} {
		// The reachable nodes: cut below, at and just past every count.
		full := referenceWalk(context.Background(), sessionOn(t, func(cfg *Config) { cfg.Space = f.space(t) }, uaclient.Options{}), uaclient.WalkOptions{})
		n := len(full.Nodes)
		f.name += "/maxnodes"
		f.opts = nil
		for cut := 1; cut <= n+1; cut++ {
			f.opts = append(f.opts, uaclient.WalkOptions{MaxNodes: cut})
		}
		fixtures = append(fixtures, f)
	}

	// Servers that bound multi-operation requests and continuation
	// points: the walker must degrade to the same result.
	for _, perRequest := range []int{100, 7, 1} {
		for _, contPts := range []int{0, 1, 3} {
			perRequest, contPts := perRequest, contPts
			for _, f := range []fixture{
				{name: "production/230v120m", space: func(t *testing.T) *addrspace.Space {
					return populated(t, addrspace.ProfileProduction, 230, 120)
				}},
				mesh,
			} {
				f.name = fmt.Sprintf("%s/ops%d-cps%d", f.name, perRequest, contPts)
				f.limits = func(cfg *Config) {
					cfg.MaxNodesPerBrowse = perRequest
					cfg.MaxContinuationPoints = contPts
					cfg.MaxRefsPerBrowse = 5
				}
				f.opts = []uaclient.WalkOptions{{}, {MaxNodes: 40}}
				fixtures = append(fixtures, f)
			}
		}
	}

	for _, f := range fixtures {
		f := f
		t.Run(f.name, func(t *testing.T) {
			space := f.space(t)
			mutate := func(cfg *Config) {
				cfg.Space = space
				if f.limits != nil {
					f.limits(cfg)
				}
			}
			for _, o := range f.opts {
				want := referenceWalk(context.Background(), sessionOn(t, mutate, uaclient.Options{}), o)
				got, err := sessionOn(t, mutate, uaclient.Options{}).Walk(context.Background(), o)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("options %+v: batched walk differs from the single-node reference:\n got %d nodes, truncated %v (%q)\nwant %d nodes, truncated %v (%q)\nfirst difference at node %d",
						o, len(got.Nodes), got.Truncated, got.LimitHit,
						len(want.Nodes), want.Truncated, want.LimitHit, firstDifference(got.Nodes, want.Nodes))
				}
				if len(want.Nodes) == 0 {
					t.Fatal("reference walk found no nodes: the fixture tests nothing")
				}
			}
		})
	}
}

func firstDifference(a, b []uaclient.NodeInfo) int {
	for i := range a {
		if i >= len(b) || !reflect.DeepEqual(a[i], b[i]) {
			return i
		}
	}
	return len(a)
}

// TestWalkRequestsPerFrontier pins what the batching buys and how it
// degrades: the production-profile space of the benchmark's average
// host is walked in one Browse per BFS level, a server capping
// operations per request costs the halving ladder and no more, and the
// cap of one reproduces the single-node request count.
func TestWalkRequestsPerFrontier(t *testing.T) {
	space := populated(t, addrspace.ProfileProduction, 60, 20)
	// Objects; Server, Application; their 3 + 60 variables (and 20
	// methods, which are not browsed); BuildInfo, CurrentTime;
	// SoftwareVersion, ProductName: 89 nodes below Objects, 70 nodes to
	// browse, on five levels.
	const browsable, levels = 1 + 2 + 3 + 60 + 2 + 2, 5
	for _, tc := range []struct {
		cap  int
		want uint64
	}{
		{0, levels},
		{100, levels},
		// The third level's 63 nodes are refused at 63, 31 and 15 and go
		// through in nine requests of 7; every other level fits in one.
		{8, levels - 1 + 3 + 9},
		// The second level's request for 2 is refused once; from then on
		// one request per node, as the single-node walker sent.
		{1, browsable + 1},
	} {
		reg := telemetry.New()
		c := sessionOn(t, func(cfg *Config) {
			cfg.Space = space
			cfg.MaxNodesPerBrowse = tc.cap
		}, uaclient.Options{Metrics: reg})
		res, err := c.Walk(context.Background(), uaclient.WalkOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Nodes) != 89 {
			t.Errorf("cap %d: %d nodes, want 89", tc.cap, len(res.Nodes))
		}
		if got := requestCount(reg, "browse"); got != tc.want {
			t.Errorf("cap %d: %d browse requests, want %d", tc.cap, got, tc.want)
		}
		if got := requestCount(reg, "browse_next"); got != 0 {
			t.Errorf("cap %d: %d browse_next requests, want 0", tc.cap, got)
		}
	}
}

// TestSessionContinuationPointsBounded shows the session-side half of
// the cap: a client that never drains its continuation points cannot
// grow the session's table past MaxContinuationPoints, and draining one
// makes room again.
func TestSessionContinuationPointsBounded(t *testing.T) {
	space := populated(t, addrspace.ProfileProduction, 30, 0)
	srv, _ := startTestServer(t, func(cfg *Config) {
		cfg.Space = space
		cfg.MaxRefsPerBrowse = 2
		cfg.MaxContinuationPoints = 4
	})
	sess := &session{contPts: map[string][]uamsg.ReferenceDescription{}}
	browseApp := func() uamsg.BrowseResult {
		resp := srv.browse(sess, &uamsg.BrowseRequest{NodesToBrowse: []uamsg.BrowseDescription{{
			NodeID:    uatypes.NewStringNodeID(2, "Application"),
			Direction: uamsg.BrowseDirectionForward,
		}}})
		return resp.(*uamsg.BrowseResponse).Results[0]
	}
	var last uamsg.BrowseResult
	for i := 0; i < 4; i++ {
		if last = browseApp(); last.Status.IsBad() || len(last.ContinuationPoint) == 0 {
			t.Fatalf("browse %d: %+v", i, last)
		}
	}
	if r := browseApp(); r.Status != uastatus.BadNoContinuationPoints || len(r.References) != 0 {
		t.Errorf("fifth undrained browse = %v with %d references, want BadNoContinuationPoints and none", r.Status, len(r.References))
	}
	if len(sess.contPts) != 4 {
		t.Errorf("session holds %d continuation points, want 4", len(sess.contPts))
	}
	srv.browseNext(sess, &uamsg.BrowseNextRequest{
		ReleasePoints: true, ContinuationPoints: [][]byte{last.ContinuationPoint},
	})
	if r := browseApp(); r.Status.IsBad() {
		t.Errorf("browse after releasing a continuation point = %v", r.Status)
	}
}

// failingDialer hands out connections that fail every Write after the
// first okWrites, and counts the writes attempted after that.
type failingDialer struct {
	okWrites int64
	writes   atomic.Int64
	doomed   atomic.Int64
}

func (d *failingDialer) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	conn, err := (&net.Dialer{}).DialContext(ctx, network, address)
	if err != nil {
		return nil, err
	}
	return &failingConn{Conn: conn, d: d}, nil
}

type failingConn struct {
	net.Conn
	d *failingDialer
}

func (c *failingConn) Write(p []byte) (int, error) {
	if c.d.writes.Add(1) > c.d.okWrites {
		c.d.doomed.Add(1)
		_ = c.Conn.Close()
		return 0, net.ErrClosed
	}
	return c.Conn.Write(p)
}

// TestWalkStopsOnTransportFailure: once a request fails below the
// service layer the walk ends with what it has, flagged "transport",
// having attempted exactly the one request that failed — not one more
// per queued node and per read batch.
func TestWalkStopsOnTransportFailure(t *testing.T) {
	space := populated(t, addrspace.ProfileProduction, 230, 120)
	mutate := func(cfg *Config) { cfg.Space = space }

	// How many writes a complete walk takes, to place the failure
	// inside the third frontier.
	probe := &failingDialer{okWrites: 1 << 40}
	c := sessionOn(t, mutate, uaclient.Options{Dialer: probe})
	beforeWalk := probe.writes.Load() // hello, open channel, create and activate session
	whole, err := c.Walk(context.Background(), uaclient.WalkOptions{})
	if err != nil || whole.Truncated {
		t.Fatalf("unbroken walk: %v, %+v", err, whole)
	}
	if probe.writes.Load() < beforeWalk+6 {
		t.Fatalf("unbroken walk took %d writes", probe.writes.Load()-beforeWalk)
	}

	d := &failingDialer{okWrites: beforeWalk + 3} // namespace array, two frontiers
	res, err := sessionOn(t, mutate, uaclient.Options{Dialer: d}).Walk(context.Background(), uaclient.WalkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.LimitHit != "transport" {
		t.Errorf("truncated %v, limit %q, want transport", res.Truncated, res.LimitHit)
	}
	if len(res.Nodes) == 0 || len(res.Nodes) >= len(whole.Nodes) {
		t.Errorf("kept %d of %d nodes, want what the first two frontiers found", len(res.Nodes), len(whole.Nodes))
	}
	if got := d.doomed.Load(); got != 1 {
		t.Errorf("%d requests attempted on the broken connection, want 1", got)
	}
}

// pipeDialer connects to srv over the simulated Internet's in-process
// connection.
type pipeDialer struct{ srv *Server }

func (d pipeDialer) DialContext(context.Context, string, string) (net.Conn, error) {
	client, server := memconn.Pipe()
	go d.srv.HandleConn(server)
	return client, nil
}

// BenchmarkWalk is one anonymous walk of a production-profile address
// space of the campaign's average size (80 variables, 10 methods, 99
// nodes below Objects) over the simulated connection: client and server
// side of every request, which is what a grab pays for the traversal.
// requests/op is the ua_requests count of the walk; allocs/op is
// budgeted in BENCH_14.json.
func BenchmarkWalk(b *testing.B) {
	ids(b)
	space := addrspace.New("urn:test:server", "2.1.0")
	if _, err := addrspace.Populate(space, addrspace.BuildOptions{
		Profile: addrspace.ProfileProduction, Variables: 80, Methods: 10,
		AnonReadableFrac: 0.7, AnonWritableFrac: 0.3, AnonExecutableFrac: 0.5,
		Rand: mrand.New(mrand.NewSource(13)),
	}); err != nil {
		b.Fatal(err)
	}
	srv, err := New(Config{
		ApplicationURI: "urn:test:server",
		EndpointURL:    "opc.tcp://192.0.2.7:4840",
		Endpoints: []EndpointConfig{
			{Policy: uapolicy.None, Modes: []uamsg.MessageSecurityMode{uamsg.SecurityModeNone}},
		},
		Space: space,
	})
	if err != nil {
		b.Fatal(err)
	}
	reg := telemetry.New()
	c, err := uaclient.Dial(context.Background(), "opc.tcp://192.0.2.7:4840",
		uaclient.Options{Dialer: pipeDialer{srv}, Timeout: time.Minute, Metrics: reg})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.OpenInsecureChannel(); err != nil {
		b.Fatal(err)
	}
	if err := c.CreateSession(uaclient.AnonymousIdentity()); err != nil {
		b.Fatal(err)
	}
	before := reg.Snapshot().CounterTotal("ua_requests")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Walk(context.Background(), uaclient.WalkOptions{})
		if err != nil || res.Truncated || len(res.Nodes) != 99 {
			b.Fatalf("walk: %v, %d nodes, truncated %v", err, len(res.Nodes), res.Truncated)
		}
	}
	b.StopTimer()
	sent := reg.Snapshot().CounterTotal("ua_requests") - before
	b.ReportMetric(float64(sent)/float64(b.N), "requests/op")
}
