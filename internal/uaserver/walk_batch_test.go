package uaserver

import (
	"context"
	"errors"
	mrand "math/rand"
	"testing"

	"repro/internal/addrspace"
	"repro/internal/uaclient"
	"repro/internal/uamsg"
	"repro/internal/uastatus"
	"repro/internal/uatypes"
)

// TestWalkBatchedAttributeReads exercises the >100-node batching path of
// the walker and continuation points on the server (MaxRefsPerBrowse).
func TestWalkBatchedAttributeReads(t *testing.T) {
	_, url := startTestServer(t, func(cfg *Config) {
		space := addrspace.New("urn:test:server", "2.1.0")
		if _, err := addrspace.Populate(space, addrspace.BuildOptions{
			Profile:            addrspace.ProfileProduction,
			Variables:          230,
			Methods:            120,
			AnonReadableFrac:   0.9,
			AnonWritableFrac:   0.4,
			AnonExecutableFrac: 0.5,
			Rand:               mrand.New(mrand.NewSource(5)),
		}); err != nil {
			t.Fatal(err)
		}
		cfg.Space = space
		cfg.MaxRefsPerBrowse = 50 // force continuation points
	})
	c := dialInsecure(t, url)
	if err := c.CreateSession(uaclient.AnonymousIdentity()); err != nil {
		t.Fatal(err)
	}
	res, err := c.Walk(context.Background(), uaclient.WalkOptions{MaxNodes: 5000})
	if err != nil {
		t.Fatal(err)
	}
	var vars, readable, writable, methods, exec int
	for _, n := range res.Nodes {
		switch n.Class {
		case uamsg.NodeClassVariable:
			vars++
			if n.UserAccessLevel.CanRead() {
				readable++
			}
			if n.UserAccessLevel.CanWrite() {
				writable++
			}
		case uamsg.NodeClassMethod:
			methods++
			if n.UserExecutable {
				exec++
			}
		}
	}
	if vars != 230+7 {
		t.Errorf("variables = %d, want 237", vars)
	}
	// Exact-count semantics: 207 readable app vars + 7 standard.
	if readable != 207+7 {
		t.Errorf("readable = %d, want 214", readable)
	}
	if writable != 92 {
		t.Errorf("writable = %d, want 92", writable)
	}
	if methods != 120 || exec != 60 {
		t.Errorf("methods/exec = %d/%d, want 120/60", methods, exec)
	}
}

func TestWalkReadValuesSamples(t *testing.T) {
	_, url := startTestServer(t, nil)
	c := dialInsecure(t, url)
	if err := c.CreateSession(uaclient.AnonymousIdentity()); err != nil {
		t.Fatal(err)
	}
	res, err := c.Walk(context.Background(), uaclient.WalkOptions{
		MaxNodes:      1000,
		ReadValues:    true,
		MaxValueReads: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sampled := 0
	for _, n := range res.Nodes {
		if n.Value != nil {
			sampled++
		}
	}
	if sampled == 0 || sampled > 3 {
		t.Errorf("value samples = %d, want 1..3", sampled)
	}
}

func TestClientErrorsWithoutChannel(t *testing.T) {
	_, url := startTestServer(t, nil)
	c, err := uaclient.Dial(context.Background(), url, uaclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.GetEndpoints(); err == nil {
		t.Error("GetEndpoints without channel should fail")
	}
	if err := c.OpenInsecureChannel(); err != nil {
		t.Fatal(err)
	}
	if err := c.OpenInsecureChannel(); err == nil {
		t.Error("double OpenChannel should fail")
	}
	// Session-required services fault without a session.
	_, err = c.Browse(addrspace.ObjectsFolder())
	var se uaclient.ServiceError
	if !errors.As(err, &se) || se.Code != uastatus.BadSessionIdInvalid {
		t.Errorf("browse without session = %v", err)
	}
	if se.Error() == "" {
		t.Error("ServiceError message empty")
	}
	// CloseSession without a session is a no-op.
	if err := c.CloseSession(); err != nil {
		t.Errorf("CloseSession without session = %v", err)
	}
}

func TestReadUnknownNodeAndAttributes(t *testing.T) {
	_, url := startTestServer(t, nil)
	c := dialInsecure(t, url)
	if err := c.CreateSession(uaclient.AnonymousIdentity()); err != nil {
		t.Fatal(err)
	}
	dv, err := c.ReadValue(uatypes.NewStringNodeID(2, "does-not-exist"))
	if err != nil {
		t.Fatal(err)
	}
	if !dv.HasStatus || dv.Status != uastatus.BadNodeIdUnknown {
		t.Errorf("unknown node status = %v", dv.Status)
	}
	// Reading Value of an Object is invalid.
	vals, err := c.Read([]uatypes.NodeID{addrspace.ObjectsFolder()}, uamsg.AttrValue)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].Status != uastatus.BadAttributeIdInvalid {
		t.Errorf("object value status = %v", vals[0].Status)
	}
	// BrowseName/DisplayName/NodeClass attributes work.
	for _, attr := range []uamsg.AttributeID{
		uamsg.AttrBrowseName, uamsg.AttrDisplayName, uamsg.AttrNodeClass, uamsg.AttrNodeID,
	} {
		vals, err := c.Read([]uatypes.NodeID{addrspace.ObjectsFolder()}, attr)
		if err != nil || vals[0].Status.IsBad() {
			t.Errorf("attr %d read failed: %v %v", attr, vals, err)
		}
	}
	// Unsupported attribute id.
	vals, err = c.Read([]uatypes.NodeID{addrspace.ObjectsFolder()}, uamsg.AttrWriteMask)
	if err != nil || vals[0].Status != uastatus.BadAttributeIdInvalid {
		t.Errorf("unsupported attr = %v %v", vals, err)
	}
}

func TestCallUnknownAndRestrictedMethods(t *testing.T) {
	_, url := startTestServer(t, func(cfg *Config) {
		space := addrspace.New("urn:test:server", "2.1.0")
		if _, err := addrspace.Populate(space, addrspace.BuildOptions{
			Profile: addrspace.ProfileProduction, Variables: 2, Methods: 2,
			AnonReadableFrac: 1, AnonWritableFrac: 0, AnonExecutableFrac: 0,
			Rand: mrand.New(mrand.NewSource(9)),
		}); err != nil {
			t.Fatal(err)
		}
		cfg.Space = space
	})
	c := dialInsecure(t, url)
	if err := c.CreateSession(uaclient.AnonymousIdentity()); err != nil {
		t.Fatal(err)
	}
	res, err := c.Walk(context.Background(), uaclient.WalkOptions{MaxNodes: 100})
	if err != nil {
		t.Fatal(err)
	}
	var method uatypes.NodeID
	for _, n := range res.Nodes {
		if n.Class == uamsg.NodeClassMethod {
			method = n.ID
			break
		}
	}
	// Anonymous execution denied (AnonExecutableFrac 0).
	result, err := c.Call(uatypes.NewStringNodeID(method.Namespace, "Application"), method, nil)
	if err != nil {
		t.Fatal(err)
	}
	if result.Status != uastatus.BadUserAccessDenied {
		t.Errorf("anon call status = %v", result.Status)
	}
	// Unknown method.
	result, err = c.Call(addrspace.ObjectsFolder(), uatypes.NewStringNodeID(2, "nope"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if result.Status != uastatus.BadMethodInvalid {
		t.Errorf("unknown method status = %v", result.Status)
	}
	// Authenticated users may execute.
	c2 := dialInsecure(t, url)
	if err := c2.CreateSession(userName("operator", "secret")); err != nil {
		t.Fatal(err)
	}
	result, err = c2.Call(uatypes.NewStringNodeID(method.Namespace, "Application"), method, nil)
	if err != nil {
		t.Fatal(err)
	}
	if result.Status.IsBad() {
		t.Errorf("authenticated call status = %v", result.Status)
	}
}
