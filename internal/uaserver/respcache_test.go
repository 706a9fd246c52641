package uaserver

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/uamsg"
	"repro/internal/uapolicy"
	"repro/internal/uastatus"
	"repro/internal/uatypes"
)

// newCacheTestServer builds (without starting) a server with secure and
// insecure endpoints plus discovery announcements, so both cached
// suffixes are non-trivial.
func newCacheTestServer(t testing.TB) *Server {
	ids(t)
	srv, err := New(Config{
		ApplicationURI:  "urn:test:cache",
		ProductURI:      "urn:test:product",
		ApplicationName: "Cache Server",
		EndpointURL:     "opc.tcp://192.0.2.50:4840",
		ExtraEndpointURLs: []string{
			"opc.tcp://192.0.2.51:4840",
		},
		Endpoints: []EndpointConfig{
			{Policy: uapolicy.None, Modes: []uamsg.MessageSecurityMode{uamsg.SecurityModeNone}},
			{Policy: uapolicy.Basic256Sha256, Modes: []uamsg.MessageSecurityMode{
				uamsg.SecurityModeSign, uamsg.SecurityModeSignAndEncrypt}},
		},
		TokenTypes: []uamsg.UserTokenType{uamsg.UserTokenAnonymous, uamsg.UserTokenUserName},
		Key:        srvKey,
		CertDER:    srvCrt.Raw,
		KnownServers: []uamsg.ApplicationDescription{{
			ApplicationURI: "urn:test:announced",
			DiscoveryURLs:  []string{"opc.tcp://192.0.2.60:4841"},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestResponseCacheByteIdentical is the response-cache equivalence
// gate at the wire level: with identical response headers, the cached
// PreEncodedResponse and the structured response must encode to the
// same bytes, for both GetEndpoints and FindServers.
func TestResponseCacheByteIdentical(t *testing.T) {
	srv := newCacheTestServer(t)
	fixed := uamsg.ResponseHeader{
		Timestamp:     time.Date(2020, 8, 30, 12, 0, 0, 0, time.UTC),
		RequestHandle: 77,
		ServiceResult: uastatus.Good,
	}
	for _, req := range []uamsg.Message{
		&uamsg.GetEndpointsRequest{},
		&uamsg.FindServersRequest{},
	} {
		cached := srv.dispatch(nil, nil, req, time.Time{}, ConnOptions{CachedResponses: true})
		plain := srv.dispatch(nil, nil, req, time.Time{}, ConnOptions{})

		if _, ok := cached.(*uamsg.PreEncodedResponse); !ok {
			t.Fatalf("%T: cached dispatch returned %T", req, cached)
		}
		if _, ok := plain.(*uamsg.PreEncodedResponse); ok {
			t.Fatalf("%T: uncached dispatch returned the cached type", req)
		}
		*cached.(uamsg.Response).ResponseHeader() = fixed
		*plain.(uamsg.Response).ResponseHeader() = fixed
		a, b := uamsg.Encode(cached), uamsg.Encode(plain)
		if !bytes.Equal(a, b) {
			t.Errorf("%T: cached encoding differs: %d bytes vs %d", req, len(a), len(b))
		}
		// The cached bytes must decode back to the structured response.
		dec, err := uamsg.Decode(a)
		if err != nil {
			t.Fatalf("%T: decoding cached response: %v", req, err)
		}
		if reflect.TypeOf(dec) == reflect.TypeOf(cached) {
			t.Errorf("%T: cached response did not decode to the structured type", req)
		}
	}
}

// TestCachedGetEndpointsServeAllocBudget gates the serve-side hot path:
// answering a GetEndpoints request from the cache — dispatch plus full
// message encoding into a pooled buffer — must stay within a fixed
// small allocation budget, independent of endpoint table size (the
// endpoint array with its embedded certificate is served as cached
// bytes, never re-encoded).
func TestCachedGetEndpointsServeAllocBudget(t *testing.T) {
	srv := newCacheTestServer(t)
	e := uatypes.AcquireEncoder(len(srv.epSuffix) + 128)
	defer uatypes.ReleaseEncoder(e)
	allocs := testing.AllocsPerRun(500, serveGetEndpoints(srv, ConnOptions{CachedResponses: true}, e))
	// One allocation for the response value itself; the body is cached.
	// The bound stays 2, tighter than the rule's 1×1.25 + 2.
	if allocs > 2 {
		t.Errorf("cached GetEndpoints serve allocates %.1f objects, budget 2", allocs)
	}
}

// TestUncachedGetEndpointsServeAllocBudget: the reference serving, the
// response built and encoded structurally, allocates at most 1 object
// (×1.25 + 2).
func TestUncachedGetEndpointsServeAllocBudget(t *testing.T) {
	srv := newCacheTestServer(t)
	e := uatypes.AcquireEncoder(len(srv.epSuffix) + 128)
	defer uatypes.ReleaseEncoder(e)
	if allocs := testing.AllocsPerRun(500, serveGetEndpoints(srv, ConnOptions{}, e)); allocs > 1*1.25+2 {
		t.Errorf("uncached GetEndpoints serve allocates %.1f objects, budget %.2f", allocs, 1*1.25+2)
	}
}

// serveGetEndpoints answers one GetEndpoints request under o and
// encodes the response into e, the operation BenchmarkGetEndpointsServe
// and the two serve budgets measure.
func serveGetEndpoints(srv *Server, o ConnOptions, e *uatypes.Encoder) func() {
	req := &uamsg.GetEndpointsRequest{}
	return func() {
		resp := srv.dispatch(nil, nil, req, time.Time{}, o)
		e.Reset()
		uamsg.EncodeTo(e, resp)
	}
}

func BenchmarkGetEndpointsServe(b *testing.B) {
	srv := newCacheTestServer(b)
	// "uncached" is the reference serving, the zero ConnOptions.
	for _, mode := range []struct {
		name string
		o    ConnOptions
	}{{"cached", ConnOptions{CachedResponses: true}}, {"uncached", ConnOptions{}}} {
		b.Run(mode.name, func(b *testing.B) {
			e := uatypes.AcquireEncoder(len(srv.epSuffix) + 128)
			defer uatypes.ReleaseEncoder(e)
			serve := serveGetEndpoints(srv, mode.o, e)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
}
