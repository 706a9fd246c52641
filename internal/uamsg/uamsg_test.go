package uamsg

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/uastatus"
	"repro/internal/uatypes"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	b := Encode(m)
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode(%T): %v", m, err)
	}
	return got
}

func TestHelloAcknowledgeErrorRoundTrip(t *testing.T) {
	h := Hello{
		Version:        ProtocolVersion,
		ReceiveBufSize: 65536,
		SendBufSize:    65536,
		MaxMessageSize: 1 << 24,
		MaxChunkCount:  256,
		EndpointURL:    "opc.tcp://10.0.0.1:4840",
	}
	gotH, err := DecodeHello(h.Encode())
	if err != nil || gotH != h {
		t.Errorf("hello round trip: %+v, %v", gotH, err)
	}

	a := Acknowledge{Version: 0, ReceiveBufSize: 8192, SendBufSize: 8192,
		MaxMessageSize: 1 << 20, MaxChunkCount: 16}
	gotA, err := DecodeAcknowledge(a.Encode())
	if err != nil || gotA != a {
		t.Errorf("ack round trip: %+v, %v", gotA, err)
	}

	ce := ConnError{Code: uastatus.BadTcpMessageTypeInvalid, Reason: "bad type"}
	gotE, err := DecodeConnError(ce.Encode())
	if err != nil || gotE != ce {
		t.Errorf("error round trip: %+v, %v", gotE, err)
	}
	if gotE.Error() == "" {
		t.Error("ConnError.Error() empty")
	}
}

func TestGetEndpointsRoundTrip(t *testing.T) {
	req := &GetEndpointsRequest{
		Header: RequestHeader{
			Timestamp:     time.Date(2020, 8, 30, 1, 2, 3, 0, time.UTC),
			RequestHandle: 7,
			TimeoutHint:   10000,
		},
		EndpointURL: "opc.tcp://192.0.2.1:4840",
		LocaleIDs:   []string{"en"},
	}
	got := roundTrip(t, req).(*GetEndpointsRequest)
	if !reflect.DeepEqual(got, req) {
		t.Errorf("request: got %+v want %+v", got, req)
	}

	resp := &GetEndpointsResponse{
		Header: ResponseHeader{
			Timestamp:     time.Date(2020, 8, 30, 1, 2, 4, 0, time.UTC),
			RequestHandle: 7,
			ServiceResult: uastatus.Good,
		},
		Endpoints: []EndpointDescription{
			{
				EndpointURL: "opc.tcp://192.0.2.1:4840/ua",
				Server: ApplicationDescription{
					ApplicationURI:  "urn:bachmann:m1:0001",
					ProductURI:      "urn:bachmann.info:M1",
					ApplicationName: uatypes.NewText("M1 OPC UA Server"),
					ApplicationType: ApplicationServer,
					DiscoveryURLs:   []string{"opc.tcp://192.0.2.1:4840"},
				},
				ServerCertificate: []byte{1, 2, 3},
				SecurityMode:      SecurityModeSignAndEncrypt,
				SecurityPolicyURI: "http://opcfoundation.org/UA/SecurityPolicy#Basic256Sha256",
				UserIdentityTokens: []UserTokenPolicy{
					{PolicyID: "anon", TokenType: UserTokenAnonymous},
					{PolicyID: "user", TokenType: UserTokenUserName,
						SecurityPolicyURI: "http://opcfoundation.org/UA/SecurityPolicy#Basic256Sha256"},
				},
				TransportProfileURI: TransportProfileBinary,
				SecurityLevel:       3,
			},
			{
				EndpointURL:       "opc.tcp://192.0.2.1:4840/ua",
				SecurityMode:      SecurityModeNone,
				SecurityPolicyURI: "http://opcfoundation.org/UA/SecurityPolicy#None",
			},
		},
	}
	got2 := roundTrip(t, resp).(*GetEndpointsResponse)
	if !reflect.DeepEqual(got2, resp) {
		t.Errorf("response mismatch:\n got %+v\nwant %+v", got2, resp)
	}
}

func TestOpenSecureChannelRoundTrip(t *testing.T) {
	req := &OpenSecureChannelRequest{
		Header:            RequestHeader{RequestHandle: 1},
		RequestType:       SecurityTokenIssue,
		SecurityMode:      SecurityModeSign,
		ClientNonce:       bytes.Repeat([]byte{0xAA}, 32),
		RequestedLifetime: 3600000,
	}
	got := roundTrip(t, req).(*OpenSecureChannelRequest)
	if !reflect.DeepEqual(got, req) {
		t.Errorf("got %+v", got)
	}

	resp := &OpenSecureChannelResponse{
		Header: ResponseHeader{ServiceResult: uastatus.Good},
		SecurityToken: ChannelSecurityToken{
			ChannelID: 5, TokenID: 9,
			CreatedAt:       time.Date(2020, 2, 9, 0, 0, 0, 0, time.UTC),
			RevisedLifetime: 3600000,
		},
		ServerNonce: []byte{1, 2, 3, 4},
	}
	got2 := roundTrip(t, resp).(*OpenSecureChannelResponse)
	if !reflect.DeepEqual(got2, resp) {
		t.Errorf("got %+v", got2)
	}
}

func TestSessionServicesRoundTrip(t *testing.T) {
	cr := &CreateSessionRequest{
		Header:                  RequestHeader{RequestHandle: 2},
		ClientDescription:       ApplicationDescription{ApplicationURI: "urn:scanner"},
		EndpointURL:             "opc.tcp://192.0.2.9:4840",
		SessionName:             "scan",
		ClientNonce:             []byte{9, 9},
		RequestedSessionTimeout: 30000,
	}
	if got := roundTrip(t, cr).(*CreateSessionRequest); !reflect.DeepEqual(got, cr) {
		t.Errorf("CreateSessionRequest: got %+v", got)
	}

	resp := &CreateSessionResponse{
		Header:                ResponseHeader{ServiceResult: uastatus.Good},
		SessionID:             uatypes.NewNumericNodeID(1, 42),
		AuthenticationToken:   uatypes.NodeID{Type: uatypes.NodeIDTypeByteString, Namespace: 0, Bytes: []byte{7, 7}},
		RevisedSessionTimeout: 30000,
		ServerNonce:           []byte{1},
		ServerSignature:       SignatureData{Algorithm: "rsa-sha256", Signature: []byte{5}},
	}
	if got := roundTrip(t, resp).(*CreateSessionResponse); !reflect.DeepEqual(got, resp) {
		t.Errorf("CreateSessionResponse: got %+v", got)
	}

	ar := &ActivateSessionRequest{
		Header:            RequestHeader{AuthenticationToken: resp.AuthenticationToken},
		UserIdentityToken: EncodeIdentityToken(&AnonymousIdentityToken{PolicyID: "anon"}),
	}
	gotAR := roundTrip(t, ar).(*ActivateSessionRequest)
	tok := DecodeIdentityToken(gotAR.UserIdentityToken)
	anon, ok := tok.(*AnonymousIdentityToken)
	if !ok || anon.PolicyID != "anon" {
		t.Errorf("identity token: %#v", tok)
	}

	cs := &CloseSessionRequest{DeleteSubscriptions: true}
	if got := roundTrip(t, cs).(*CloseSessionRequest); !got.DeleteSubscriptions {
		t.Error("CloseSessionRequest lost flag")
	}
}

func TestIdentityTokenKinds(t *testing.T) {
	cases := []any{
		&AnonymousIdentityToken{PolicyID: "0"},
		&UserNameIdentityToken{PolicyID: "1", UserName: "op", Password: []byte("pw")},
		&X509IdentityToken{PolicyID: "2", CertificateData: []byte{0x30}},
		&IssuedIdentityToken{PolicyID: "3", TokenData: []byte{1}},
	}
	for _, tok := range cases {
		x := EncodeIdentityToken(tok)
		back := DecodeIdentityToken(x)
		if !reflect.DeepEqual(back, tok) {
			t.Errorf("token %T: got %#v", tok, back)
		}
	}
	if DecodeIdentityToken(uatypes.ExtensionObject{}) != nil {
		t.Error("empty extension object should decode to nil token")
	}
	if got := EncodeIdentityToken(42); got.Encoding != uatypes.ExtensionObjectEmpty {
		t.Error("unknown token type should encode empty")
	}
}

func TestBrowseReadCallRoundTrip(t *testing.T) {
	br := &BrowseRequest{
		Header:        RequestHeader{RequestHandle: 3},
		MaxReferences: 1000,
		NodesToBrowse: []BrowseDescription{{
			NodeID:          uatypes.NewNumericNodeID(0, IDObjectsFolder),
			Direction:       BrowseDirectionForward,
			ReferenceTypeID: uatypes.NewNumericNodeID(0, IDHierarchicalRefType),
			IncludeSubtypes: true,
			ResultMask:      63,
		}},
	}
	if got := roundTrip(t, br).(*BrowseRequest); !reflect.DeepEqual(got, br) {
		t.Errorf("BrowseRequest: got %+v", got)
	}

	bresp := &BrowseResponse{
		Header: ResponseHeader{ServiceResult: uastatus.Good},
		Results: []BrowseResult{{
			Status:            uastatus.Good,
			ContinuationPoint: []byte{0xCC},
			References: []ReferenceDescription{{
				ReferenceTypeID: uatypes.NewNumericNodeID(0, IDOrganizesRefType),
				IsForward:       true,
				NodeID:          uatypes.ExpandedNodeID{NodeID: uatypes.NewStringNodeID(2, "Tank1")},
				BrowseName:      uatypes.QualifiedName{NamespaceIndex: 2, Name: "Tank1"},
				DisplayName:     uatypes.NewText("Tank 1"),
				NodeClass:       NodeClassObject,
			}},
		}},
	}
	if got := roundTrip(t, bresp).(*BrowseResponse); !reflect.DeepEqual(got, bresp) {
		t.Errorf("BrowseResponse: got %+v", got)
	}

	bn := &BrowseNextRequest{ContinuationPoints: [][]byte{{0xCC}}}
	if got := roundTrip(t, bn).(*BrowseNextRequest); !reflect.DeepEqual(got, bn) {
		t.Errorf("BrowseNextRequest: got %+v", got)
	}

	rr := &ReadRequest{
		Timestamps: TimestampsNeither,
		NodesToRead: []ReadValueID{
			{NodeID: uatypes.NewStringNodeID(2, "rSetFillLevel"), AttributeID: AttrUserAccessLevel},
		},
	}
	if got := roundTrip(t, rr).(*ReadRequest); !reflect.DeepEqual(got, rr) {
		t.Errorf("ReadRequest: got %+v", got)
	}

	val := uatypes.Variant{Type: uatypes.TypeUint32, Uint: 3}
	rresp := &ReadResponse{
		Results: []uatypes.DataValue{{Value: &val, HasStatus: true, Status: uastatus.Good}},
	}
	if got := roundTrip(t, rresp).(*ReadResponse); !reflect.DeepEqual(got, rresp) {
		t.Errorf("ReadResponse: got %+v", got)
	}

	call := &CallRequest{MethodsToCall: []CallMethodRequest{{
		ObjectID:       uatypes.NewStringNodeID(2, "Server"),
		MethodID:       uatypes.NewStringNodeID(2, "AddEndpoint"),
		InputArguments: []uatypes.Variant{uatypes.StringVariant("opc.tcp://x")},
	}}}
	if got := roundTrip(t, call).(*CallRequest); !reflect.DeepEqual(got, call) {
		t.Errorf("CallRequest: got %+v", got)
	}

	cresp := &CallResponse{Results: []CallMethodResult{{
		Status:          uastatus.BadUserAccessDenied,
		InputArgResults: []uastatus.Code{uastatus.Good},
	}}}
	if got := roundTrip(t, cresp).(*CallResponse); !reflect.DeepEqual(got, cresp) {
		t.Errorf("CallResponse: got %+v", got)
	}
}

func TestFindServersRoundTrip(t *testing.T) {
	req := &FindServersRequest{EndpointURL: "opc.tcp://192.0.2.1:4840"}
	if got := roundTrip(t, req).(*FindServersRequest); !reflect.DeepEqual(got, req) {
		t.Errorf("got %+v", got)
	}
	resp := &FindServersResponse{Servers: []ApplicationDescription{{
		ApplicationURI:  "urn:opcfoundation:lds",
		ApplicationType: ApplicationDiscoveryServer,
		DiscoveryURLs:   []string{"opc.tcp://192.0.2.50:4841/server1"},
	}}}
	if got := roundTrip(t, resp).(*FindServersResponse); !reflect.DeepEqual(got, resp) {
		t.Errorf("got %+v", got)
	}
}

func TestServiceFaultRoundTrip(t *testing.T) {
	f := &ServiceFault{Header: ResponseHeader{ServiceResult: uastatus.BadServiceUnsupported}}
	got := roundTrip(t, f).(*ServiceFault)
	if got.Header.ServiceResult != uastatus.BadServiceUnsupported {
		t.Errorf("got %+v", got)
	}
}

func TestDecodeUnknownTypeID(t *testing.T) {
	e := uatypes.NewEncoder(8)
	uatypes.NewNumericNodeID(0, 99999).Encode(e)
	if _, err := Decode(e.Bytes()); err == nil {
		t.Error("decoding unknown type id should fail")
	}
	if _, err := Decode(nil); err == nil {
		t.Error("decoding empty buffer should fail")
	}
}

func TestDecodeTruncatedMessage(t *testing.T) {
	full := Encode(&GetEndpointsRequest{EndpointURL: "opc.tcp://h:4840"})
	for _, cut := range []int{5, len(full) / 2, len(full) - 1} {
		if _, err := Decode(full[:cut]); err == nil {
			t.Errorf("decoding %d/%d bytes should fail", cut, len(full))
		}
	}
}

func TestEnumStrings(t *testing.T) {
	if SecurityModeSignAndEncrypt.String() != "SignAndEncrypt" ||
		SecurityModeNone.String() != "None" ||
		SecurityModeSign.String() != "Sign" {
		t.Error("security mode strings wrong")
	}
	if UserTokenAnonymous.String() != "Anonymous" || UserTokenIssuedToken.String() != "IssuedToken" {
		t.Error("token type strings wrong")
	}
	if NodeClassMethod.String() != "Method" || NodeClass(3).String() == "" {
		t.Error("node class strings wrong")
	}
	if MessageSecurityMode(9).String() != "Invalid(9)" {
		t.Error("invalid mode string wrong")
	}
}

func TestAccessLevelBits(t *testing.T) {
	a := AccessLevelRead | AccessLevelWrite
	if !a.CanRead() || !a.CanWrite() {
		t.Error("access level bits broken")
	}
	if AccessLevel(0).CanRead() {
		t.Error("zero access level should not read")
	}
}

func BenchmarkEncodeGetEndpointsResponse(b *testing.B) {
	resp := &GetEndpointsResponse{Endpoints: make([]EndpointDescription, 6)}
	for i := range resp.Endpoints {
		resp.Endpoints[i] = EndpointDescription{
			EndpointURL:       "opc.tcp://192.0.2.1:4840",
			SecurityPolicyURI: "http://opcfoundation.org/UA/SecurityPolicy#Basic256Sha256",
			ServerCertificate: bytes.Repeat([]byte{0x30}, 900),
			UserIdentityTokens: []UserTokenPolicy{
				{PolicyID: "anon"}, {PolicyID: "user", TokenType: UserTokenUserName},
			},
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Encode(resp)
	}
}

func BenchmarkDecodeGetEndpointsResponse(b *testing.B) {
	resp := &GetEndpointsResponse{Endpoints: make([]EndpointDescription, 6)}
	raw := Encode(resp)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}
