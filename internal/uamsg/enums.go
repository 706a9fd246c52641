// Package uamsg defines the OPC UA connection-protocol messages
// (Hello/Acknowledge/Error) and the service request/response messages of
// OPC 10000-4 that the measurement study exercises, together with their
// binary codecs and the numeric type ids used on the wire.
package uamsg

import "fmt"

// MessageSecurityMode determines whether messages are signed and/or
// encrypted on a secure channel (OPC 10000-4 §7.15).
type MessageSecurityMode uint32

// Security modes. Invalid is never advertised.
//
//studyvet:api — an OPC UA wire enumeration, kept whole
const (
	SecurityModeInvalid        MessageSecurityMode = 0
	SecurityModeNone           MessageSecurityMode = 1
	SecurityModeSign           MessageSecurityMode = 2
	SecurityModeSignAndEncrypt MessageSecurityMode = 3
)

// String implements fmt.Stringer.
func (m MessageSecurityMode) String() string {
	switch m {
	case SecurityModeNone:
		return "None"
	case SecurityModeSign:
		return "Sign"
	case SecurityModeSignAndEncrypt:
		return "SignAndEncrypt"
	default:
		return fmt.Sprintf("Invalid(%d)", uint32(m))
	}
}

// UserTokenType identifies the kind of user identity token a server
// accepts (OPC 10000-4 §7.37).
type UserTokenType uint32

// User token types.
const (
	UserTokenAnonymous   UserTokenType = 0
	UserTokenUserName    UserTokenType = 1
	UserTokenCertificate UserTokenType = 2
	UserTokenIssuedToken UserTokenType = 3
)

// String implements fmt.Stringer.
func (t UserTokenType) String() string {
	switch t {
	case UserTokenAnonymous:
		return "Anonymous"
	case UserTokenUserName:
		return "UserName"
	case UserTokenCertificate:
		return "Certificate"
	case UserTokenIssuedToken:
		return "IssuedToken"
	default:
		return fmt.Sprintf("UserTokenType(%d)", uint32(t))
	}
}

// SecurityTokenRequestType distinguishes initial channel establishment
// from token renewal.
type SecurityTokenRequestType uint32

// Token request types.
//
//studyvet:api — an OPC UA wire enumeration, kept whole
const (
	SecurityTokenIssue SecurityTokenRequestType = 0
	SecurityTokenRenew SecurityTokenRequestType = 1
)

// ApplicationType classifies an application description.
type ApplicationType uint32

// Application types.
const (
	ApplicationServer          ApplicationType = 0
	ApplicationClient          ApplicationType = 1
	ApplicationClientAndServer ApplicationType = 2
	ApplicationDiscoveryServer ApplicationType = 3
)

// NodeClass is a bit mask classifying address-space nodes.
type NodeClass uint32

// Node classes.
//
//studyvet:api — an OPC UA wire enumeration, kept whole
const (
	NodeClassUnspecified   NodeClass = 0
	NodeClassObject        NodeClass = 1
	NodeClassVariable      NodeClass = 2
	NodeClassMethod        NodeClass = 4
	NodeClassObjectType    NodeClass = 8
	NodeClassVariableType  NodeClass = 16
	NodeClassReferenceType NodeClass = 32
	NodeClassDataType      NodeClass = 64
	NodeClassView          NodeClass = 128
)

// String implements fmt.Stringer.
func (c NodeClass) String() string {
	switch c {
	case NodeClassObject:
		return "Object"
	case NodeClassVariable:
		return "Variable"
	case NodeClassMethod:
		return "Method"
	case NodeClassObjectType:
		return "ObjectType"
	case NodeClassVariableType:
		return "VariableType"
	case NodeClassReferenceType:
		return "ReferenceType"
	case NodeClassDataType:
		return "DataType"
	case NodeClassView:
		return "View"
	default:
		return fmt.Sprintf("NodeClass(%d)", uint32(c))
	}
}

// BrowseDirection selects which references Browse follows.
type BrowseDirection uint32

// Browse directions.
//
//studyvet:api — an OPC UA wire enumeration, kept whole
const (
	BrowseDirectionForward BrowseDirection = 0
	BrowseDirectionInverse BrowseDirection = 1
	BrowseDirectionBoth    BrowseDirection = 2
)

// AttributeID identifies a node attribute in Read requests.
type AttributeID uint32

// Attribute ids (OPC 10000-4 §A.1).
//
//studyvet:api — an OPC UA wire enumeration, kept whole
const (
	AttrNodeID          AttributeID = 1
	AttrNodeClass       AttributeID = 2
	AttrBrowseName      AttributeID = 3
	AttrDisplayName     AttributeID = 4
	AttrDescription     AttributeID = 5
	AttrWriteMask       AttributeID = 6
	AttrUserWriteMask   AttributeID = 7
	AttrValue           AttributeID = 13
	AttrDataType        AttributeID = 14
	AttrValueRank       AttributeID = 15
	AttrAccessLevel     AttributeID = 17
	AttrUserAccessLevel AttributeID = 18
	AttrExecutable      AttributeID = 21
	AttrUserExecutable  AttributeID = 22
)

// AccessLevel bits for the AccessLevel/UserAccessLevel attributes.
type AccessLevel byte

// Access level bits.
const (
	AccessLevelRead  AccessLevel = 0x01
	AccessLevelWrite AccessLevel = 0x02
)

// CanRead reports whether the read bit is set.
func (a AccessLevel) CanRead() bool { return a&AccessLevelRead != 0 }

// CanWrite reports whether the write bit is set.
func (a AccessLevel) CanWrite() bool { return a&AccessLevelWrite != 0 }

// TimestampsToReturn selects which timestamps Read returns.
type TimestampsToReturn uint32

// Timestamp selections.
//
//studyvet:api — an OPC UA wire enumeration, kept whole
const (
	TimestampsSource  TimestampsToReturn = 0
	TimestampsServer  TimestampsToReturn = 1
	TimestampsBoth    TimestampsToReturn = 2
	TimestampsNeither TimestampsToReturn = 3
)

// Well-known numeric node ids referenced by the study.
const (
	IDRootFolder          = 84
	IDObjectsFolder       = 85
	IDTypesFolder         = 86
	IDViewsFolder         = 87
	IDServerObject        = 2253
	IDServerArray         = 2254
	IDNamespaceArray      = 2255
	IDServerStatus        = 2256
	IDBuildInfo           = 2260
	IDProductName         = 2261
	IDSoftwareVersion     = 2264
	IDCurrentTime         = 2258
	IDHierarchicalRefType = 33
	IDOrganizesRefType    = 35
	IDHasComponentRefType = 47
	IDHasPropertyRefType  = 46
)

// TransportProfileBinary is the URI of the UA-TCP binary transport.
const TransportProfileBinary = "http://opcfoundation.org/UA-Profile/Transport/uatcp-uasc-uabinary"
