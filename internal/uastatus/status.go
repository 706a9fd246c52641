// Package uastatus defines OPC UA status codes as used on the wire.
//
// A status code is a 32-bit value whose two most significant bits encode
// the severity (Good, Uncertain, Bad) and whose upper 16 bits identify the
// condition (OPC 10000-4 §7.34). Only the codes needed by the measurement
// study are enumerated, but arbitrary codes round-trip unchanged.
package uastatus

import "fmt"

// Code is an OPC UA status code.
type Code uint32

// Severity masks per OPC 10000-4.
const (
	severityMask      Code = 0xC0000000
	severityGood      Code = 0x00000000
	severityUncertain Code = 0x40000000
	severityBad       Code = 0x80000000
)

// Status codes used by the protocol stack and the study.
const (
	Good Code = 0x00000000

	BadUnexpectedError           Code = 0x80010000
	BadInternalError             Code = 0x80020000
	BadOutOfMemory               Code = 0x80030000
	BadResourceUnavailable       Code = 0x80040000
	BadCommunicationError        Code = 0x80050000
	BadEncodingError             Code = 0x80060000
	BadDecodingError             Code = 0x80070000
	BadEncodingLimitsExceeded    Code = 0x80080000
	BadRequestTooLarge           Code = 0x80B80000
	BadResponseTooLarge          Code = 0x80B90000
	BadUnknownResponse           Code = 0x80090000
	BadTimeout                   Code = 0x800A0000
	BadServiceUnsupported        Code = 0x800B0000
	BadShutdown                  Code = 0x800C0000
	BadServerNotConnected        Code = 0x800D0000
	BadServerHalted              Code = 0x800E0000
	BadNothingToDo               Code = 0x800F0000
	BadTooManyOperations         Code = 0x80100000
	BadDataTypeIdUnknown         Code = 0x80110000
	BadCertificateInvalid        Code = 0x80120000
	BadSecurityChecksFailed      Code = 0x80130000
	BadCertificateTimeInvalid    Code = 0x80140000
	BadCertificateIssuerInvalid  Code = 0x80150000
	BadCertificateUntrusted      Code = 0x801A0000
	BadCertificateUseNotAllowed  Code = 0x80180000
	BadUserAccessDenied          Code = 0x801F0000
	BadIdentityTokenInvalid      Code = 0x80200000
	BadIdentityTokenRejected     Code = 0x80210000
	BadSecureChannelIdInvalid    Code = 0x80220000
	BadInvalidTimestamp          Code = 0x80230000
	BadNonceInvalid              Code = 0x80240000
	BadSessionIdInvalid          Code = 0x80250000
	BadSessionClosed             Code = 0x80260000
	BadSessionNotActivated       Code = 0x80270000
	BadSubscriptionIdInvalid     Code = 0x80280000
	BadRequestHeaderInvalid      Code = 0x802A0000
	BadTimestampsToReturnInvalid Code = 0x802B0000
	BadRequestCancelledByClient  Code = 0x802C0000

	BadNodeIdInvalid             Code = 0x80330000
	BadNodeIdUnknown             Code = 0x80340000
	BadAttributeIdInvalid        Code = 0x80350000
	BadIndexRangeInvalid         Code = 0x80360000
	BadNotReadable               Code = 0x803A0000
	BadNotWritable               Code = 0x803B0000
	BadOutOfRange                Code = 0x803C0000
	BadNotSupported              Code = 0x803D0000
	BadNotFound                  Code = 0x803E0000
	BadNotImplemented            Code = 0x80400000
	BadMonitoringModeInvalid     Code = 0x80410000
	BadNoContinuationPoints      Code = 0x804B0000
	BadMethodInvalid             Code = 0x80750000
	BadArgumentsMissing          Code = 0x80760000
	BadTooManySessions           Code = 0x80560000
	BadUserSignatureInvalid      Code = 0x80570000
	BadNoValidCertificates       Code = 0x80590000
	BadRequestCancelledByRequest Code = 0x805A0000

	BadTcpServerTooBusy           Code = 0x807D0000
	BadTcpMessageTypeInvalid      Code = 0x807E0000
	BadTcpSecureChannelUnknown    Code = 0x807F0000
	BadTcpMessageTooLarge         Code = 0x80800000
	BadTcpNotEnoughResources      Code = 0x80810000
	BadTcpInternalError           Code = 0x80820000
	BadTcpEndpointUrlInvalid      Code = 0x80830000
	BadRequestInterrupted         Code = 0x80840000
	BadRequestTimeout             Code = 0x80850000
	BadSecureChannelClosed        Code = 0x80860000
	BadSecureChannelTokenUnknown  Code = 0x80870000
	BadSequenceNumberInvalid      Code = 0x80880000
	BadProtocolVersionUnsupported Code = 0x80BE0000

	BadSecurityModeRejected   Code = 0x80540000
	BadSecurityPolicyRejected Code = 0x80550000

	UncertainInitialValue Code = 0x40920000
)

var names = map[Code]string{
	Good:                          "Good",
	BadUnexpectedError:            "BadUnexpectedError",
	BadInternalError:              "BadInternalError",
	BadOutOfMemory:                "BadOutOfMemory",
	BadResourceUnavailable:        "BadResourceUnavailable",
	BadCommunicationError:         "BadCommunicationError",
	BadEncodingError:              "BadEncodingError",
	BadDecodingError:              "BadDecodingError",
	BadEncodingLimitsExceeded:     "BadEncodingLimitsExceeded",
	BadRequestTooLarge:            "BadRequestTooLarge",
	BadResponseTooLarge:           "BadResponseTooLarge",
	BadUnknownResponse:            "BadUnknownResponse",
	BadTimeout:                    "BadTimeout",
	BadServiceUnsupported:         "BadServiceUnsupported",
	BadShutdown:                   "BadShutdown",
	BadServerNotConnected:         "BadServerNotConnected",
	BadServerHalted:               "BadServerHalted",
	BadNothingToDo:                "BadNothingToDo",
	BadTooManyOperations:          "BadTooManyOperations",
	BadDataTypeIdUnknown:          "BadDataTypeIdUnknown",
	BadCertificateInvalid:         "BadCertificateInvalid",
	BadSecurityChecksFailed:       "BadSecurityChecksFailed",
	BadCertificateTimeInvalid:     "BadCertificateTimeInvalid",
	BadCertificateIssuerInvalid:   "BadCertificateIssuerInvalid",
	BadCertificateUntrusted:       "BadCertificateUntrusted",
	BadCertificateUseNotAllowed:   "BadCertificateUseNotAllowed",
	BadUserAccessDenied:           "BadUserAccessDenied",
	BadIdentityTokenInvalid:       "BadIdentityTokenInvalid",
	BadIdentityTokenRejected:      "BadIdentityTokenRejected",
	BadSecureChannelIdInvalid:     "BadSecureChannelIdInvalid",
	BadInvalidTimestamp:           "BadInvalidTimestamp",
	BadNonceInvalid:               "BadNonceInvalid",
	BadSessionIdInvalid:           "BadSessionIdInvalid",
	BadSessionClosed:              "BadSessionClosed",
	BadSessionNotActivated:        "BadSessionNotActivated",
	BadSubscriptionIdInvalid:      "BadSubscriptionIdInvalid",
	BadRequestHeaderInvalid:       "BadRequestHeaderInvalid",
	BadTimestampsToReturnInvalid:  "BadTimestampsToReturnInvalid",
	BadRequestCancelledByClient:   "BadRequestCancelledByClient",
	BadNodeIdInvalid:              "BadNodeIdInvalid",
	BadNodeIdUnknown:              "BadNodeIdUnknown",
	BadAttributeIdInvalid:         "BadAttributeIdInvalid",
	BadIndexRangeInvalid:          "BadIndexRangeInvalid",
	BadNotReadable:                "BadNotReadable",
	BadNotWritable:                "BadNotWritable",
	BadOutOfRange:                 "BadOutOfRange",
	BadNotSupported:               "BadNotSupported",
	BadNotFound:                   "BadNotFound",
	BadNotImplemented:             "BadNotImplemented",
	BadMonitoringModeInvalid:      "BadMonitoringModeInvalid",
	BadNoContinuationPoints:       "BadNoContinuationPoints",
	BadMethodInvalid:              "BadMethodInvalid",
	BadArgumentsMissing:           "BadArgumentsMissing",
	BadTooManySessions:            "BadTooManySessions",
	BadUserSignatureInvalid:       "BadUserSignatureInvalid",
	BadNoValidCertificates:        "BadNoValidCertificates",
	BadRequestCancelledByRequest:  "BadRequestCancelledByRequest",
	BadTcpServerTooBusy:           "BadTcpServerTooBusy",
	BadTcpMessageTypeInvalid:      "BadTcpMessageTypeInvalid",
	BadTcpSecureChannelUnknown:    "BadTcpSecureChannelUnknown",
	BadTcpMessageTooLarge:         "BadTcpMessageTooLarge",
	BadTcpNotEnoughResources:      "BadTcpNotEnoughResources",
	BadTcpInternalError:           "BadTcpInternalError",
	BadTcpEndpointUrlInvalid:      "BadTcpEndpointUrlInvalid",
	BadRequestInterrupted:         "BadRequestInterrupted",
	BadRequestTimeout:             "BadRequestTimeout",
	BadSecureChannelClosed:        "BadSecureChannelClosed",
	BadSecureChannelTokenUnknown:  "BadSecureChannelTokenUnknown",
	BadSequenceNumberInvalid:      "BadSequenceNumberInvalid",
	BadProtocolVersionUnsupported: "BadProtocolVersionUnsupported",
	BadSecurityModeRejected:       "BadSecurityModeRejected",
	BadSecurityPolicyRejected:     "BadSecurityPolicyRejected",
	UncertainInitialValue:         "UncertainInitialValue",
}

// IsBad reports whether c has Bad severity.
func (c Code) IsBad() bool { return c&severityMask == severityBad }

// Name returns the symbolic name of c, or the empty string if unknown.
func (c Code) Name() string { return names[c&0xFFFF0000] }

// String implements fmt.Stringer.
func (c Code) String() string {
	if n := c.Name(); n != "" {
		return n
	}
	return fmt.Sprintf("StatusCode(0x%08X)", uint32(c))
}

// Error implements the error interface so bad codes can be returned
// directly as errors by the protocol stack.
func (c Code) Error() string { return c.String() }
