// Package nas implements a compact Non-Access Stratum layer modelled on
// TS 24.501: the 5GMM registration and authentication messages exchanged
// between the UE and the AMF, a deterministic binary codec, and NAS
// security protection (integrity + ciphering) keyed from the 5G key
// hierarchy.
//
// The paper's modified AKA flow (Fig. 5) terminates NAS at the AMF; this
// package carries the RAND/AUTN challenge to the UE and the RES* response
// back, and protects post-AKA signalling with keys derived from the K_AMF
// produced inside the eAMF P-AKA enclave.
package nas

import (
	"errors"
	"fmt"

	"shield5g/internal/crypto/suci"
)

// Extended protocol discriminators (TS 24.007).
const (
	EPD5GMM byte = 0x7E // 5G mobility management
	EPD5GSM byte = 0x2E // 5G session management
)

// MessageType identifies a 5GMM message (values from TS 24.501 Table 9.7.1).
type MessageType byte

// 5GMM message types.
const (
	MsgRegistrationRequest    MessageType = 0x41
	MsgRegistrationAccept     MessageType = 0x42
	MsgRegistrationComplete   MessageType = 0x43
	MsgDeregistrationRequest  MessageType = 0x45
	MsgAuthenticationRequest  MessageType = 0x56
	MsgAuthenticationResponse MessageType = 0x57
	MsgAuthenticationReject   MessageType = 0x58
	MsgAuthenticationFailure  MessageType = 0x59
	MsgIdentityRequest        MessageType = 0x5B
	MsgIdentityResponse       MessageType = 0x5C
	MsgSecurityModeCommand    MessageType = 0x5D
	MsgSecurityModeComplete   MessageType = 0x5E
	MsgPDUSessionEstRequest   MessageType = 0xC1
	MsgPDUSessionEstAccept    MessageType = 0xC2
)

// String names the message type.
func (t MessageType) String() string {
	switch t {
	case MsgRegistrationRequest:
		return "RegistrationRequest"
	case MsgRegistrationAccept:
		return "RegistrationAccept"
	case MsgRegistrationComplete:
		return "RegistrationComplete"
	case MsgDeregistrationRequest:
		return "DeregistrationRequest"
	case MsgAuthenticationRequest:
		return "AuthenticationRequest"
	case MsgAuthenticationResponse:
		return "AuthenticationResponse"
	case MsgAuthenticationReject:
		return "AuthenticationReject"
	case MsgAuthenticationFailure:
		return "AuthenticationFailure"
	case MsgIdentityRequest:
		return "IdentityRequest"
	case MsgIdentityResponse:
		return "IdentityResponse"
	case MsgSecurityModeCommand:
		return "SecurityModeCommand"
	case MsgSecurityModeComplete:
		return "SecurityModeComplete"
	case MsgPDUSessionEstRequest:
		return "PDUSessionEstablishmentRequest"
	case MsgPDUSessionEstAccept:
		return "PDUSessionEstablishmentAccept"
	default:
		return fmt.Sprintf("MessageType(0x%02X)", byte(t))
	}
}

// 5GMM cause values (TS 24.501 §9.11.3.2).
const (
	CauseMACFailure      byte = 20
	CauseSyncFailure     byte = 21
	CauseIllegalUE       byte = 3
	CauseCongestion      byte = 22
	CauseProtectionError byte = 24
)

// Message is one NAS 5GMM message: a pointer to one of the fourteen
// message types below. Encode and SecurityContext.Protect dispatch on the
// concrete type, so they refuse any other type, and a message a caller
// builds does not escape through them.
type Message interface {
	// Type identifies the message.
	Type() MessageType
}

// RegistrationType values (TS 24.501 §9.11.3.7).
const (
	RegistrationInitial   byte = 0x01
	RegistrationMobility  byte = 0x02
	RegistrationPeriodic  byte = 0x03
	RegistrationEmergency byte = 0x04
)

// RegistrationRequest initiates UE registration; the mobile identity is a
// SUCI on first contact or a 5G-GUTI afterwards.
type RegistrationRequest struct {
	RegistrationType byte
	NgKSI            byte
	Identity         MobileIdentity
	// Capabilities advertises supported integrity/ciphering algorithms.
	Capabilities []byte
}

// Type implements Message.
func (*RegistrationRequest) Type() MessageType { return MsgRegistrationRequest }

// Validate checks the embedded identity.
func (m *RegistrationRequest) Validate() error { return m.Identity.Validate() }

// AuthenticationRequest carries the 5G-AKA challenge from the SE AV to the
// UE: the RAND and AUTN generated by the eUDM P-AKA module.
type AuthenticationRequest struct {
	NgKSI byte
	ABBA  []byte
	RAND  [16]byte
	AUTN  [16]byte
}

// Type implements Message.
func (*AuthenticationRequest) Type() MessageType { return MsgAuthenticationRequest }

// AuthenticationResponse returns the UE's RES*.
type AuthenticationResponse struct {
	ResStar [16]byte
}

// Type implements Message.
func (*AuthenticationResponse) Type() MessageType { return MsgAuthenticationResponse }

// AuthenticationFailure reports MAC or synchronisation failure; on sync
// failure AUTS carries the concealed UE sequence number for resync.
type AuthenticationFailure struct {
	Cause byte
	AUTS  []byte // 14 bytes on sync failure: SQN_MS^AK* (6) || MAC-S (8)
}

// Type implements Message.
func (*AuthenticationFailure) Type() MessageType { return MsgAuthenticationFailure }

// AuthenticationReject terminates a failed authentication.
type AuthenticationReject struct{}

// Type implements Message.
func (*AuthenticationReject) Type() MessageType { return MsgAuthenticationReject }

// IdentityRequest asks the UE for an identity (TS 24.501 §8.2.21) — the
// network's fallback when a presented 5G-GUTI has no stored context.
type IdentityRequest struct {
	// IdentityType selects the requested identity (IdentityTypeSUCI).
	IdentityType byte
}

// Type implements Message.
func (*IdentityRequest) Type() MessageType { return MsgIdentityRequest }

// IdentityResponse carries the requested identity back.
type IdentityResponse struct {
	Identity MobileIdentity
}

// Type implements Message.
func (*IdentityResponse) Type() MessageType { return MsgIdentityResponse }

// Validate checks the embedded identity.
func (m *IdentityResponse) Validate() error { return m.Identity.Validate() }

// SecurityModeCommand activates NAS security with the selected algorithms.
type SecurityModeCommand struct {
	NgKSI        byte
	IntegrityAlg byte
	CipheringAlg byte
}

// Type implements Message.
func (*SecurityModeCommand) Type() MessageType { return MsgSecurityModeCommand }

// SecurityModeComplete acknowledges NAS security activation.
type SecurityModeComplete struct{}

// Type implements Message.
func (*SecurityModeComplete) Type() MessageType { return MsgSecurityModeComplete }

// RegistrationAccept completes registration and assigns the 5G-GUTI the
// core issues for the session.
type RegistrationAccept struct {
	GUTI GUTI
}

// Type implements Message.
func (*RegistrationAccept) Type() MessageType { return MsgRegistrationAccept }

// RegistrationComplete acknowledges the assigned GUTI.
type RegistrationComplete struct{}

// Type implements Message.
func (*RegistrationComplete) Type() MessageType { return MsgRegistrationComplete }

// DeregistrationRequest releases the UE's registration.
type DeregistrationRequest struct {
	NgKSI byte
}

// Type implements Message.
func (*DeregistrationRequest) Type() MessageType { return MsgDeregistrationRequest }

// PDUSessionEstablishmentRequest asks the SMF for a data session.
type PDUSessionEstablishmentRequest struct {
	SessionID byte
	DNN       string
}

// Type implements Message.
func (*PDUSessionEstablishmentRequest) Type() MessageType { return MsgPDUSessionEstRequest }

// PDUSessionEstablishmentAccept confirms the data session anchor.
type PDUSessionEstablishmentAccept struct {
	SessionID byte
	UEAddress string
}

// Type implements Message.
func (*PDUSessionEstablishmentAccept) Type() MessageType { return MsgPDUSessionEstAccept }

// Mobile identity type discriminators (TS 24.501 §9.11.3.4).
const (
	IdentityTypeSUCI byte = 0x01
	IdentityTypeGUTI byte = 0x02
)

// MobileIdentity is a SUCI or a 5G-GUTI, as Kind says. The GUTI is held
// by value, so decoding a GUTI registration allocates nothing for it.
type MobileIdentity struct {
	// Kind is IdentityTypeSUCI or IdentityTypeGUTI; 0 means none.
	Kind byte
	SUCI *suci.SUCI
	GUTI GUTI
}

// Validate checks that the identity is a SUCI or a GUTI and that a SUCI
// is present.
func (m *MobileIdentity) Validate() error {
	switch {
	case m.Kind == IdentityTypeGUTI:
		return nil
	case m.Kind == IdentityTypeSUCI && m.SUCI != nil:
		return nil
	}
	return errors.New("nas: mobile identity must be a SUCI or a GUTI")
}

// GUTI is the 5G globally unique temporary identity (TS 23.003 §2.10).
type GUTI struct {
	MCC         string
	MNC         string
	AMFRegionID byte
	AMFSetID    uint16 // 10 bits
	AMFPointer  byte   // 6 bits
	TMSI        uint32
}

// String renders the GUTI for logs.
func (g GUTI) String() string {
	return fmt.Sprintf("5g-guti-%s%s-%02x-%03x-%02x-%08x",
		g.MCC, g.MNC, g.AMFRegionID, g.AMFSetID, g.AMFPointer, g.TMSI)
}
