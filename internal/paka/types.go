package paka

import "shield5g/internal/sbi/codec"

// SBI endpoint paths exposed by the P-AKA modules.
const (
	PathUDMGenerateAV      = "/eudm-paka/v1/generate-av"
	PathUDMGenerateAVBatch = "/eudm-paka/v1/generate-av-batch"
	PathUDMResync          = "/eudm-paka/v1/resync"
	PathAUSFDeriveSE       = "/eausf-paka/v1/derive-se"
	PathAMFDeriveKAMF      = "/eamf-paka/v1/derive-kamf"
)

// UDMGenerateAVRequest asks the eUDM P-AKA module for a Home Environment
// authentication vector. The subscriber's long-term key K never crosses
// this boundary: it is provisioned into the module (sealed, when running
// in SGX) and looked up by SUPI. OPc, RAND, SQN and AMFid are the enclave
// inputs of the paper's Table I.
type UDMGenerateAVRequest struct {
	SUPI  string `json:"supi"`
	OPc   []byte `json:"opc"`   // 16 bytes
	RAND  []byte `json:"rand"`  // 16 bytes
	SQN   []byte `json:"sqn"`   // 6 bytes
	AMFID []byte `json:"amfid"` // 2 bytes (authentication management field)
	SNN   string `json:"snn"`   // serving network name for KAUSF/XRES*
}

// UDMGenerateAVResponse is the HE AV material: the enclave outputs of
// Table I, held in place (80 bytes, no backing of their own).
type UDMGenerateAVResponse struct {
	RAND     codec.Bytes16 `json:"rand"`
	AUTN     codec.Bytes16 `json:"autn"`
	XRESStar codec.Bytes16 `json:"xres_star"`
	KAUSF    codec.Bytes32 `json:"kausf"`
}

// UDMGenerateAVItem is one vector of a batch: UDMGenerateAVRequest's
// Table I inputs, with the subscriber held as the SUPI's value. It travels
// byte for byte as a UDMGenerateAVRequest of the same SUPI's text, in
// frames and in JSON; a SUPI text codec.SUPI does not accept is a decode
// error, so a malformed identity is refused before it reaches a key store.
type UDMGenerateAVItem struct {
	SUPI  codec.SUPI `json:"supi"`
	OPc   []byte     `json:"opc"`   // 16 bytes
	RAND  []byte     `json:"rand"`  // 16 bytes
	SQN   []byte     `json:"sqn"`   // 6 bytes
	AMFID []byte     `json:"amfid"` // 2 bytes
	SNN   string     `json:"snn"`
}

// UDMGenerateAVBatchRequest asks the eUDM module for several HE AVs in
// one boundary crossing — the AV precomputation pool's refill unit. Each
// item carries its own UDR-advanced SQN and fresh RAND, so the pooled
// vectors stay individually consumable in sequence-number order.
type UDMGenerateAVBatchRequest struct {
	Items []UDMGenerateAVItem `json:"items"`

	// items is the backing the eUDM's served pair keeps for the next
	// batch it decodes (see Scrub).
	items codec.Kept[UDMGenerateAVItem]
}

// UDMGenerateAVBatchResponse carries one vector per requested item, in
// request order.
type UDMGenerateAVBatchResponse struct {
	Vectors []UDMGenerateAVResponse `json:"vectors"`

	// vectors is the backing the eUDM's served pair keeps for the next
	// refill it mints (see Scrub).
	vectors codec.Kept[UDMGenerateAVResponse]
}

// UDMResyncRequest asks the eUDM module to verify an AUTS
// resynchronisation token and recover the UE's sequence number
// (TS 33.102 §6.3.5, executed inside the enclave because it uses K).
type UDMResyncRequest struct {
	SUPI codec.SUPI `json:"supi"`
	OPc  []byte     `json:"opc"`
	RAND []byte     `json:"rand"`
	AUTS []byte     `json:"auts"` // SQN_MS^AK* (6) || MAC-S (8)
}

// UDMResyncResponse returns the recovered UE sequence number.
type UDMResyncResponse struct {
	SQNMS []byte `json:"sqn_ms"` // 6 bytes
}

// AUSFDeriveSERequest asks the eAUSF P-AKA module to turn the HE AV into
// Security Edge AV material. Its three values are the eUDM's outputs, fixed-width like them.
type AUSFDeriveSERequest struct {
	RAND     codec.Bytes16 `json:"rand"`
	XRESStar codec.Bytes16 `json:"xres_star"`
	KAUSF    codec.Bytes32 `json:"kausf"`
	SNN      string        `json:"snn"`
}

// AUSFDeriveSEResponse carries HXRES* and the anchor key K_SEAF.
type AUSFDeriveSEResponse struct {
	HXRESStar codec.Bytes16 `json:"hxres_star"` // TS 33.501; the paper lists 8 bytes
	KSEAF     codec.Bytes32 `json:"kseaf"`
}

// AMFDeriveKAMFRequest asks the eAMF P-AKA module for K_AMF.
type AMFDeriveKAMFRequest struct {
	KSEAF codec.Bytes32 `json:"kseaf"`
	SUPI  string        `json:"supi"`
	ABBA  []byte        `json:"abba"`
}

// AMFDeriveKAMFResponse carries the derived K_AMF.
type AMFDeriveKAMFResponse struct {
	KAMF codec.Bytes32 `json:"kamf"`
}
