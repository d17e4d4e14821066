// Package keyissues encodes the paper's Table V: the 3GPP TR 33.848 key
// issues relevant to virtualised 5G cores, which of them 3GPP marks as
// HMEE-applicable, and the paper's extended assessment of full or partial
// HMEE mitigation — including the SGX mechanism in this repository that
// demonstrates each mitigation.
package keyissues

import (
	"fmt"
	"io"
	"sort"
)

// Coverage grades HMEE mitigation of a key issue.
type Coverage int

// Coverage levels (Table V legend).
const (
	// Full marks key issues HMEE resolves outright (✦ in the paper).
	Full Coverage = iota + 1
	// Partial marks key issues HMEE mitigates alongside additional
	// requirements (◻ in the paper).
	Partial
)

// String renders the paper's symbols as text.
func (c Coverage) String() string {
	switch c {
	case Full:
		return "full"
	case Partial:
		return "partial"
	default:
		return "none"
	}
}

// KeyIssue is one TR 33.848 key issue row.
type KeyIssue struct {
	// Number is the TR 33.848 KI identifier.
	Number int
	// Description is the KI title as listed in the paper's Table V.
	Description string
	// HMEERecommended reports whether 3GPP itself lists HMEE as a
	// solution (● rows: KIs 6, 7, 15, 25).
	HMEERecommended bool
	// Coverage is the paper's assessment.
	Coverage Coverage
	// Mechanism names the SGX property (and this repository's
	// demonstration of it) that provides the mitigation.
	Mechanism string
}

// Table returns the paper's Table V rows.
func Table() []KeyIssue {
	return []KeyIssue{
		{Number: 2, Description: "Confidentiality of sensitive data", Coverage: Full,
			Mechanism: "EPC memory encryption; sgx.Enclave secrets are ciphertext under Introspect"},
		{Number: 5, Description: "Data location and lifecycle", Coverage: Partial,
			Mechanism: "secrets flushed at teardown: Enclave.Destroy wipes in-enclave state"},
		{Number: 6, Description: "Function isolation", HMEERecommended: true, Coverage: Full,
			Mechanism: "enclave-resident P-AKA modules; memory encrypted between locations"},
		{Number: 7, Description: "Memory introspection", HMEERecommended: true, Coverage: Full,
			Mechanism: "hypervisor-view Introspect yields MEE ciphertext (examples/introspection)"},
		{Number: 11, Description: "Where are my keys and confidential data", Coverage: Partial,
			Mechanism: "sealed key storage bound to measurement (Enclave.Seal)"},
		{Number: 12, Description: "Where is my function", Coverage: Partial,
			Mechanism: "attestation-gated deployment: VerifyQuote before provisioning"},
		{Number: 13, Description: "Attestation at 3GPP function level", Coverage: Full,
			Mechanism: "hardware-rooted quotes over enclave measurement (GenerateQuote/VerifyQuote)"},
		{Number: 15, Description: "Encrypted data processing", HMEERecommended: true, Coverage: Full,
			Mechanism: "AKA executes on plaintext only inside the enclave boundary"},
		{Number: 20, Description: "3rd party hosting environments", Coverage: Partial,
			Mechanism: "confidentiality on untrusted hosts + attestation evidence for tenants"},
		{Number: 21, Description: "VM and hypervisor breakout", Coverage: Partial,
			Mechanism: "breach blast-radius limited: enclave contents stay protected"},
		{Number: 25, Description: "Container security", HMEERecommended: true, Coverage: Full,
			Mechanism: "GSC runs the unmodified container inside the enclave (gramine package)"},
		{Number: 26, Description: "Container breakout", Coverage: Partial,
			Mechanism: "escaped co-tenant cannot read or alter enclave memory"},
		{Number: 27, Description: "Secrets in NF container images", Coverage: Full,
			Mechanism: "seal secrets to measurement; unseal after attestation (examples/attestation)"},
	}
}

// Render prints the paper-style Table V.
func Render(w io.Writer) {
	rows := Table()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Number < rows[j].Number })
	fmt.Fprintf(w, "Table V: Key Issues Summary (TR 33.848)\n")
	fmt.Fprintf(w, "%-4s %-42s %-6s %-8s %s\n", "KI", "description", "3GPP", "coverage", "mechanism")
	for _, ki := range rows {
		mark := " "
		if ki.HMEERecommended {
			mark = "*"
		}
		fmt.Fprintf(w, "%-4d %-42s %-6s %-8s %s\n", ki.Number, ki.Description, mark, ki.Coverage, ki.Mechanism)
	}
	fmt.Fprintf(w, "(* = HMEE-applicable KI identified by 3GPP; coverage per the paper's assessment)\n")
}
