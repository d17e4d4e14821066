// Package costmodel defines the cycle-cost model of the simulated testbed.
//
// The paper measures its system on a Dell PowerEdge R450 with two SGXv2
// Xeon Silver 4314 CPUs at 2.40 GHz. This package reproduces that platform
// as a set of cycle costs for the events the hardware would generate:
// enclave transitions (EENTER/EEXIT/AEX/ERESUME), EPC paging, enclave build
// (EADD+EEXTEND), trusted-file measurement, TLS record processing, and
// native syscalls. Costs are charged in virtual cycles (simclock.Cycles)
// and converted to time at the platform frequency, which makes every
// reproduced figure deterministic.
//
// Provenance of the constants is given next to each field; transition costs
// follow the 10k-18k cycles-per-round-trip range reported by the HotCalls
// and "SGX on virtualized systems" studies that the paper cites.
package costmodel

import (
	"time"

	"shield5g/internal/simclock"
)

// PageSize is the EPC page granularity in bytes.
const PageSize = 4096

// Model is the cycle-cost model for one simulated platform. Fields are set
// once at construction and read concurrently afterwards.
type Model struct {
	// FrequencyHz is the CPU clock rate used for cycle/time conversion.
	FrequencyHz uint64

	// EENTER is the cost of a synchronous enclave entry.
	// HotCalls (Weisse et al.) reports 10k-18k cycles per round trip.
	EENTER simclock.Cycles
	// EEXIT is the cost of a synchronous enclave exit.
	EEXIT simclock.Cycles
	// AEX is the cost of an asynchronous enclave exit (interrupt, fault).
	AEX simclock.Cycles
	// ERESUME is the cost of resuming the enclave after an AEX.
	ERESUME simclock.Cycles

	// EPCPageFault is the cost of one EPC paging event (moving a page
	// between EPC and main memory, sgx-perf reports ~40k cycles).
	EPCPageFault simclock.Cycles
	// EnclaveBuildPerPage is the EADD+EEXTEND cost of measuring one 4 KiB
	// page into the enclave at build time. Enclave build dominates the
	// near-minute load time in Fig. 7.
	EnclaveBuildPerPage simclock.Cycles
	// PreheatPerPage is the cost of pre-faulting one heap page when the
	// Gramine sgx.preheat_enclave option is enabled.
	PreheatPerPage simclock.Cycles
	// TrustedFileHashPerByte is the SHA-256 measurement cost of trusted
	// files appended to the manifest by GSC.
	TrustedFileHashPerByte simclock.Cycles

	// SyscallNative is the cost of a syscall outside any enclave.
	SyscallNative simclock.Cycles
	// ShieldPerByte is the cost of copying and shielding (encrypt or
	// integrity-check) one byte crossing the enclave boundary.
	ShieldPerByte simclock.Cycles
	// CopyPerByte is the plain memcpy cost per byte outside enclaves.
	CopyPerByte simclock.Cycles

	// TLSHandshakeClient and TLSHandshakeServer cost one side of a mutual
	// TLS 1.3 handshake (asymmetric crypto dominated).
	TLSHandshakeClient simclock.Cycles
	TLSHandshakeServer simclock.Cycles
	// TLSRecordBase and TLSRecordPerByte cost symmetric record protection.
	TLSRecordBase    simclock.Cycles
	TLSRecordPerByte simclock.Cycles

	// HTTPParseBase and HTTPPerByte cost HTTP/1.1 framing and JSON codec
	// work per message.
	HTTPParseBase simclock.Cycles
	HTTPPerByte   simclock.Cycles

	// LoopbackRTT is the kernel round-trip between co-located containers
	// on the Docker bridge: veth pair traversal, bridge forwarding,
	// conntrack and the TCP stack on both ends (~420 µs at 2.4 GHz,
	// matching the paper's ~400-600 µs container-mode response times).
	LoopbackRTT simclock.Cycles

	// AEXRatePerThreadHz is the rate of asynchronous exits per
	// enclave-resident thread (timer interrupts at the kernel tick rate).
	AEXRatePerThreadHz float64

	// SwitchlessPollCycles is the cost of one empty dispatcher poll of the
	// switchless submission ring: a cache-line load of the next slot's
	// sequence word plus the loop overhead. HotCalls (Weisse et al.)
	// measures the responder's spin iteration at well under a microsecond;
	// ~200 cycles models one cross-core cache-line probe.
	SwitchlessPollCycles simclock.Cycles
	// SwitchlessEnqueueCycles is the producer-side cost of one switchless
	// submission: the tail CAS, the argument store, and the slot publish
	// (HotCalls reports the whole shared-memory call at ~600 cycles vs
	// ~17k for an ECALL round trip).
	SwitchlessEnqueueCycles simclock.Cycles
	// SwitchlessDoorbellCycles is the untrusted-side overhead of waking a
	// parked dispatcher — futex syscall and scheduler handoff — charged on
	// top of the ECALL round trip the wake itself pays.
	SwitchlessDoorbellCycles simclock.Cycles
	// SwitchlessSpinPolls is the dispatcher's spin budget: after this many
	// consecutive empty polls it parks and waits for a doorbell. The
	// budget is virtual-deterministic — SpinPolls x PollCycles on the
	// arrival axis — never a wall timer.
	SwitchlessSpinPolls int
}

// Default returns the cost model of the paper's testbed.
func Default() *Model {
	return &Model{
		FrequencyHz: simclock.DefaultFrequencyHz,

		EENTER:  8_800,
		EEXIT:   8_400,
		AEX:     12_000,
		ERESUME: 8_000,

		EPCPageFault:           40_000,
		EnclaveBuildPerPage:    680_000,
		PreheatPerPage:         40_000,
		TrustedFileHashPerByte: 16,

		SyscallNative: 1_400,
		ShieldPerByte: 6,
		CopyPerByte:   1,

		TLSHandshakeClient: 720_000,
		TLSHandshakeServer: 960_000,
		TLSRecordBase:      2_400,
		TLSRecordPerByte:   3,

		HTTPParseBase: 12_000,
		HTTPPerByte:   40,

		LoopbackRTT: 1_000_000,

		AEXRatePerThreadHz: 250,

		SwitchlessPollCycles:     200,
		SwitchlessEnqueueCycles:  600,
		SwitchlessDoorbellCycles: 1_500,
		SwitchlessSpinPolls:      4_096,
	}
}

// Duration converts cycles to time at the model's frequency.
func (m *Model) Duration(n simclock.Cycles) time.Duration {
	return simclock.Duration(n, m.FrequencyHz)
}

// OCALLRoundTrip is the transition cost of one OCALL: the thread leaves the
// enclave (EEXIT), the untrusted runtime serves the call, and the thread
// re-enters (EENTER).
func (m *Model) OCALLRoundTrip() simclock.Cycles { return m.EEXIT + m.EENTER }

// ECALLRoundTrip is the transition cost of one ECALL: entry plus the exit
// when the call returns.
func (m *Model) ECALLRoundTrip() simclock.Cycles { return m.EENTER + m.EEXIT }

// AEXRoundTrip is the cost of one asynchronous exit plus its ERESUME.
func (m *Model) AEXRoundTrip() simclock.Cycles { return m.AEX + m.ERESUME }

// ShieldCost is the boundary cost of moving n bytes into or out of the
// enclave, including copy and cryptographic shielding.
func (m *Model) ShieldCost(n int) simclock.Cycles {
	if n < 0 {
		n = 0
	}
	return simclock.Cycles(n) * m.ShieldPerByte
}

// TLSRecordCost is the symmetric protection cost of an n-byte TLS record.
func (m *Model) TLSRecordCost(n int) simclock.Cycles {
	if n < 0 {
		n = 0
	}
	return m.TLSRecordBase + simclock.Cycles(n)*m.TLSRecordPerByte
}

// HTTPCost is the framing and codec cost of an n-byte HTTP message.
func (m *Model) HTTPCost(n int) simclock.Cycles {
	if n < 0 {
		n = 0
	}
	return m.HTTPParseBase + simclock.Cycles(n)*m.HTTPPerByte
}

// SwitchlessSpinBudget is the virtual time a dispatcher spins on an empty
// ring before parking: SpinPolls consecutive empty polls.
func (m *Model) SwitchlessSpinBudget() simclock.Cycles {
	return simclock.Cycles(m.SwitchlessSpinPolls) * m.SwitchlessPollCycles
}

// PagesFor reports the number of whole EPC pages covering n bytes.
func PagesFor(n uint64) uint64 {
	return (n + PageSize - 1) / PageSize
}
