//go:build !race

package amf_test

import (
	"context"
	"encoding/binary"
	"runtime"
	"runtime/debug"
	"testing"

	"shield5g/internal/nas"
)

// TestHotPathAllocs holds four AMF procedures and one UE step to exact
// allocation counts, each with the AUSF, UDM, SMF, UPF and modules behind
// it over the JSON SBI:
//   - one GUTI re-registration of an attached UE — the AMF's NAS
//     handlers, completeAuth among them, and the UE's side of the
//     exchange;
//   - the UE's handling of one protected downlink, a RegistrationAccept:
//     deciphering it, storing the GUTI and protecting the
//     RegistrationComplete cost nothing once NAS PDUs go back to their
//     pool;
//   - the PDU session establishment of a registered UE: the SMF's create
//     and its UPF establish, two posts that read their answers;
//   - the deregistration of a UE with a PDU session: the SMF's release
//     and its UPF release, two posts that read no answer;
//   - one SQN resynchronisation round, from the UE's AuthenticationFailure
//     to the fresh challenge: AUSF, UDM and UDR resync, the last two
//     posts reading no answer.
//
// The last three count only the AMF's handling of the one uplink message.
// Every PDU is handed on once and released by its receiver.
// With the collector off no sync.Pool is emptied mid-count; pools still
// drop items at random under the race detector, so this file builds only
// without -race; make ci runs it in its no-race go test run.
func TestHotPathAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	h := newHarness(t)
	device := h.device(t)
	h.register(t, device, 1)
	reregister := func() { h.reregister(t, device, 1, false) }
	reregister()
	if n, want := testing.AllocsPerRun(100, reregister), 14.0; n != want {
		t.Errorf("GUTI re-registration: %v allocs, want %v", n, want)
	}

	uplink := func(pdu []byte) []byte {
		t.Helper()
		down, err := h.amf.HandleUplinkNAS(ctx, 1, pdu)
		if err != nil {
			t.Fatalf("HandleUplinkNAS: %v", err)
		}
		return down
	}
	answer := func(down []byte) []byte {
		t.Helper()
		up, _, err := device.HandleDownlinkNAS(ctx, down)
		if err != nil {
			t.Fatalf("UE NAS: %v", err)
		}
		return up
	}

	// The UE's handling of one protected downlink: a GUTI re-registration's
	// RegistrationAccept, which the UE answers with a protected
	// RegistrationComplete that the next round hands to the AMF.
	var accept, complete []byte
	acceptPending := func() {
		if complete != nil {
			uplink(complete)
		}
		up, err := device.BuildReRegistrationRequest(ctx, h.amf.ServingNetworkName())
		if err != nil {
			t.Fatal(err)
		}
		down, err := h.amf.HandleInitialUE(ctx, 1, up)
		if err != nil {
			t.Fatalf("HandleInitialUE: %v", err)
		}
		smc := uplink(answer(down))
		accept = uplink(answer(smc))
	}
	if n, want := allocsOf(50, acceptPending, func() { complete = answer(accept) }), uint64(0); n != want {
		t.Errorf("the UE's handling of a protected RegistrationAccept: %v allocs, want %v", n, want)
	}
	uplink(complete)

	// A registered UE's PDU session establishment: the AMF's handling of
	// the request, the SMF's create and its UPF establish. The UE address
	// is a netip.Addr from the SMF's allocation through the UPF's and the
	// AMF's decodes, so what remains is the NAS side: the request's
	// decode (2), the K_NASenc schedule expanded for the procedure, and
	// the address text the accept carries. Each round
	// hands the accept to the UE and deregisters before registering anew.
	var establish, accepted []byte
	release := func() {
		answer(accepted)
		dereg, err := device.BuildDeregistrationRequest(ctx)
		if err != nil {
			t.Fatal(err)
		}
		uplink(dereg)
	}
	registered := func() {
		if accepted != nil {
			release()
		}
		h.register(t, device, 1)
		var err error
		if establish, err = device.BuildPDUSessionRequest(ctx, 1, "internet"); err != nil {
			t.Fatal(err)
		}
	}
	if n, want := allocsOf(50, registered, func() { accepted = uplink(establish) }), uint64(4); n != want {
		t.Errorf("PDU session establishment: %v allocs, want %v", n, want)
	}
	release()

	// A registered UE with a PDU session, then its DeregistrationRequest.
	var dereg []byte
	withSession := func() {
		if _, held := h.amf.HoldsNASCipher(1); dereg != nil && held {
			t.Fatal("the deregistered UE's context is still held")
		}
		h.register(t, device, 1)
		up, err := device.BuildPDUSessionRequest(ctx, 1, "internet")
		if err != nil {
			t.Fatal(err)
		}
		answer(uplink(up))
		if dereg, err = device.BuildDeregistrationRequest(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if n, want := allocsOf(50, withSession, func() { uplink(dereg) }), uint64(1); n != want {
		t.Errorf("deregistration with a PDU session: %v allocs, want %v", n, want)
	}

	// A GUTI re-registration whose challenge the USIM finds stale (its SQN
	// is far ahead), up to the UE's AuthenticationFailure; the round after
	// the measured one finishes the registration on the fresh challenge.
	h.register(t, device, 1)
	var failure, fresh []byte
	var sqn [8]byte
	round := uint64(0)
	syncFailure := func() {
		if fresh != nil {
			if msg, err := nas.Decode(fresh); err != nil || msg.Type() != (&nas.AuthenticationRequest{}).Type() {
				t.Fatalf("AuthenticationFailure answered with %v (%v), want AuthenticationRequest", msg, err)
			}
			for down := fresh; down != nil; {
				up, done, err := device.HandleDownlinkNAS(ctx, down)
				if err != nil {
					t.Fatalf("UE NAS: %v", err)
				}
				if up == nil {
					break
				}
				if down = uplink(up); done {
					break
				}
			}
		}
		round++
		binary.BigEndian.PutUint64(sqn[:], round<<24)
		if err := device.SetSQN(sqn[2:]); err != nil {
			t.Fatal(err)
		}
		up, err := device.BuildReRegistrationRequest(ctx, h.amf.ServingNetworkName())
		if err != nil {
			t.Fatal(err)
		}
		down, err := h.amf.HandleInitialUE(ctx, 1, up)
		if err != nil {
			t.Fatalf("HandleInitialUE: %v", err)
		}
		failure = answer(down)
		if msg, err := nas.Decode(failure); err != nil || msg.Type() != (&nas.AuthenticationFailure{}).Type() {
			t.Fatalf("the UE answered a stale challenge with %v (%v), want AuthenticationFailure", msg, err)
		}
	}
	if n, want := allocsOf(50, syncFailure, func() { fresh = uplink(failure) }), uint64(19); n != want {
		t.Errorf("SQN resynchronisation round: %v allocs, want %v", n, want)
	}
}

// allocsOf is testing.AllocsPerRun for a call that needs fresh state each
// time: after one warm-up round it counts the allocations of measure over
// runs rounds, each after an uncounted prepare, and reports their mean.
func allocsOf(runs int, prepare, measure func()) uint64 {
	prepare()
	measure()
	var before, after runtime.MemStats
	var total uint64
	for range runs {
		prepare()
		runtime.ReadMemStats(&before)
		measure()
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
	}
	return total / uint64(runs)
}
