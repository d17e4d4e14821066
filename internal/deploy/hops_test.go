package deploy

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"shield5g/internal/gnb"
	"shield5g/internal/hmee"
	"shield5g/internal/hmee/sgx"
	"shield5g/internal/paka"
	"shield5g/internal/simclock"
)

// usimStep is the smallest USIM charge of the UE simulator (a quarter of
// ue's usimCycles): every cycle a procedure books outside its hops is the
// UE's own work, a whole number of these.
const usimStep = 15_000

// TestProcedureHops holds each procedure's hops — the paper's Fig. 5, and
// the flows beside it, on the virtual clock — to testdata/hops.golden: one
// block per procedure × backend × SBI format, each hop's depth, kind, site,
// the cycles its account was charged across it and the boundary events
// counted on it, in simclock.Event order (EENTER, EEXIT, ECALL, OCALL, AEX,
// EPC fault, VM exit). A refactor that adds, drops or reorders a hop, or
// moves a charge or a count between hops, moves the golden; re-mint it
// with HOPS_UPDATE=1 only for such a deliberate change.
//
// Each slice is one replica with no AV pool, driven sequentially without
// a keep-alive connection, and each block follows a warm-up registration
// of another UE. Beside the golden it checks that:
//   - the top-level hops plus the UE's USIM steps are the booked total, to
//     the cycle, and the USIM steps are the same on every backend and
//     format (they are the only cycles charged outside a hop);
//   - the top-level hops' counts are the booked counts (a USIM step
//     counts nothing), and a container counts nothing at all;
//   - the three backends of a procedure and format take the same hops,
//     at different prices (TestSameCensusDifferentPrice, run end to end).
func TestProcedureHops(t *testing.T) {
	const golden = "testdata/hops.golden"
	backends := []struct {
		name string
		cfg  SliceConfig
	}{
		{"container", SliceConfig{Isolation: paka.Container}},
		{"sgx", SliceConfig{Isolation: paka.SGX}},
		{"sgx-ring", SliceConfig{Isolation: paka.SGX, Switchless: true}},
	}
	// The USIM steps outside any hop: concealment and the AKA run a
	// usimCycles each, the GUTI request, security mode and NAS builds a
	// quarter.
	usim := map[string]simclock.Cycles{
		"SUCI attach":          9 * usimStep,
		"GUTI re-registration": 6 * usimStep,
		"SQN resync":           13 * usimStep,
		"PDU session":          1 * usimStep,
		"deregistration":       1 * usimStep,
	}

	var got bytes.Buffer
	shapes := map[string]string{} // procedure · format -> the first backend's hop shape
	for _, format := range []string{"json", "frames"} {
		for _, b := range backends {
			cfg := b.cfg
			cfg.Seed, cfg.Replicas, cfg.BinarySBI = 58, 1, format == "frames"
			s := newSliceWith(t, cfg)
			device, warm := provisionUE(t, s, "0000058001"), provisionUE(t, s, "0000058002")
			ctx := context.Background()
			var sess *gnb.Session
			record := func(procedure string, fn func(ctx context.Context) error) {
				t.Helper()
				if _, err := s.GNB.RegisterUE(ctx, warm); err != nil {
					t.Fatalf("%s/%s: warm-up before %s: %v", b.name, format, procedure, err)
				}
				var hops simclock.Hops
				recording := simclock.NewCall(ctx)
				recording.Hops = &hops
				booked, counts, err := simclock.Book(recording, fn)
				if err != nil {
					t.Fatalf("%s/%s: %s: %v", b.name, format, procedure, err)
				}
				if n := hops.Overflow(); n != 0 {
					t.Fatalf("%s/%s: %s entered %d hops past capacity", b.name, format, procedure, n)
				}
				var top simclock.Cycles
				var topCounts simclock.Counts
				var shape, lines strings.Builder
				for _, h := range hops.Hops() {
					if h.Depth == 0 {
						top += h.Cycles
						topCounts = topCounts.Add(h.Counts)
					}
					site := h.Site
					if h.Kind == simclock.Cross {
						site += " " + shapeName(hmee.Phases(h.Phases))
					}
					indent := strings.Repeat("  ", int(h.Depth))
					fmt.Fprintf(&shape, "%s%v %s\n", indent, h.Kind, site)
					fmt.Fprintf(&lines, "%-60s %10d", fmt.Sprintf("%s%-5v %s", indent, h.Kind, site), h.Cycles)
					for _, n := range h.Counts {
						fmt.Fprintf(&lines, " %4d", n)
					}
					lines.WriteByte('\n')
				}
				if topCounts != counts || (b.name == "container" && counts != simclock.Counts{}) {
					t.Errorf("%s/%s: %s counted %v; its top-level hops %v", b.name, format, procedure, counts, topCounts)
				}
				if top+usim[procedure] != booked {
					t.Errorf("%s/%s: %s booked %d cycles; its top-level hops charged %d and the UE's USIM %d",
						b.name, format, procedure, booked, top, usim[procedure])
				}
				key := procedure + " · " + format
				if first, ok := shapes[key]; !ok {
					shapes[key] = shape.String()
				} else if first != shape.String() {
					t.Errorf("%s/%s: %s takes other hops than on %s:\n%s\nwant:\n%s",
						b.name, format, procedure, backends[0].name, shape.String(), first)
				}
				fmt.Fprintf(&got, "## %s · %s · %s: %d hops, booked %d = top level %d + USIM %d\n%s\n",
					procedure, b.name, format, len(hops.Hops()), booked, top, booked-top, lines.String())
			}

			record("SUCI attach", func(ctx context.Context) (err error) {
				sess, err = s.GNB.RegisterUE(ctx, device)
				return err
			})
			record("GUTI re-registration", func(ctx context.Context) (err error) {
				sess, err = s.GNB.ReRegisterUE(ctx, device)
				return err
			})
			if err := device.SetSQN([]byte{0, 0, 0, 1, 0, 0}); err != nil {
				t.Fatal(err)
			}
			record("SQN resync", func(ctx context.Context) (err error) {
				sess, err = s.GNB.RegisterUE(ctx, device)
				return err
			})
			record("PDU session", func(ctx context.Context) error { return sess.EstablishPDUSession(ctx, 1, "internet") })
			record("deregistration", sess.Deregister)
		}
	}

	if os.Getenv("HOPS_UPDATE") != "" {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (mint with HOPS_UPDATE=1): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gotLines), len(wantLines)) {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("procedure hops moved at line %d (re-mint with HOPS_UPDATE=1 only for a deliberate change):\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("procedure hops moved: %d lines, golden has %d (re-mint with HOPS_UPDATE=1 only for a deliberate change)", len(gotLines), len(wantLines))
	}
}

// shapeName names the serve shape a crossing asked for: the phase set the
// module passed, before a warm runtime drops the warm-up and a one-shot
// request's handshake (hmee.Phases.Warm).
func shapeName(ph hmee.Phases) string {
	switch ph {
	case hmee.OneShot:
		return "one-shot"
	case hmee.Open:
		return "open"
	case hmee.Pipelined:
		return "pipelined"
	case hmee.Close:
		return "close"
	case hmee.Entry:
		return "batch"
	case 0:
		return "maintenance"
	}
	return fmt.Sprintf("phases %#x", uint8(ph))
}

// TestAttachCountsEqualModuleCounters: every boundary event is counted once,
// where it is charged, on the module's runtime and on the paying request's
// account, so a sequential SUCI attach's account counts are the delta of
// the slice's module counters across it. Under SGX, classic and ring, the
// account reads as Module.Stats does, field for field (ERESUME as AEX); a
// container counts nothing, and a confidential VM only its VM exits.
func TestAttachCountsEqualModuleCounters(t *testing.T) {
	backends := []struct {
		name string
		cfg  SliceConfig
	}{
		{"container", SliceConfig{Isolation: paka.Container}},
		{"sgx", SliceConfig{Isolation: paka.SGX}},
		{"sgx-ring", SliceConfig{Isolation: paka.SGX, Switchless: true}},
		{"sev", SliceConfig{Isolation: paka.SEV}},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			cfg := b.cfg
			cfg.Seed, cfg.Replicas = 63, 2
			s := newSliceWith(t, cfg)
			device := provisionUE(t, s, "0000063001")
			counters := func() (events simclock.Counts, stats sgx.StatsSnapshot) {
				for _, shard := range s.Shards {
					for _, m := range shard.Modules {
						events = events.Add(m.Events())
						st := m.Stats()
						stats.EENTER += st.EENTER
						stats.EEXIT += st.EEXIT
						stats.AEX += st.AEX
						stats.ERESUME += st.ERESUME
						stats.ECALLs += st.ECALLs
						stats.OCALLs += st.OCALLs
						stats.PageFaults += st.PageFaults
					}
				}
				return events, stats
			}
			eventsBefore, statsBefore := counters()
			var acct simclock.Account
			if _, err := s.GNB.RegisterUE(simclock.WithAccount(context.Background(), &acct), device); err != nil {
				t.Fatal(err)
			}
			eventsAfter, statsAfter := counters()
			got := acct.Counts()
			if d := eventsAfter.Sub(eventsBefore); got != d {
				t.Fatalf("account counted %v; the modules' counters moved by %v", got, d)
			}
			want := sgx.StatsSnapshot{
				EENTER: got[simclock.EENTER], EEXIT: got[simclock.EEXIT], AEX: got[simclock.AEX], ERESUME: got[simclock.AEX],
				ECALLs: got[simclock.ECALL], OCALLs: got[simclock.OCALL], PageFaults: got[simclock.EPCFault],
			}
			if d := statsAfter.Sub(statsBefore); d != want {
				t.Fatalf("Module.Stats moved by %+v; the account reads %+v", d, want)
			}
			vmExits := got[simclock.VMExit]
			others := got
			others[simclock.VMExit] = 0
			switch b.name {
			case "container":
				if got != (simclock.Counts{}) {
					t.Fatalf("a container counted %v", got)
				}
			case "sev":
				if others != (simclock.Counts{}) || vmExits == 0 {
					t.Fatalf("a confidential VM counted %v; want VM exits only", got)
				}
			default:
				if vmExits != 0 || got[simclock.EENTER] == 0 {
					t.Fatalf("an enclave counted %v", got)
				}
			}
			t.Logf("%s: %v", b.name, got)
		})
	}
}
