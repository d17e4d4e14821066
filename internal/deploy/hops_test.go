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
	"shield5g/internal/paka"
	"shield5g/internal/simclock"
)

// usimStep is the smallest USIM charge of the UE simulator (a quarter of
// ue's usimCycles): every cycle a procedure books outside its hops is the
// UE's own work, a whole number of these.
const usimStep = 15_000

// TestProcedureHops holds each procedure's hops — the paper's Fig. 5, and
// the flows beside it, on the virtual clock — to testdata/hops.golden: one
// block per procedure × backend × SBI format, each hop's depth, kind, site
// and the cycles its account was charged across it. A refactor that adds,
// drops or reorders a hop, or moves a charge between hops, moves the
// golden; re-mint it with HOPS_UPDATE=1 only for such a deliberate change.
//
// Each slice is one replica with no AV pool, driven sequentially without
// a keep-alive connection, and each block follows a warm-up registration
// of another UE. Beside the golden it checks that:
//   - the top-level hops plus the UE's USIM steps are the booked total, to
//     the cycle, and the USIM steps are the same on every backend and
//     format (they are the only cycles charged outside a hop);
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
				booked, err := simclock.Book(recording, fn)
				if err != nil {
					t.Fatalf("%s/%s: %s: %v", b.name, format, procedure, err)
				}
				if n := hops.Overflow(); n != 0 {
					t.Fatalf("%s/%s: %s entered %d hops past capacity", b.name, format, procedure, n)
				}
				var top simclock.Cycles
				var shape, lines strings.Builder
				for _, h := range hops.Hops() {
					if h.Depth == 0 {
						top += h.Cycles
					}
					site := h.Site
					if h.Kind == simclock.Cross {
						site += " " + shapeName(hmee.Phases(h.Phases))
					}
					indent := strings.Repeat("  ", int(h.Depth))
					fmt.Fprintf(&shape, "%s%v %s\n", indent, h.Kind, site)
					fmt.Fprintf(&lines, "%-60s %10d\n", fmt.Sprintf("%s%-5v %s", indent, h.Kind, site), h.Cycles)
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
