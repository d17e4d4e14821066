package shield5g_test

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"strings"
	"testing"

	"shield5g"
	"shield5g/internal/gnb"
	"shield5g/internal/ue"
)

// TestPublicAPIEndToEnd exercises the documented quick-start path through
// the root package only.
func TestPublicAPIEndToEnd(t *testing.T) {
	ctx := context.Background()
	tb, err := shield5g.NewTestbed(ctx, shield5g.SliceConfig{
		Isolation: shield5g.SGX,
		MCC:       "001", MNC: "01",
		Seed: 77,
	})
	if err != nil {
		t.Fatalf("NewTestbed: %v", err)
	}
	defer tb.Close()

	sub, err := tb.AddSubscriber(ctx, bytes.Repeat([]byte{0x12}, 16), nil)
	if err != nil {
		t.Fatalf("AddSubscriber: %v", err)
	}
	sess, err := tb.Register(ctx, sub)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := sess.EstablishPDUSession(ctx, 1, "internet"); err != nil {
		t.Fatalf("EstablishPDUSession: %v", err)
	}
	echo, err := sess.SendData(ctx, []byte("api-test"))
	if err != nil {
		t.Fatalf("SendData: %v", err)
	}
	if !bytes.Contains(echo, []byte("api-test")) {
		t.Fatalf("echo = %q", echo)
	}
}

// TestTestbedLifecycle: subscribers get the slice's PLMN and distinct
// identities, and register end to end.
func TestTestbedLifecycle(t *testing.T) {
	ctx := context.Background()
	tb, err := shield5g.NewTestbed(ctx, shield5g.SliceConfig{Isolation: shield5g.SGX, Seed: 21})
	if err != nil {
		t.Fatalf("NewTestbed: %v", err)
	}
	defer tb.Close()

	k := bytes.Repeat([]byte{0x33}, 16)
	sub, err := tb.AddSubscriber(ctx, k, nil)
	if err != nil {
		t.Fatalf("AddSubscriber: %v", err)
	}
	if sub.SUPI.MCC != "001" || sub.SUPI.MNC != "01" {
		t.Fatalf("SUPI = %+v", sub.SUPI)
	}
	sess, err := tb.Register(ctx, sub)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if sess.SetupTime <= 0 {
		t.Fatal("no setup time")
	}

	// Distinct subscribers get distinct identities.
	sub2, err := tb.AddSubscriber(ctx, k, nil)
	if err != nil {
		t.Fatalf("AddSubscriber: %v", err)
	}
	if sub2.SUPI == sub.SUPI {
		t.Fatal("duplicate SUPI")
	}
}

func TestAddSubscriberValidation(t *testing.T) {
	ctx := context.Background()
	tb, err := shield5g.NewTestbed(ctx, shield5g.SliceConfig{Isolation: shield5g.Container, Seed: 21})
	if err != nil {
		t.Fatalf("NewTestbed: %v", err)
	}
	defer tb.Close()
	if _, err := tb.AddSubscriber(ctx, []byte("short"), nil); err == nil {
		t.Fatal("short key accepted")
	}
}

func TestAddSubscriberWithProfile(t *testing.T) {
	ctx := context.Background()
	tb, err := shield5g.NewTestbed(ctx, shield5g.SliceConfig{Isolation: shield5g.Container, Seed: 21})
	if err != nil {
		t.Fatalf("NewTestbed: %v", err)
	}
	defer tb.Close()
	profile := ue.OnePlus8()
	sub, err := tb.AddSubscriber(ctx, bytes.Repeat([]byte{0x44}, 16), &profile)
	if err != nil {
		t.Fatalf("AddSubscriber: %v", err)
	}
	if err := sub.UE.DetectNetwork("99999"); err == nil {
		t.Fatal("COTS profile not applied")
	}
}

func TestPublicExperimentList(t *testing.T) {
	names := shield5g.Experiments()
	if len(names) != 18 {
		t.Fatalf("experiments = %v", names)
	}
	exp, err := shield5g.LookupExperiment("table1")
	if err != nil {
		t.Fatalf("LookupExperiment: %v", err)
	}
	result, err := exp.Run(context.Background(), shield5g.ExperimentConfig{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var buf bytes.Buffer
	result.Render(&buf)
	if !strings.Contains(buf.String(), "Table I") {
		t.Fatal("table1 output missing")
	}
}

// TestPublicProfilesAndRadios checks that the paper's radio and device
// profiles travel through the facade's alias types.
func TestPublicProfilesAndRadios(t *testing.T) {
	var radio shield5g.RadioProfile = gnb.USRPX310()
	if cfg := (shield5g.SliceConfig{Radio: radio}); cfg.Radio.Name != "usrp-x310" {
		t.Fatal("radio profiles wrong")
	}
	var p shield5g.COTSProfile = ue.OnePlus8()
	if p.Model != "OnePlus 8" {
		t.Fatalf("profile = %+v", p)
	}
	if shield5g.Container.String() != "container" || shield5g.SGX.String() != "sgx" || shield5g.SEV.String() != "sev" {
		t.Fatal("isolation names wrong")
	}
}

// TestPublicAttestationSurface checks the sealing/attestation re-exports.
func TestPublicAttestationSurface(t *testing.T) {
	ctx := context.Background()
	tb, err := shield5g.NewTestbed(ctx, shield5g.SliceConfig{Isolation: shield5g.SGX, Seed: 78})
	if err != nil {
		t.Fatalf("NewTestbed: %v", err)
	}
	defer tb.Close()

	enclave := tb.Slice.Modules[shield5g.EUDM].Enclave()
	var ev shield5g.Evidence
	ev, err = enclave.GenerateQuote([64]byte{1})
	if err != nil {
		t.Fatalf("GenerateQuote: %v", err)
	}
	if err := ev.Verify(tb.Slice.Platform.QuotingPublicKey(), tb.Slice.Reference(shield5g.EUDM), [64]byte{1}); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// TestBenchModuleVets type-checks bench/, the benchmark every PR is judged
// on. It is its own module, so the tier-1 `go build ./... && go test ./...`
// never compiles it, and a renamed or deleted export would break it unseen
// until `make ci`. bench/go.mod requires only this module through a
// `replace ../`, so the check needs no network.
func TestBenchModuleVets(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain on PATH")
	}
	cmd := exec.Command("go", "vet", ".")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOPROXY=off", "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in bench/: %v\n%s", err, out)
	}
}
