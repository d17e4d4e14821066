package sev

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"shield5g/internal/costmodel"
	"shield5g/internal/hmee"
	"shield5g/internal/sbi/codec"
	"shield5g/internal/simclock"
)

var noop = hmee.HandlerFunc(func(hmee.Exec) error { return nil })

// host is the one SEV platform the package's tests launch on.
var host = NewPlatform()

func testMachine(t *testing.T) *Machine {
	t.Helper()
	env := costmodel.NewEnv(nil, 3)
	m, err := host.Launch(context.Background(), env, Config{Name: "eudm-vm", AppImageBytes: 2_620_000_000})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	t.Cleanup(func() { m.Shutdown(context.Background()) })
	return m
}

func TestLaunchValidation(t *testing.T) {
	env := costmodel.NewEnv(nil, 3)
	if _, err := host.Launch(context.Background(), nil, Config{Name: "x"}); err == nil {
		t.Fatal("nil env accepted")
	}
	if _, err := host.Launch(context.Background(), env, Config{}); err == nil {
		t.Fatal("unnamed machine accepted")
	}
}

func TestLaunchFasterThanEnclaveBuild(t *testing.T) {
	m := testMachine(t)
	d := m.LoadDuration()
	// SEV needs no per-page EADD/EEXTEND or GSC hashing: launch is
	// seconds, not the SGX near-minute.
	if d < time.Second || d > 20*time.Second {
		t.Fatalf("load duration = %v, want a few seconds", d)
	}
}

func TestLaunchChargesAccount(t *testing.T) {
	env := costmodel.NewEnv(nil, 3)
	var acct simclock.Account
	ctx := simclock.WithAccount(context.Background(), &acct)
	m, err := host.Launch(ctx, env, Config{Name: "vm", AppImageBytes: 1})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	defer m.Shutdown(context.Background())
	if acct.Total() == 0 {
		t.Fatal("launch charged nothing")
	}
}

func TestServeRequestNoTransitionsFewVMExits(t *testing.T) {
	m := testMachine(t)
	if _, err := m.Cross(context.Background(), hmee.OneShot, 40, 80, noop); err != nil {
		t.Fatalf("warm Serve: %v", err)
	}
	before := m.VMExits()
	var acct simclock.Account
	bd, err := m.Cross(simclock.WithAccount(context.Background(), &acct), hmee.OneShot, 40, 80, hmee.HandlerFunc(func(ex hmee.Exec) error {
		ex.Compute(100_000)
		ex.Touch(4096)
		return nil
	}))
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	exits := m.VMExits() - before
	if exits != 2*Prices().ExitsPerEdge {
		t.Fatalf("VM exits per request = %d, want %d", exits, 2*Prices().ExitsPerEdge)
	}
	if bd.Functional == 0 || bd.Functional >= bd.Total || bd.Total >= acct.Total() {
		t.Fatalf("breakdown nesting violated: %+v inside %d", bd, acct.Total())
	}
}

func TestServeRequestHandlerError(t *testing.T) {
	m := testMachine(t)
	sentinel := errors.New("boom")
	if _, err := m.Cross(context.Background(), hmee.OneShot, 1, 1, hmee.HandlerFunc(func(hmee.Exec) error { return sentinel })); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestInitialRequestSlower(t *testing.T) {
	m := testMachine(t)
	serve := func() simclock.Cycles {
		var acct simclock.Account
		ctx := simclock.WithAccount(context.Background(), &acct)
		if _, err := m.Cross(ctx, hmee.OneShot, 40, 80, noop); err != nil {
			t.Fatalf("Serve: %v", err)
		}
		return acct.Total()
	}
	first := serve()
	second := serve()
	if first <= second {
		t.Fatal("initial request not slower")
	}
}

func TestTCBIncludesGuestStack(t *testing.T) {
	m := testMachine(t)
	if m.TCBBytes() <= m.cfg.AppImageBytes {
		t.Fatal("TCB does not include guest kernel/userland")
	}
}

func TestSecretsAndIntrospection(t *testing.T) {
	m := testMachine(t)
	secret := [16]byte([]byte("subscriber-key-m"))
	stored, _ := codec.ParseSUPI("imsi-1")
	missing, _ := codec.ParseSUPI("imsi-2")
	if _, err := m.Cross(context.Background(), 0, 0, 0, hmee.HandlerFunc(func(ex hmee.Exec) error {
		ex.StoreSecret(stored, secret)
		if got, ok := ex.LoadSecret(stored); !ok || got != secret {
			t.Error("in-guest read failed")
		}
		if _, ok := ex.LoadSecret(missing); ok {
			t.Error("missing secret found")
		}
		return nil
	})); err != nil {
		t.Fatalf("maintenance crossing: %v", err)
	}
	dump := m.Introspect()
	view, ok := dump["imsi-1"]
	if !ok || len(dump) != 1 {
		t.Fatalf("Introspect regions = %d (imsi-1 present: %v), want just imsi-1", len(dump), ok)
	}
	if bytes.Equal(view, secret[:]) || bytes.Contains(view, []byte("subscriber")) {
		t.Fatal("host view leaked plaintext")
	}
	m.Shutdown(context.Background())
	if len(m.Introspect()) != 0 {
		t.Fatal("secret survived teardown")
	}
}

func TestStoppedMachineRejectsUse(t *testing.T) {
	m := testMachine(t)
	m.Shutdown(context.Background())
	if _, err := m.Cross(context.Background(), hmee.OneShot, 1, 1, noop); !errors.Is(err, hmee.ErrStopped) {
		t.Fatalf("err = %v", err)
	}
	if _, err := m.Cross(context.Background(), 0, 0, 0, noop); !errors.Is(err, hmee.ErrStopped) {
		t.Fatalf("maintenance err = %v", err)
	}
	if _, err := m.GenerateReport([64]byte{}); !errors.Is(err, hmee.ErrStopped) {
		t.Fatalf("report err = %v", err)
	}
}

// TestAttestationReport checks the guest's own evidence: an SNP report over
// the verifier's data carries the launch digest and verifies against the
// platform's PSP key; a tampered report does not.
func TestAttestationReport(t *testing.T) {
	m := testMachine(t)
	var data [64]byte
	copy(data[:], "nonce")
	r, err := m.GenerateReport(data)
	if err != nil {
		t.Fatalf("GenerateReport: %v", err)
	}
	if r.Measurement != m.measurement {
		t.Fatal("report does not carry the launch digest")
	}
	if err := r.Verify(host.PublicKey(), m.measurement, data); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	r.ReportData[0] ^= 1
	if err := r.Verify(host.PublicKey(), m.measurement, r.ReportData); !errors.Is(err, hmee.ErrEvidenceSignature) {
		t.Fatalf("tampered report verify = %v, want ErrEvidenceSignature", err)
	}
	if err := r.Verify(NewPlatform().PublicKey(), m.measurement, data); !errors.Is(err, hmee.ErrEvidenceSignature) {
		t.Fatalf("another PSP's key verify = %v, want ErrEvidenceSignature", err)
	}
}

func TestMeasurementDeterministic(t *testing.T) {
	env := costmodel.NewEnv(nil, 3)
	a, err := host.Launch(context.Background(), env, Config{Name: "vm", AppImageBytes: 7})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	defer a.Shutdown(context.Background())
	b, err := host.Launch(context.Background(), env, Config{Name: "vm", AppImageBytes: 7})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	defer b.Shutdown(context.Background())
	if a.measurement != b.measurement || a.measurement != Measure(Config{Name: "vm", AppImageBytes: 7}) {
		t.Fatal("same config, different measurements")
	}
	c, err := host.Launch(context.Background(), env, Config{Name: "vm2", AppImageBytes: 7})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	defer c.Shutdown(context.Background())
	if a.measurement == c.measurement {
		t.Fatal("different config, same measurement")
	}
	if a.Name() != "vm" {
		t.Fatal("name accessor wrong")
	}
}
