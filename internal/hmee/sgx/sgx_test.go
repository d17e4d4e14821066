package sgx

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"shield5g/internal/hmee"
	"shield5g/internal/simclock"
)

func testPlatform(t testing.TB) *Platform {
	t.Helper()
	p, err := NewPlatform(PlatformConfig{Seed: 42})
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	return p
}

func testConfig() EnclaveConfig {
	return EnclaveConfig{
		Name:       "eudm-p-aka",
		SizeBytes:  512 << 20,
		MaxThreads: 4,
		Preheat:    true,
		TrustedFiles: []MeasuredFile{
			{Path: "/gramine/libos.so", Size: 2_500_000_000},
		},
	}
}

func build(t testing.TB, p *Platform, cfg EnclaveConfig) *Enclave {
	t.Helper()
	e, err := p.Build(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	t.Cleanup(e.Destroy)
	return e
}

func TestBuildLoadTimeNearOneMinute(t *testing.T) {
	p := testPlatform(t)
	e := build(t, p, testConfig())
	d := e.LoadDuration()
	if d < 45*time.Second || d > 75*time.Second {
		t.Fatalf("load duration = %v, want ~1 minute (Fig. 7)", d)
	}
}

func TestBuildChargesAccount(t *testing.T) {
	p := testPlatform(t)
	var acct simclock.Account
	ctx := simclock.WithAccount(context.Background(), &acct)
	e, err := p.Build(ctx, testConfig())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer e.Destroy()
	if acct.Total() != e.LoadCycles() {
		t.Fatalf("account = %d, load = %d", acct.Total(), e.LoadCycles())
	}
}

func TestBuildValidation(t *testing.T) {
	p := testPlatform(t)
	if _, err := p.Build(context.Background(), EnclaveConfig{SizeBytes: 0, MaxThreads: 4}); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := p.Build(context.Background(), EnclaveConfig{SizeBytes: 1 << 20, MaxThreads: 0}); err == nil {
		t.Fatal("zero threads accepted")
	}
}

func TestEPCExhaustion(t *testing.T) {
	p, err := NewPlatform(PlatformConfig{Seed: 1, EPCCapacityBytes: 1 << 30})
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	cfg := testConfig()
	cfg.TrustedFiles = nil
	e1, err := p.Build(context.Background(), cfg)
	if err != nil {
		t.Fatalf("first build: %v", err)
	}
	cfg2 := cfg
	cfg2.SizeBytes = 768 << 20
	if _, err := p.Build(context.Background(), cfg2); !errors.Is(err, ErrEPCExhausted) {
		t.Fatalf("second build err = %v, want ErrEPCExhausted", err)
	}
	// Destroying the first enclave releases EPC for the second.
	e1.Destroy()
	if p.EPCInUse() != 0 {
		t.Fatalf("EPCInUse after destroy = %d", p.EPCInUse())
	}
	e2, err := p.Build(context.Background(), cfg2)
	if err != nil {
		t.Fatalf("build after destroy: %v", err)
	}
	e2.Destroy()
}

func TestMeasurementDependsOnIdentity(t *testing.T) {
	p := testPlatform(t)
	a := build(t, p, testConfig())
	b := build(t, p, testConfig())
	if a.measurement != b.measurement {
		t.Fatal("identical configs produced different measurements")
	}
	cfg := testConfig()
	cfg.TrustedFiles = append(cfg.TrustedFiles, MeasuredFile{Path: "/evil.so", Size: 10})
	c := build(t, p, cfg)
	if a.measurement == c.measurement {
		t.Fatal("different trusted files produced identical measurements")
	}
}

func TestECallCountsTransitions(t *testing.T) {
	p := testPlatform(t)
	e := build(t, p, testConfig())
	before := e.Stats()
	err := e.ECall(context.Background(), 40, 80, func(th *Thread) error {
		th.Compute(100_000)
		th.OCallN(1, p.Env().Model.SyscallNative, 64, 64)
		th.OCallN(1, p.Env().Model.SyscallNative, 64, 64)
		return nil
	})
	if err != nil {
		t.Fatalf("ECall: %v", err)
	}
	d := e.Stats().Sub(before)
	if d.ECALLs != 1 || d.OCALLs != 2 {
		t.Fatalf("delta = %+v, want 1 ECALL / 2 OCALLs", d)
	}
	// Each OCALL is one EEXIT+EENTER pair; the ECALL adds one of each.
	if d.EENTER != 3 || d.EEXIT != 3 {
		t.Fatalf("delta = %+v, want 3 EENTER / 3 EEXIT", d)
	}
}

func TestECallChargesLatency(t *testing.T) {
	p := testPlatform(t)
	e := build(t, p, testConfig())
	var acct simclock.Account
	ctx := simclock.WithAccount(context.Background(), &acct)
	if err := e.ECall(ctx, 0, 0, func(th *Thread) error { return nil }); err != nil {
		t.Fatalf("ECall: %v", err)
	}
	min := p.Env().Model.EENTER + p.Env().Model.EEXIT
	if acct.Total() < min {
		t.Fatalf("charged %d cycles, want >= %d", acct.Total(), min)
	}
}

func TestECallErrorPropagates(t *testing.T) {
	p := testPlatform(t)
	e := build(t, p, testConfig())
	sentinel := errors.New("boom")
	if err := e.ECall(context.Background(), 0, 0, func(*Thread) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

func TestTCSExhaustion(t *testing.T) {
	p := testPlatform(t)
	cfg := testConfig()
	cfg.MaxThreads = 1
	e := build(t, p, cfg)
	// A nested entry now queues instead of failing outright, so bound the
	// wait with a ctx deadline to observe the exhaustion error.
	err := e.ECall(context.Background(), 0, 0, func(*Thread) error {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		return e.ECall(ctx, 0, 0, func(*Thread) error { return nil })
	})
	if !errors.Is(err, ErrTooManyThreads) {
		t.Fatalf("nested ECall err = %v, want ErrTooManyThreads", err)
	}
}

func TestResidentEntries(t *testing.T) {
	p := testPlatform(t)
	e := build(t, p, testConfig())
	before := e.Stats()
	th, err := e.EnterResident(context.Background())
	if err != nil {
		t.Fatalf("EnterResident: %v", err)
	}
	d := e.Stats().Sub(before)
	if d.EENTER != 1 || d.EEXIT != 0 {
		t.Fatalf("resident entry delta = %+v, want EENTER=1 EEXIT=0", d)
	}
	e.LeaveResident(th)
	d = e.Stats().Sub(before)
	if d.EEXIT != 1 {
		t.Fatalf("after leave delta = %+v, want EEXIT=1", d)
	}
}

func TestDestroyedEnclaveRejectsUse(t *testing.T) {
	p := testPlatform(t)
	e := build(t, p, testConfig())
	e.Destroy()
	e.Destroy() // idempotent
	if err := e.ECall(context.Background(), 0, 0, func(*Thread) error { return nil }); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("ECall after destroy = %v, want ErrDestroyed", err)
	}
	if _, err := e.EnterResident(context.Background()); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("EnterResident after destroy = %v", err)
	}
	if _, err := e.Seal([]byte("x"), nil); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("Seal after destroy = %v", err)
	}
	if _, err := e.GenerateQuote([64]byte{}); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("GenerateQuote after destroy = %v", err)
	}
}

func TestTouchPreheatAvoidsFaults(t *testing.T) {
	p := testPlatform(t)
	e := build(t, p, testConfig()) // preheat on, 512 MiB
	var acct simclock.Account
	ctx := simclock.WithAccount(context.Background(), &acct)
	if err := e.ECall(ctx, 0, 0, func(th *Thread) error {
		th.Touch(64 << 10)
		return nil
	}); err != nil {
		t.Fatalf("ECall: %v", err)
	}
	if faults := e.Stats().PageFaults; faults != 0 {
		t.Fatalf("preheated 512MiB enclave faulted %d pages", faults)
	}
}

func TestTouchDemandPagingWithoutPreheat(t *testing.T) {
	p := testPlatform(t)
	cfg := testConfig()
	cfg.Preheat = false
	e := build(t, p, cfg)
	if err := e.ECall(context.Background(), 0, 0, func(th *Thread) error {
		th.Touch(64 << 10) // 16 pages, none resident yet
		return nil
	}); err != nil {
		t.Fatalf("ECall: %v", err)
	}
	if faults := e.Stats().PageFaults; faults < 16 {
		t.Fatalf("cold enclave faulted %d pages, want >= 16", faults)
	}
}

func TestTouchOversizedEnclavePaysPressure(t *testing.T) {
	p := testPlatform(t)
	small := build(t, p, testConfig())
	cfgBig := testConfig()
	cfgBig.Name = "big"
	cfgBig.SizeBytes = 8 << 30
	big := build(t, p, cfgBig)

	touchMany := func(e *Enclave) uint64 {
		for i := 0; i < 200; i++ {
			if err := e.ECall(context.Background(), 0, 0, func(th *Thread) error {
				th.Touch(256 << 10)
				return nil
			}); err != nil {
				t.Fatalf("ECall: %v", err)
			}
		}
		return e.Stats().PageFaults
	}
	smallFaults := touchMany(small)
	bigFaults := touchMany(big)
	if bigFaults <= smallFaults {
		t.Fatalf("8GiB enclave faults (%d) not above 512MiB enclave faults (%d)", bigFaults, smallFaults)
	}
}

func TestAccrueUptimeGeneratesAEX(t *testing.T) {
	p := testPlatform(t)
	e := build(t, p, testConfig())
	before := e.Stats().AEX
	e.AccrueUptime(10 * time.Second)
	got := e.Stats().AEX - before
	// 250 Hz × 4 threads × 10 s = 10000 expected.
	if got < 9000 || got > 11000 {
		t.Fatalf("AEX after 10s uptime = %d, want ~10000", got)
	}
	if p.Env().Clock.Now() < 10*time.Second {
		t.Fatal("uptime did not advance the platform clock")
	}
}

func TestSecretsAndIntrospection(t *testing.T) {
	p := testPlatform(t)
	e := build(t, p, testConfig())
	secret := [16]byte([]byte("subscriber-key-1"))
	if err := e.ECall(context.Background(), 0, 0, func(th *Thread) error {
		th.StoreSecret("k", secret)
		var got [16]byte
		if !th.LoadSecret("k", &got) || got != secret {
			t.Error("in-enclave secret read failed")
		}
		if th.LoadSecret("missing", &got) {
			t.Error("LoadSecret invented a key")
		}
		return nil
	}); err != nil {
		t.Fatalf("ECall: %v", err)
	}

	// The attacker's view must be ciphertext, not the secret.
	dump := e.Introspect()
	view, ok := dump["k"]
	if !ok || len(dump) != 1 {
		t.Fatalf("Introspect regions = %d (k present: %v), want just k", len(dump), ok)
	}
	if bytes.Equal(view, secret[:]) || bytes.Contains(view, []byte("subscriber")) {
		t.Fatal("introspection leaked plaintext")
	}

	// Destroy flushes secrets (Key Issue 5).
	e.Destroy()
	if len(e.Introspect()) != 0 {
		t.Fatal("secret survived enclave teardown")
	}
}

func TestLoadSecretCopies(t *testing.T) {
	p := testPlatform(t)
	e := build(t, p, testConfig())
	if err := e.ECall(context.Background(), 0, 0, func(th *Thread) error {
		th.StoreSecret("k", [16]byte{1, 2, 3})
		var got, again [16]byte
		th.LoadSecret("k", &got)
		got[0] = 9
		th.LoadSecret("k", &again)
		if again[0] != 1 {
			t.Error("LoadSecret returned aliased storage")
		}
		return nil
	}); err != nil {
		t.Fatalf("ECall: %v", err)
	}
}

func TestSealUnsealRoundTrip(t *testing.T) {
	p := testPlatform(t)
	e := build(t, p, testConfig())
	blob, err := e.Seal([]byte("operator-opc"), []byte("aad"))
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	plain, err := e.Unseal(blob, []byte("aad"))
	if err != nil {
		t.Fatalf("Unseal: %v", err)
	}
	if string(plain) != "operator-opc" {
		t.Fatalf("Unseal = %q", plain)
	}
}

func TestUnsealRejectsTamperAndWrongIdentity(t *testing.T) {
	p := testPlatform(t)
	e := build(t, p, testConfig())
	blob, err := e.Seal([]byte("secret"), nil)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}

	tampered := append([]byte(nil), blob...)
	tampered[len(tampered)-1] ^= 1
	if _, err := e.Unseal(tampered, nil); !errors.Is(err, ErrUnseal) {
		t.Fatalf("tampered unseal = %v, want ErrUnseal", err)
	}
	if _, err := e.Unseal(blob[:4], nil); !errors.Is(err, ErrUnseal) {
		t.Fatalf("short unseal = %v, want ErrUnseal", err)
	}
	if _, err := e.Unseal(blob, []byte("wrong-aad")); !errors.Is(err, ErrUnseal) {
		t.Fatalf("wrong AAD unseal = %v, want ErrUnseal", err)
	}

	// A different enclave identity must not unseal.
	cfg := testConfig()
	cfg.Name = "other"
	other := build(t, p, cfg)
	if _, err := other.Unseal(blob, nil); !errors.Is(err, ErrUnseal) {
		t.Fatalf("cross-enclave unseal = %v, want ErrUnseal", err)
	}

	// Same code on a different platform must not unseal either.
	p2 := testPlatform(t)
	twin := build(t, p2, testConfig())
	if _, err := twin.Unseal(blob, nil); !errors.Is(err, ErrUnseal) {
		t.Fatalf("cross-platform unseal = %v, want ErrUnseal", err)
	}
}

// TestOCallNEqualsLoop: OCallN and OCallExitlessN at n leave the counters, the
// account and the platform clock exactly where a loop of n calls at 1
// does, for every argument shape the LibOS census uses (bring-up 32/32,
// warm-up 64/64, pre/post 16/16, in-handler 8/8, and the read and write
// shares of small and large bodies) and for the empty run.
func TestOCallNEqualsLoop(t *testing.T) {
	type outcome struct {
		stats   StatsSnapshot
		account simclock.Cycles
		clock   simclock.Cycles
	}
	run := func(call func(th *Thread)) outcome {
		p := testPlatform(t)
		e := build(t, p, testConfig())
		acct := new(simclock.Account)
		th, err := e.EnterResident(simclock.WithAccount(context.Background(), acct))
		if err != nil {
			t.Fatalf("EnterResident: %v", err)
		}
		call(th)
		return outcome{e.Stats(), acct.Total(), p.Env().Clock.Elapsed()}
	}
	untrusted := testPlatform(t).Env().Model.SyscallNative
	for _, n := range []int{0, 1, 4, 38, 43, 590} {
		for _, io := range [][2]int{{32, 32}, {64, 64}, {16, 16}, {8, 8}, {0, 101}, {76, 0}, {0, 65537}} {
			loop := run(func(th *Thread) {
				for k := 0; k < n; k++ {
					th.OCallN(1, untrusted, io[0], io[1])
				}
			})
			if once := run(func(th *Thread) { th.OCallN(n, untrusted, io[0], io[1]) }); once != loop {
				t.Errorf("OCallN(%d, out %d, in %d) = %+v, loop = %+v", n, io[0], io[1], once, loop)
			}
			loop = run(func(th *Thread) {
				for k := 0; k < n; k++ {
					th.OCallExitlessN(1, untrusted, io[0], io[1])
				}
			})
			if once := run(func(th *Thread) { th.OCallExitlessN(n, untrusted, io[0], io[1]) }); once != loop {
				t.Errorf("OCallExitlessN(%d, out %d, in %d) = %+v, loop = %+v", n, io[0], io[1], once, loop)
			}
		}
	}
}

// TestSealKeyFollowsIdentityNotObject: the AEAD each Enclave object builds
// once is keyed by platform and measurement, so two live enclaves of
// different identity cannot read each other's blobs in either direction,
// while a restarted enclave — a new object, the same identity — reads what
// its predecessor sealed.
func TestSealKeyFollowsIdentityNotObject(t *testing.T) {
	p := testPlatform(t)
	a := build(t, p, testConfig())
	cfg := testConfig()
	cfg.Name = "other"
	b := build(t, p, cfg)
	fromA, err := a.Seal([]byte("a's secret"), nil)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	fromB, err := b.Seal([]byte("b's secret"), nil)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if _, err := b.Unseal(fromA, nil); !errors.Is(err, ErrUnseal) {
		t.Fatalf("b unsealing a's blob = %v, want ErrUnseal", err)
	}
	if _, err := a.Unseal(fromB, nil); !errors.Is(err, ErrUnseal) {
		t.Fatalf("a unsealing b's blob = %v, want ErrUnseal", err)
	}

	a.Destroy()
	restarted := build(t, p, testConfig())
	if plain, err := restarted.Unseal(fromA, nil); err != nil || string(plain) != "a's secret" {
		t.Fatalf("restarted enclave unsealing its predecessor's blob = %q, %v", plain, err)
	}
}

// TestSealBackupIsOneFilePerIdentity: sealed backups live on the platform,
// one file per name under the enclave's measurement. Two live enclaves of
// one identity rewrite the same file instead of adding one each, an
// enclave of another identity sees none of them, and a restarted enclave
// of the first identity finds the file its predecessors left and opens it.
func TestSealBackupIsOneFilePerIdentity(t *testing.T) {
	p := testPlatform(t)
	a, twin := build(t, p, testConfig()), build(t, p, testConfig())
	cfg := testConfig()
	cfg.Name = "other"
	other := build(t, p, cfg)
	for _, e := range []*Enclave{a, twin} {
		if err := e.SealBackup("imsi-1", []byte("k1")); err != nil {
			t.Fatalf("SealBackup: %v", err)
		}
	}
	if err := twin.SealBackup("imsi-2", []byte("k2")); err != nil {
		t.Fatalf("SealBackup: %v", err)
	}
	if n := len(a.Backups()); n != 2 {
		t.Fatalf("identity holds %d backups, want 2 (one per name)", n)
	}
	if n := len(other.Backups()); n != 0 {
		t.Fatalf("another identity sees %d backups, want 0", n)
	}

	// Replicas file and list concurrently: every name lands once.
	var wg sync.WaitGroup
	for _, e := range []*Enclave{a, twin, a, twin} {
		wg.Add(1)
		go func(e *Enclave) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				if err := e.SealBackup(fmt.Sprintf("imsi-x%d", i), []byte("kx")); err != nil {
					t.Errorf("SealBackup: %v", err)
				}
				_ = e.Backups()
			}
		}(e)
	}
	wg.Wait()
	if n := len(twin.Backups()); n != 2+16 {
		t.Fatalf("identity holds %d backups after concurrent filing, want %d", n, 2+16)
	}

	a.Destroy()
	twin.Destroy()
	restarted := build(t, p, testConfig())
	for name, want := range map[string]string{"imsi-1": "k1", "imsi-2": "k2"} {
		blob := restarted.Backups()[name]
		if plain, err := restarted.Unseal(blob, []byte(name)); err != nil || string(plain) != want {
			t.Fatalf("restarted enclave opening %s = %q, %v", name, plain, err)
		}
		if _, err := other.Unseal(blob, []byte(name)); !errors.Is(err, ErrUnseal) {
			t.Fatalf("another identity opening %s = %v, want ErrUnseal", name, err)
		}
	}
}

// TestLoadSecretMissOpensSealedFile: a key store miss opens the platform's
// sealed file for the name, inside the enclave, and keeps the key. Any
// enclave of the identity restores it — a twin the key was never stored
// in, or the one it was evicted from — while another identity, a name with
// no file and a file that holds no key all stay misses. A key stored
// before the miss lands wins over the file's.
func TestLoadSecretMissOpensSealedFile(t *testing.T) {
	p := testPlatform(t)
	owner, twin := build(t, p, testConfig()), build(t, p, testConfig())
	cfg := testConfig()
	cfg.Name = "other"
	other := build(t, p, cfg)
	k1 := [16]byte([]byte("subscriber-key-1"))
	if err := owner.SealBackup("imsi-1", k1[:]); err != nil {
		t.Fatalf("SealBackup: %v", err)
	}
	if err := owner.SealBackup("imsi-short", []byte("k")); err != nil {
		t.Fatalf("SealBackup: %v", err)
	}
	load := func(e *Enclave, name string) ([16]byte, bool) {
		t.Helper()
		var got [16]byte
		var ok bool
		if err := e.ECall(context.Background(), 0, 0, func(th *Thread) error {
			ok = th.LoadSecret(name, &got)
			return nil
		}); err != nil {
			t.Fatalf("ECall: %v", err)
		}
		return got, ok
	}

	if got, ok := load(twin, "imsi-1"); !ok || got != k1 {
		t.Fatalf("twin's miss on imsi-1 = %x, %v; want the sealed key", got, ok)
	}
	if dump := twin.Introspect(); len(dump) != 1 || dump["imsi-1"] == nil {
		t.Fatalf("twin holds %d regions after its miss, want imsi-1 alone", len(dump))
	}
	for _, tc := range []struct {
		e    *Enclave
		name string
	}{{other, "imsi-1"}, {twin, "imsi-none"}, {twin, "imsi-short"}} {
		if got, ok := load(tc.e, tc.name); ok || got != ([16]byte{}) {
			t.Fatalf("%s miss on %s = %x, %v; want a miss", tc.e.Name(), tc.name, got, ok)
		}
	}
	if n := len(other.Introspect()); n != 0 {
		t.Fatalf("another identity holds %d regions after its miss, want 0", n)
	}
	if n := len(twin.Introspect()); n != 1 {
		t.Fatalf("twin holds %d regions after its misses, want 1", n)
	}

	// Evicted, the key comes back from the file; a key stored before the
	// miss is what the store serves.
	k2 := [16]byte([]byte("subscriber-key-2"))
	if err := twin.ECall(context.Background(), 0, 0, func(th *Thread) error {
		th.DeleteSecret("imsi-1")
		th.StoreSecret("imsi-2", k2)
		return nil
	}); err != nil {
		t.Fatalf("ECall: %v", err)
	}
	if len(twin.Introspect()) != 1 {
		t.Fatal("DeleteSecret left imsi-1 in the store")
	}
	if got, ok := load(twin, "imsi-1"); !ok || got != k1 {
		t.Fatalf("miss after eviction = %x, %v; want the sealed key", got, ok)
	}
	if got, ok := load(twin, "imsi-2"); !ok || got != k2 {
		t.Fatalf("stored key = %x, %v", got, ok)
	}
}

// TestSealIsOneAllocation: a sealed blob is the nonce, the ciphertext and
// the tag in one buffer.
func TestSealIsOneAllocation(t *testing.T) {
	e := build(t, testPlatform(t), testConfig())
	k := []byte("subscriber-key-1")
	aad := []byte("imsi-1")
	blob, err := e.Seal(k, aad)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if want := e.seal.NonceSize() + len(k) + e.seal.Overhead(); len(blob) != want {
		t.Fatalf("blob is %d bytes, want %d", len(blob), want)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = e.Seal(k, aad) }); allocs != 1 {
		t.Fatalf("Seal allocates %v times, want 1", allocs)
	}
}

// TestQuoteVerify checks the enclave's own evidence: a quote over the
// verifier's data carries the recipe's MRENCLAVE and verifies against the
// platform quoting key.
func TestQuoteVerify(t *testing.T) {
	p := testPlatform(t)
	cfg := testConfig()
	e := build(t, p, cfg)
	var data [64]byte
	copy(data[:], "tls-transcript-hash")
	q, err := e.GenerateQuote(data)
	if err != nil {
		t.Fatalf("GenerateQuote: %v", err)
	}
	if q.Measurement != e.measurement || q.Measurement != Measure(cfg) {
		t.Fatalf("quote measurement %x, want the recipe's %x", q.Measurement[:8], Measure(cfg))
	}
	if q.ReportData != data {
		t.Fatal("quote does not carry the verifier's data")
	}
	if err := q.Verify(p.QuotingPublicKey(), Measure(cfg), data); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestQuoteVerifyFailures(t *testing.T) {
	p := testPlatform(t)
	cfg := testConfig()
	e := build(t, p, cfg)
	q, err := e.GenerateQuote([64]byte{})
	if err != nil {
		t.Fatalf("GenerateQuote: %v", err)
	}

	// Another platform's quoting key.
	p2 := testPlatform(t)
	if err := q.Verify(p2.QuotingPublicKey(), Measure(cfg), [64]byte{}); !errors.Is(err, hmee.ErrEvidenceSignature) {
		t.Fatalf("wrong key verify = %v, want ErrEvidenceSignature", err)
	}

	// Tampered measurement.
	bad := q
	bad.Measurement[0] ^= 1
	if err := bad.Verify(p.QuotingPublicKey(), bad.Measurement, [64]byte{}); !errors.Is(err, hmee.ErrEvidenceSignature) {
		t.Fatalf("tampered verify = %v, want ErrEvidenceSignature", err)
	}

	// Genuine quote for another identity.
	var wrong [32]byte
	if err := q.Verify(p.QuotingPublicKey(), wrong, [64]byte{}); !errors.Is(err, hmee.ErrMeasurementMismatch) {
		t.Fatalf("mismatch verify = %v, want ErrMeasurementMismatch", err)
	}

	// A torn-down enclave produces no evidence.
	e.Destroy()
	if _, err := e.GenerateQuote([64]byte{}); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("GenerateQuote after Destroy = %v, want ErrDestroyed", err)
	}
}

func TestStatsSub(t *testing.T) {
	a := StatsSnapshot{EENTER: 10, EEXIT: 8, AEX: 100, ERESUME: 100, ECALLs: 2, OCALLs: 6, PageFaults: 1}
	b := StatsSnapshot{EENTER: 25, EEXIT: 20, AEX: 150, ERESUME: 150, ECALLs: 3, OCALLs: 18, PageFaults: 4}
	d := b.Sub(a)
	if d.EENTER != 15 || d.EEXIT != 12 || d.AEX != 50 || d.OCALLs != 12 || d.PageFaults != 3 {
		t.Fatalf("Sub = %+v", d)
	}
}

func TestConfigReturnsCopy(t *testing.T) {
	p := testPlatform(t)
	e := build(t, p, testConfig())
	cfg := e.Config()
	cfg.TrustedFiles[0].Path = "mutated"
	if e.Config().TrustedFiles[0].Path == "mutated" {
		t.Fatal("Config returned aliased trusted files")
	}
}

func TestBuildDeterministicLoadAcrossSeeds(t *testing.T) {
	// Same seed, same config: identical modelled load time.
	mk := func() simclock.Cycles {
		p, err := NewPlatform(PlatformConfig{Seed: 7})
		if err != nil {
			t.Fatalf("NewPlatform: %v", err)
		}
		e, err := p.Build(context.Background(), testConfig())
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		defer e.Destroy()
		return e.LoadCycles()
	}
	if a, b := mk(), mk(); a != b {
		t.Fatalf("same-seed load cycles differ: %d vs %d", a, b)
	}
}
