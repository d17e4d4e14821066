package gramine

import (
	"context"
	"testing"

	"shield5g/internal/hmee"
	"shield5g/internal/hmee/sgx"
	"shield5g/internal/simclock"
)

func TestManifestExitlessNeedsExtraThread(t *testing.T) {
	m := DefaultManifest("/app/bin")
	m.Exitless = true
	if err := m.Validate(); err == nil {
		t.Fatal("exitless with 4 threads accepted")
	}
	m.MaxThreads = 5
	if err := m.Validate(); err != nil {
		t.Fatalf("exitless with 5 threads rejected: %v", err)
	}
}

func TestUserTCPSyscallProfileSmaller(t *testing.T) {
	if syscalls(hmee.UserTCPSyscallProfile()) >= syscalls(hmee.DefaultSyscallProfile())/3 {
		t.Fatal("user TCP profile not substantially smaller")
	}
}

func launchWith(t *testing.T, manifest *Manifest, opts ...LaunchOption) *Instance {
	t.Helper()
	p, err := sgx.NewPlatform(sgx.PlatformConfig{Seed: 9})
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	si, err := BuildShielded(testImage(), manifest, testSignKey(t))
	if err != nil {
		t.Fatalf("BuildShielded: %v", err)
	}
	inst, err := Launch(context.Background(), p, si, opts...)
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	t.Cleanup(inst.Shutdown)
	return inst
}

func TestExitlessInstanceServesWithoutTransitions(t *testing.T) {
	m := DefaultManifest("/app/eudm-aka")
	m.Exitless = true
	m.MaxThreads = 5
	inst := launchWith(t, m)
	if !inst.exitless {
		t.Fatal("instance not exitless")
	}

	// Warm up, then measure one request's transition delta.
	if _, err := inst.Cross(context.Background(), hmee.OneShot, 40, 80, noop); err != nil {
		t.Fatalf("warm one-shot: %v", err)
	}
	before := inst.Stats()
	if _, err := inst.Cross(context.Background(), hmee.OneShot, 40, 80, noop); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	d := inst.Stats().Sub(before)
	if d.EENTER != 0 || d.EEXIT != 0 {
		t.Fatalf("exitless request transitions = %d/%d", d.EENTER, d.EEXIT)
	}
	if d.OCALLs < 80 {
		t.Fatalf("exitless OCALLs = %d, want ~90", d.OCALLs)
	}
}

func TestWithSyscallProfileOverride(t *testing.T) {
	inst := launchWith(t, DefaultManifest("/app/eudm-aka"), WithSyscallProfile(hmee.UserTCPSyscallProfile()))
	if _, err := inst.Cross(context.Background(), hmee.OneShot, 40, 80, noop); err != nil {
		t.Fatalf("warm one-shot: %v", err)
	}
	before := inst.Stats()
	var acct simclock.Account
	if _, err := inst.Cross(simclock.WithAccount(context.Background(), &acct), hmee.OneShot, 40, 80,
		noop); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	d := inst.Stats().Sub(before)
	if d.OCALLs > uint64(syscalls(hmee.UserTCPSyscallProfile())+4) {
		t.Fatalf("OCALLs = %d, want <= %d", d.OCALLs, syscalls(hmee.UserTCPSyscallProfile())+4)
	}
}

func TestTCBBytesCountsTrustedFiles(t *testing.T) {
	inst := launchWith(t, DefaultManifest("/app/eudm-aka"))
	tcb := inst.TCBBytes()
	// The test image has 2.5 GB of measurable files.
	if tcb < 2_000_000_000 || tcb > 3_000_000_000 {
		t.Fatalf("TCBBytes = %d", tcb)
	}
}

func BenchmarkServeRequest(b *testing.B) {
	p, err := sgx.NewPlatform(sgx.PlatformConfig{Seed: 9})
	if err != nil {
		b.Fatalf("NewPlatform: %v", err)
	}
	priv := testSignKey(b)
	si, err := BuildShielded(ContainerImage{
		Name:  "bench:latest",
		Files: []ImageFile{{Path: "/app/bin", Size: 1_000_000}},
	}, DefaultManifest("/app/bin"), priv)
	if err != nil {
		b.Fatalf("BuildShielded: %v", err)
	}
	inst, err := Launch(context.Background(), p, si)
	if err != nil {
		b.Fatalf("Launch: %v", err)
	}
	defer inst.Shutdown()
	if _, err := inst.Cross(context.Background(), hmee.OneShot, 40, 80, noop); err != nil {
		b.Fatalf("warm: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Cross(context.Background(), hmee.OneShot, 40, 80, compute(100_000)); err != nil {
			b.Fatal(err)
		}
	}
}

// syscalls sums a profile's phases: the syscalls one served request issues.
func syscalls(sp hmee.SyscallProfile) int {
	return sp.Pre + sp.Read + sp.InHandler + sp.Write + sp.Post
}
