package gramine

import (
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"strings"
	"testing"
	"time"

	"shield5g/internal/hmee"
	"shield5g/internal/hmee/sgx"
	"shield5g/internal/simclock"
)

func testSignKey(t testing.TB) ed25519.PrivateKey {
	t.Helper()
	_, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	return priv
}

func testImage() ContainerImage {
	return ContainerImage{
		Name: "eudm-p-aka:v1.5.0",
		Files: []ImageFile{
			{Path: "/usr/lib/libssl.so", Size: 1_200_000_000},
			{Path: "/usr/lib/libpistache.so", Size: 800_000_000},
			{Path: "/app/eudm-aka", Size: 500_000_000},
			{Path: "/boot/vmlinuz", Size: 10_000_000},
			{Path: "/dev/null", Size: 0},
			{Path: "/proc/cpuinfo", Size: 1},
			{Path: "/sys/devices", Size: 1},
			{Path: "/etc/mtab", Size: 1},
		},
	}
}

func testShielded(t testing.TB) *ShieldedImage {
	t.Helper()
	si, err := BuildShielded(testImage(), DefaultManifest("/app/eudm-aka"), testSignKey(t))
	if err != nil {
		t.Fatalf("BuildShielded: %v", err)
	}
	return si
}

func testPlatform(t testing.TB) *sgx.Platform {
	t.Helper()
	p, err := sgx.NewPlatform(sgx.PlatformConfig{Seed: 7})
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	return p
}

func TestManifestValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Manifest)
		wantErr error
	}{
		{"valid default", func(*Manifest) {}, nil},
		{"no entrypoint", func(m *Manifest) { m.Entrypoint = " " }, ErrNoEntrypoint},
		{"zero size", func(m *Manifest) { m.EnclaveSizeBytes = 0 }, ErrEnclaveSize},
		{"non power of two", func(m *Manifest) { m.EnclaveSizeBytes = 3 << 20 }, ErrEnclaveSize},
		{"too few threads", func(m *Manifest) { m.MaxThreads = 3 }, ErrTooFewThreads},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := DefaultManifest("/app/bin")
			tt.mutate(m)
			err := m.Validate()
			if tt.wantErr == nil && err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if tt.wantErr != nil && !errors.Is(err, tt.wantErr) {
				t.Fatalf("Validate = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestManifestTrustedFileEmptyURI(t *testing.T) {
	m := DefaultManifest("/app/bin")
	m.TrustedFiles = []TrustedFile{{URI: "", Size: 1}}
	if err := m.Validate(); err == nil {
		t.Fatal("empty trusted file URI accepted")
	}
}

// TestParseManifestRejectsInvalid holds that a manifest without an
// entrypoint is refused where the toolchain takes it in: BuildShielded
// validates before it measures or signs anything.
func TestParseManifestRejectsInvalid(t *testing.T) {
	m := DefaultManifest("/app/bin")
	m.Entrypoint = ""
	if _, err := BuildShielded(testImage(), m, testSignKey(t)); !errors.Is(err, ErrNoEntrypoint) {
		t.Fatalf("invalid manifest: err = %v, want %v", err, ErrNoEntrypoint)
	}
}

func TestBuildShieldedAppendsTrustedFilesExcludingPlatformDirs(t *testing.T) {
	si := testShielded(t)
	var uris []string
	for _, f := range si.Manifest.TrustedFiles {
		uris = append(uris, f.URI)
	}
	joined := strings.Join(uris, "\n")
	for _, want := range []string{"file:/usr/lib/libssl.so", "file:/app/eudm-aka"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trusted files missing %s", want)
		}
	}
	for _, banned := range []string{"/boot/", "/dev/", "/proc/", "/sys/", "/etc/mtab"} {
		if strings.Contains(joined, banned) {
			t.Errorf("trusted files include excluded path %s", banned)
		}
	}
}

func TestBuildShieldedValidation(t *testing.T) {
	key := testSignKey(t)
	if _, err := BuildShielded(testImage(), nil, key); err == nil {
		t.Fatal("nil manifest accepted")
	}
	bad := DefaultManifest("/app/bin")
	bad.MaxThreads = 1
	if _, err := BuildShielded(testImage(), bad, key); !errors.Is(err, ErrTooFewThreads) {
		t.Fatalf("invalid manifest: err = %v, want %v", err, ErrTooFewThreads)
	}
	if _, err := BuildShielded(testImage(), DefaultManifest("/app/bin"), key[:10]); err == nil {
		t.Fatal("short key accepted")
	}
	img := testImage()
	img.Name = ""
	if _, err := BuildShielded(img, DefaultManifest("/app/bin"), key); err == nil {
		t.Fatal("unnamed image accepted")
	}
}

func TestShieldedImageVerifyDetectsTamper(t *testing.T) {
	si := testShielded(t)
	if err := si.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	si.Manifest.TrustedFiles[0].Size++
	if err := si.Verify(); err == nil {
		t.Fatal("tampered image verified")
	}
}

func TestShieldedImageEnclaveConfig(t *testing.T) {
	si := testShielded(t)
	cfg := si.EnclaveConfig()
	if cfg.SizeBytes != 512<<20 || cfg.MaxThreads != 4 || !cfg.Preheat {
		t.Fatalf("EnclaveConfig = %+v", cfg)
	}
	if cfg.Name != "eudm-p-aka:v1.5.0" {
		t.Fatalf("Name = %q", cfg.Name)
	}
	if len(cfg.TrustedFiles) != len(si.Manifest.TrustedFiles) {
		t.Fatal("trusted files not mapped")
	}
}

func TestLaunchAndLoadDuration(t *testing.T) {
	p := testPlatform(t)
	inst, err := Launch(context.Background(), p, testShielded(t))
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	defer inst.Shutdown()
	if d := inst.LoadDuration(); d < 45*time.Second || d > 75*time.Second {
		t.Fatalf("load duration = %v, want ~1 minute", d)
	}
	if inst.Warm() {
		t.Fatal("instance warm before first request")
	}
}

func TestLaunchRejectsTamperedImage(t *testing.T) {
	p := testPlatform(t)
	si := testShielded(t)
	si.Signature[0] ^= 1
	if _, err := Launch(context.Background(), p, si); err == nil {
		t.Fatal("tampered image launched")
	}
	if _, err := Launch(context.Background(), nil, si); err == nil {
		t.Fatal("nil platform accepted")
	}
}

func TestServeRequestTransitionBudget(t *testing.T) {
	p := testPlatform(t)
	inst, err := Launch(context.Background(), p, testShielded(t))
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	defer inst.Shutdown()

	serve := func() sgx.StatsSnapshot {
		before := inst.Stats()
		var acct simclock.Account
		ctx := simclock.WithAccount(context.Background(), &acct)
		if _, err := inst.Cross(ctx, hmee.OneShot, 40, 80, compute(100_000)); err != nil {
			t.Fatalf("Serve: %v", err)
		}
		return inst.Stats().Sub(before)
	}

	serve() // warm up
	d := serve()
	// The paper measures ~90 EENTER/EEXIT per registration per module.
	if d.EENTER < 85 || d.EENTER > 97 {
		t.Fatalf("EENTER per request = %d, want ~90", d.EENTER)
	}
	if d.EEXIT < 85 || d.EEXIT > 97 {
		t.Fatalf("EEXIT per request = %d, want ~90", d.EEXIT)
	}
	if d.EENTER != d.EEXIT {
		t.Fatalf("steady-state EENTER (%d) != EEXIT (%d)", d.EENTER, d.EEXIT)
	}
}

func TestServeRequestBreakdownOrdering(t *testing.T) {
	p := testPlatform(t)
	inst, err := Launch(context.Background(), p, testShielded(t))
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	defer inst.Shutdown()

	var warm simclock.Account
	if _, err := inst.Cross(simclock.WithAccount(context.Background(), &warm), hmee.OneShot, 40, 80,
		noop); err != nil {
		t.Fatalf("warmup: %v", err)
	}

	var acct simclock.Account
	bd, err := inst.Cross(simclock.WithAccount(context.Background(), &acct), hmee.OneShot, 40, 80, compute(100_000))
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if bd.Functional == 0 || bd.Total == 0 || bd.ServerSide == 0 {
		t.Fatalf("zero windows: %+v", bd)
	}
	if bd.Functional >= bd.Total || bd.Total >= bd.ServerSide {
		t.Fatalf("window nesting violated: %+v", bd)
	}
	if bd.ServerSide != acct.Total() {
		t.Fatalf("ServerSide (%d) != account total (%d)", bd.ServerSide, acct.Total())
	}
}

func TestServeRequestInitialMuchSlower(t *testing.T) {
	p := testPlatform(t)
	inst, err := Launch(context.Background(), p, testShielded(t))
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	defer inst.Shutdown()

	serve := func() simclock.Cycles {
		var acct simclock.Account
		bd, err := inst.Cross(simclock.WithAccount(context.Background(), &acct), hmee.OneShot, 40, 80,
			compute(100_000))
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
		return bd.ServerSide
	}
	initial := serve()
	stable := serve()
	// Fig. 10: initial response ≈ 20× stable. Server-side alone must be
	// at least an order of magnitude apart.
	if initial < 10*stable {
		t.Fatalf("initial (%d cycles) not >= 10x stable (%d cycles)", initial, stable)
	}
	if !inst.Warm() {
		t.Fatal("instance not warm after first request")
	}
}

func TestServeRequestHandlerError(t *testing.T) {
	p := testPlatform(t)
	inst, err := Launch(context.Background(), p, testShielded(t))
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	defer inst.Shutdown()
	sentinel := errors.New("handler failed")
	if _, err := inst.Cross(context.Background(), hmee.OneShot, 1, 1, hmee.HandlerFunc(func(hmee.Exec) error { return sentinel })); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

func TestShutdownIdempotentAndRejectsServe(t *testing.T) {
	p := testPlatform(t)
	inst, err := Launch(context.Background(), p, testShielded(t))
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	inst.Shutdown()
	inst.Shutdown()
	if _, err := inst.Cross(context.Background(), hmee.OneShot, 1, 1, noop); !errors.Is(err, hmee.ErrStopped) {
		t.Fatalf("ServeRequest after shutdown = %v, want hmee.ErrStopped", err)
	}
	if p.EPCInUse() != 0 {
		t.Fatalf("EPC not released: %d", p.EPCInUse())
	}
}

func TestTableIIIShapeEmptyVsServer(t *testing.T) {
	// The GSC empty-workload baseline must sit near the paper's
	// 762 EENTER / 680 EEXIT, and a served module near 1500/1410 after
	// one registration.
	p := testPlatform(t)
	inst, err := Launch(context.Background(), p, testShielded(t))
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	defer inst.Shutdown()

	s := inst.Stats()
	// Build(762) + 4 resident entries + server init.
	wantEnter := uint64(762 + 4 + serverInitOCALLs)
	if s.EENTER != wantEnter {
		t.Fatalf("post-launch EENTER = %d, want %d", s.EENTER, wantEnter)
	}
	if s.EEXIT != uint64(680+serverInitOCALLs) {
		t.Fatalf("post-launch EEXIT = %d", s.EEXIT)
	}

	for i := 0; i < 1; i++ {
		if _, err := inst.Cross(context.Background(), hmee.OneShot, 40, 80, noop); err != nil {
			t.Fatalf("Serve: %v", err)
		}
	}
	s = inst.Stats()
	// One UE: launch + warmup + ~90 request OCALLs ≈ paper's 1508.
	if s.EENTER < 1450 || s.EENTER > 1560 {
		t.Fatalf("1-UE EENTER = %d, want ~1508 (Table III)", s.EENTER)
	}
	if s.EEXIT < 1360 || s.EEXIT > 1470 {
		t.Fatalf("1-UE EEXIT = %d, want ~1414 (Table III)", s.EEXIT)
	}
	if s.EENTER <= s.EEXIT {
		t.Fatal("EENTER must exceed EEXIT (resident one-way entries)")
	}
}

func TestAccrueUptime(t *testing.T) {
	p := testPlatform(t)
	inst, err := Launch(context.Background(), p, testShielded(t))
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	defer inst.Shutdown()
	before := inst.Stats().AEX
	inst.AccrueUptime(140 * time.Second)
	got := inst.Stats().AEX - before
	// 250 Hz × 4 threads × 140 s = 140000, the Table III AEX population.
	if got < 130_000 || got > 150_000 {
		t.Fatalf("AEX after 140s = %d, want ~140000", got)
	}
}
