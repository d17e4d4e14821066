package paka

import (
	"context"
	"testing"

	"shield5g/internal/costmodel"
	"shield5g/internal/hmee/sgx"
	"shield5g/internal/sbi"
	"shield5g/internal/simclock"
)

// deployVariant builds an eUDM module with optimization flags.
func deployVariant(t *testing.T, seed uint64, exitless, userTCP bool) (*Module, *sbi.Client, *costmodel.Env) {
	t.Helper()
	env := costmodel.NewEnv(nil, seed)
	p, err := sgx.NewPlatform(sgx.PlatformConfig{Seed: seed})
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	reg := sbi.NewRegistry()
	m, err := New(context.Background(), Config{
		Kind: EUDM, Isolation: SGX, Env: env, Platform: p, Registry: reg,
		Exitless: exitless, UserLevelTCP: userTCP,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(m.Stop)
	if err := m.ProvisionSubscriber(context.Background(), testSUPI, testK); err != nil {
		t.Fatalf("provision: %v", err)
	}
	return m, sbi.NewClient("vnf", env, reg), env
}

func invokeEUDM(t *testing.T, client *sbi.Client) simclock.Cycles {
	t.Helper()
	var acct simclock.Account
	ctx := simclock.WithAccount(context.Background(), &acct)
	var resp UDMGenerateAVResponse
	if err := client.Post(ctx, EUDM.ServiceName(), PathUDMGenerateAV, avRequest(), &resp); err != nil {
		t.Fatalf("Post: %v", err)
	}
	if len(resp.KAUSF) != 32 {
		t.Fatal("bad AV")
	}
	return acct.Total()
}

func TestExitlessModuleEliminatesTransitions(t *testing.T) {
	base, baseClient, _ := deployVariant(t, 50, false, false)
	exitless, exClient, _ := deployVariant(t, 51, true, false)

	invokeEUDM(t, baseClient)
	invokeEUDM(t, exClient)

	baseBefore, exBefore := base.Stats(), exitless.Stats()
	baseCost := invokeEUDM(t, baseClient)
	exCost := invokeEUDM(t, exClient)
	baseDelta := base.Stats().Sub(baseBefore)
	exDelta := exitless.Stats().Sub(exBefore)

	if baseDelta.EENTER < 80 {
		t.Fatalf("baseline EENTER/req = %d", baseDelta.EENTER)
	}
	if exDelta.EENTER != 0 || exDelta.EEXIT != 0 {
		t.Fatalf("exitless transitions = %d/%d, want 0/0", exDelta.EENTER, exDelta.EEXIT)
	}
	if exDelta.OCALLs == 0 {
		t.Fatal("exitless OCALLs not counted")
	}
	if exCost >= baseCost {
		t.Fatalf("exitless (%d cycles) not cheaper than baseline (%d)", exCost, baseCost)
	}
}

func TestUserTCPModuleCutsSyscallsGrowsTCB(t *testing.T) {
	base, baseClient, _ := deployVariant(t, 52, false, false)
	tcp, tcpClient, _ := deployVariant(t, 53, false, true)

	invokeEUDM(t, baseClient)
	invokeEUDM(t, tcpClient)

	baseBefore, tcpBefore := base.Stats(), tcp.Stats()
	invokeEUDM(t, baseClient)
	invokeEUDM(t, tcpClient)
	baseDelta := base.Stats().Sub(baseBefore)
	tcpDelta := tcp.Stats().Sub(tcpBefore)

	if tcpDelta.EENTER >= baseDelta.EENTER/2 {
		t.Fatalf("user TCP EENTER/req = %d, baseline %d", tcpDelta.EENTER, baseDelta.EENTER)
	}
	if tcp.TCBBytes() <= base.TCBBytes() {
		t.Fatalf("user TCP TCB %d not above baseline %d", tcp.TCBBytes(), base.TCBBytes())
	}
	// The extra libraries change the enclave identity.
	tcpEv, err := tcp.Evidence([64]byte{})
	if err != nil {
		t.Fatalf("Evidence: %v", err)
	}
	baseEv, err := base.Evidence([64]byte{})
	if err != nil {
		t.Fatalf("Evidence: %v", err)
	}
	if tcpEv.Measurement == baseEv.Measurement {
		t.Fatal("user TCP variant has identical measurement")
	}
}

func TestExitlessBumpsThreadBudget(t *testing.T) {
	m, _, _ := deployVariant(t, 54, true, false)
	// The manifest minimum for exitless is HelperThreads+2 = 5.
	if got := m.Enclave().Config().MaxThreads; got < 5 {
		t.Fatalf("MaxThreads = %d, want >= 5", got)
	}
}

func TestContainerTCBIncludesHost(t *testing.T) {
	env := costmodel.NewEnv(nil, 55)
	reg := sbi.NewRegistry()
	m, err := New(context.Background(), Config{Kind: EUDM, Isolation: Container, Env: env, Registry: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer m.Stop()
	if m.TCBBytes() <= HostTCBBytes {
		t.Fatalf("container TCB = %d, want > host stack %d", m.TCBBytes(), uint64(HostTCBBytes))
	}
}
