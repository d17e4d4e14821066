package gnb_test

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"testing"

	"shield5g/internal/crypto/milenage"
	"shield5g/internal/crypto/suci"
	"shield5g/internal/deploy"
	"shield5g/internal/gnb"
	"shield5g/internal/nf/amf"
	"shield5g/internal/paka"
	"shield5g/internal/simclock"
	"shield5g/internal/ue"
)

func newSlice(t *testing.T, radio gnb.RadioProfile) *deploy.Slice {
	t.Helper()
	s, err := deploy.NewSlice(context.Background(), deploy.SliceConfig{
		Isolation: paka.Container, Seed: 13, Radio: radio,
	})
	if err != nil {
		t.Fatalf("NewSlice: %v", err)
	}
	t.Cleanup(s.Stop)
	return s
}

func provision(t *testing.T, s *deploy.Slice, msin string) *ue.UE {
	t.Helper()
	supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: msin}
	k := make([]byte, 16)
	if _, err := rand.Read(k); err != nil {
		t.Fatalf("rand: %v", err)
	}
	opc, err := milenage.ComputeOPc(k, make([]byte, 16))
	if err != nil {
		t.Fatalf("ComputeOPc: %v", err)
	}
	device, err := s.ProvisionDevice(context.Background(), supi, k, opc, nil)
	if err != nil {
		t.Fatalf("ProvisionDevice: %v", err)
	}
	return device
}

func TestRadioProfiles(t *testing.T) {
	sim := gnb.GNBSIM()
	sdr := gnb.USRPX310()
	if sim.Name != "gnbsim" || sdr.Name != "usrp-x310" {
		t.Fatal("profile names wrong")
	}
	if sdr.RTTCycles <= sim.RTTCycles {
		t.Fatal("OTA radio not slower than gnbsim")
	}
}

func TestNewValidation(t *testing.T) {
	s := newSlice(t, gnb.GNBSIM())
	amfs := []*amf.AMF{s.AMF}
	if _, err := gnb.New(gnb.Config{AMFs: amfs, Router: s.Router, MCC: "001", MNC: "01"}); err == nil {
		t.Fatal("missing env accepted")
	}
	if _, err := gnb.New(gnb.Config{Env: s.Env, Router: s.Router, MCC: "001", MNC: "01"}); err == nil {
		t.Fatal("missing AMFs accepted")
	}
	if _, err := gnb.New(gnb.Config{Env: s.Env, AMFs: []*amf.AMF{nil}, Router: s.Router, MCC: "001", MNC: "01"}); err == nil {
		t.Fatal("nil AMF replica accepted")
	}
	if _, err := gnb.New(gnb.Config{Env: s.Env, AMFs: amfs, MCC: "001", MNC: "01"}); err == nil {
		t.Fatal("missing Router accepted")
	}
	if _, err := gnb.New(gnb.Config{Env: s.Env, AMFs: amfs, Router: s.Router}); err == nil {
		t.Fatal("missing PLMN accepted")
	}
}

func TestBroadcastPLMNAndDefaultRadio(t *testing.T) {
	s := newSlice(t, gnb.RadioProfile{})
	if got := s.GNB.BroadcastPLMN(); got != "00101" {
		t.Fatalf("BroadcastPLMN = %q", got)
	}
	if s.GNB.Radio().Name != "gnbsim" {
		t.Fatalf("default radio = %q", s.GNB.Radio().Name)
	}
}

func TestRegisterUESetupTimeScalesWithRadio(t *testing.T) {
	fast := newSlice(t, gnb.GNBSIM())
	slow := newSlice(t, gnb.USRPX310())

	fastSess, err := fast.GNB.RegisterUE(context.Background(), provision(t, fast, "0000000001"))
	if err != nil {
		t.Fatalf("fast RegisterUE: %v", err)
	}
	slowSess, err := slow.GNB.RegisterUE(context.Background(), provision(t, slow, "0000000001"))
	if err != nil {
		t.Fatalf("slow RegisterUE: %v", err)
	}
	if slowSess.SetupTime <= fastSess.SetupTime {
		t.Fatalf("OTA setup (%v) not above gnbsim setup (%v)", slowSess.SetupTime, fastSess.SetupTime)
	}
}

func TestRegisterUEUnprovisionedFails(t *testing.T) {
	s := newSlice(t, gnb.GNBSIM())
	supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: "0000009999"}
	k := make([]byte, 16)
	device, err := ue.New(ue.Config{
		SUPI: supi, K: k, OPc: k,
		HomeNetworkPublicKey: s.HomeNetworkKey.PublicKey(),
		HomeNetworkKeyID:     s.HomeNetworkKey.ID,
		Env:                  s.Env,
	})
	if err != nil {
		t.Fatalf("ue.New: %v", err)
	}
	if _, err := s.GNB.RegisterUE(context.Background(), device); err == nil {
		t.Fatal("unprovisioned UE registered")
	}
}

func TestSendDataRequiresPDUSession(t *testing.T) {
	s := newSlice(t, gnb.GNBSIM())
	sess, err := s.GNB.RegisterUE(context.Background(), provision(t, s, "0000000001"))
	if err != nil {
		t.Fatalf("RegisterUE: %v", err)
	}
	if _, err := sess.SendData(context.Background(), []byte("x")); err == nil {
		t.Fatal("data sent without PDU session")
	}
	if err := sess.EstablishPDUSession(context.Background(), 1, "internet"); err != nil {
		t.Fatalf("EstablishPDUSession: %v", err)
	}
	echo, err := sess.SendData(context.Background(), []byte("payload"))
	if err != nil {
		t.Fatalf("SendData: %v", err)
	}
	if !bytes.Contains(echo, []byte("payload")) {
		t.Fatalf("echo = %q", echo)
	}
}

func TestRegisterManyCountsFailures(t *testing.T) {
	s := newSlice(t, gnb.GNBSIM())
	result, err := s.GNB.RegisterManyWith(context.Background(), gnb.MassOptions{N: 4, NewUE: func(i int) (*ue.UE, error) {
		if i == 2 {
			// An unprovisioned device fails registration.
			supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: "0000008888"}
			k := make([]byte, 16)
			return ue.New(ue.Config{
				SUPI: supi, K: k, OPc: k,
				HomeNetworkPublicKey: s.HomeNetworkKey.PublicKey(),
				HomeNetworkKeyID:     s.HomeNetworkKey.ID,
				Env:                  s.Env,
			})
		}
		return provision(t, s, fmt.Sprintf("%010d", 100+i)), nil
	}})
	if err != nil {
		t.Fatalf("RegisterManyWith: %v", err)
	}
	if result.Registered != 3 || result.Failed != 1 {
		t.Fatalf("result = %+v", result)
	}
	if result.SetupTimes.N() != 3 {
		t.Fatalf("setup samples = %d", result.SetupTimes.N())
	}
}

func TestRegisterManyProvisionError(t *testing.T) {
	s := newSlice(t, gnb.GNBSIM())
	sentinel := errors.New("provision broken")
	_, err := s.GNB.RegisterManyWith(context.Background(), gnb.MassOptions{N: 2, NewUE: func(int) (*ue.UE, error) {
		return nil, sentinel
	}})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

func TestRegisterChargesAccount(t *testing.T) {
	s := newSlice(t, gnb.GNBSIM())
	var acct simclock.Account
	ctx := simclock.WithAccount(context.Background(), &acct)
	sess, err := s.GNB.RegisterUE(ctx, provision(t, s, "0000000001"))
	if err != nil {
		t.Fatalf("RegisterUE: %v", err)
	}
	if acct.Total() == 0 {
		t.Fatal("registration charged nothing")
	}
	if sess.SetupTime != s.Env.Model.Duration(acct.Total()) {
		t.Fatal("SetupTime does not match charged cycles")
	}
}
