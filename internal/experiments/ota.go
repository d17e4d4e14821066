package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"shield5g/internal/crypto/milenage"
	"shield5g/internal/crypto/suci"
	"shield5g/internal/deploy"
	"shield5g/internal/gnb"
	"shield5g/internal/paka"
	"shield5g/internal/ue"
)

// OTAResult records the over-the-air feasibility test of §V-B6: a COTS
// device profile registering with the 5G core through the SGX-isolated
// P-AKA modules via an SDR gNB.
type OTAResult struct {
	Device     string
	PLMN       string
	Radio      string
	Registered bool
	GUTI       string
	UEAddress  string
	DataEcho   bool
	SetupTime  time.Duration
	Steps      []string
}

// OTA runs the feasibility test: OnePlus 8 profile, OpenCells test PLMN
// 00101, USRP x310 radio profile, SGX-isolated slice.
func OTA(ctx context.Context, cfg Config) (*OTAResult, error) {
	result := &OTAResult{
		Device: "OnePlus 8 (Oxygen 11.0.11.11.IN21DA)",
		PLMN:   "00101",
		Radio:  gnb.USRPX310().Name,
	}
	step := func(format string, args ...any) {
		result.Steps = append(result.Steps, fmt.Sprintf(format, args...))
	}

	s, err := deploy.NewSlice(ctx, deploy.SliceConfig{
		Isolation: paka.SGX,
		MCC:       "001", MNC: "01",
		Seed:  cfg.Seed,
		Radio: gnb.USRPX310(),
	})
	if err != nil {
		return nil, err
	}
	defer s.Stop()
	step("SGX slice deployed: P-AKA modules loaded in %v (eUDM), %v (eAUSF), %v (eAMF)",
		s.Modules[paka.EUDM].LoadDuration().Round(time.Millisecond),
		s.Modules[paka.EAUSF].LoadDuration().Round(time.Millisecond),
		s.Modules[paka.EAMF].LoadDuration().Round(time.Millisecond))

	// Program the OpenCells SIM with the test PLMN.
	supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: "0000000101"}
	k := bytes.Repeat([]byte{0x8b}, 16)
	opc, err := milenage.ComputeOPc(k, make([]byte, 16))
	if err != nil {
		return nil, err
	}
	profile := ue.OnePlus8()
	device, err := s.ProvisionDevice(ctx, supi, k, opc, &profile)
	if err != nil {
		return nil, err
	}
	step("OpenCells SIM programmed: %s on test PLMN %s", supi.String(), result.PLMN)

	// The paper observed custom PLMNs are not detected by the device.
	if err := device.DetectNetwork("99999"); err == nil {
		return nil, fmt.Errorf("ota: COTS device detected a custom PLMN; profile gate broken")
	}
	step("custom PLMN 99999 not detected by %s (matches paper observation)", profile.Model)
	if err := device.DetectNetwork(s.GNB.BroadcastPLMN()); err != nil {
		return nil, fmt.Errorf("ota: device did not detect test PLMN: %w", err)
	}
	step("UE detected gNB broadcast PLMN %s via %s", s.GNB.BroadcastPLMN(), result.Radio)

	sess, err := s.GNB.RegisterUE(ctx, device)
	if err != nil {
		return nil, fmt.Errorf("ota: registration failed: %w", err)
	}
	result.Registered = true
	if g, ok := device.GUTI(); ok {
		result.GUTI = g.String()
	}
	step("UE registered through SGX-isolated AKA: GUTI %s", result.GUTI)

	if err := sess.EstablishPDUSession(ctx, 1, "internet"); err != nil {
		return nil, fmt.Errorf("ota: PDU session failed: %w", err)
	}
	result.UEAddress = device.UEAddress()
	step("PDU session established: UE address %s", result.UEAddress)

	echo, err := sess.SendData(ctx, []byte("Test/-1 - OpenAirInterface"))
	if err != nil {
		return nil, fmt.Errorf("ota: data path failed: %w", err)
	}
	result.DataEcho = bytes.Contains(echo, []byte("OpenAirInterface"))
	result.SetupTime = sess.Virtual()
	step("data session carries traffic: %q", echo)
	return result, nil
}

// Render prints the OTA transcript.
func (r *OTAResult) Render(w io.Writer) {
	fprintf(w, "OTA feasibility test (paper §V-B6)\n")
	fprintf(w, "device: %s  PLMN: %s  radio: %s\n", r.Device, r.PLMN, r.Radio)
	for i, s := range r.Steps {
		fprintf(w, "  %d. %s\n", i+1, s)
	}
	fprintf(w, "registered=%v dataEcho=%v setup=%v\n", r.Registered, r.DataEcho, r.SetupTime.Round(time.Millisecond))
}
