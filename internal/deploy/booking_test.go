package deploy

import (
	"context"
	"crypto/rand"
	"io"
	"testing"
	"time"

	"shield5g/internal/crypto/milenage"
	"shield5g/internal/crypto/suci"
	"shield5g/internal/gnb"
	"shield5g/internal/paka"
	"shield5g/internal/simclock"
	"shield5g/internal/ue"
)

// TestEveryProcedureBooksItsCycles is the booking rule's gate. On every
// backend, at two replicas, it drives a slice through deploy, provisioning,
// attach, GUTI re-registration, an SQN resync, PDU session, data,
// deregistration, an eUDM restart with the key-store-miss attach after it,
// a rebalance with the re-registration after it, and the slice's stop.
// After each step neither the slice's env nor the SGX platform's has
// counted a cycle charged to no account, and what the step reports booking
// — the slice's provisioning or maintenance total, the session's virtual
// time — is what the two clocks advanced. -v logs each step's virtual
// cost.
func TestEveryProcedureBooksItsCycles(t *testing.T) {
	for _, iso := range []paka.Isolation{paka.Container, paka.SGX, paka.SEV} {
		t.Run(iso.String(), func(t *testing.T) {
			ctx := context.Background()
			var s *Slice
			var advanced simclock.Cycles // both clocks, as the last step left them
			step := func(name string, procedure func() error, booked func() time.Duration) {
				t.Helper()
				if err := procedure(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				unbooked, clocks := s.Unbooked(), s.Env.Clock.Elapsed()
				if s.Platform != nil {
					clocks += s.Platform.Env().Clock.Elapsed()
				}
				if unbooked != 0 {
					t.Fatalf("%s charged %d cycles to no account", name, unbooked)
				}
				spent := s.Env.Model.Duration(clocks - advanced)
				advanced = clocks
				// Only an enclave's teardown costs cycles: its resident
				// threads' final EEXITs. A container or a guest stops free.
				free := name == "stop" && iso != paka.SGX
				if got := booked(); (got == 0 && !free) || (got-spent).Abs() > time.Nanosecond {
					t.Fatalf("%s booked %v; the clocks advanced %v", name, got, spent)
				}
				t.Logf("%-44s %v", name, spent.Round(time.Microsecond))
			}
			maintenance := func() time.Duration { _, m := s.Booked(); return m }

			step("deploy", func() (err error) {
				s, err = NewSlice(ctx, SliceConfig{Isolation: iso, Seed: 57, Replicas: 2})
				return err
			}, maintenance)
			t.Cleanup(s.Stop)

			// The subscriber routes to the replica the rebalance removes.
			supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: movingMSIN(t, s, 5700)}
			k := make([]byte, 16)
			if _, err := io.ReadFull(rand.Reader, k); err != nil {
				t.Fatal(err)
			}
			opc, err := milenage.ComputeOPc(k, make([]byte, 16))
			if err != nil {
				t.Fatal(err)
			}
			var device *ue.UE
			step("provisioning", func() (err error) {
				device, err = s.ProvisionDevice(ctx, supi, k, opc, nil)
				return err
			}, func() time.Duration { p, _ := s.Booked(); return p })

			var sess *gnb.Session
			registration := func(register func(context.Context, *ue.UE) (*gnb.Session, error)) func() error {
				return func() (err error) {
					sess, err = register(ctx, device)
					return err
				}
			}
			virtual := func() time.Duration { return sess.Virtual() }
			var mark time.Duration
			onSession := func(procedure func() error) func() error {
				return func() error { mark = sess.Virtual(); return procedure() }
			}
			sinceMark := func() time.Duration { return sess.Virtual() - mark }

			step("attach", registration(s.GNB.RegisterUE), virtual)
			step("GUTI re-registration", registration(s.GNB.ReRegisterUE), virtual)
			if err := device.SetSQN([]byte{0, 0, 0, 1, 0, 0}); err != nil {
				t.Fatal(err)
			}
			step("attach with SQN resync", registration(s.GNB.RegisterUE), virtual)
			step("PDU session", onSession(func() error { return sess.EstablishPDUSession(ctx, 1, "internet") }), sinceMark)
			step("data", onSession(func() error { _, err := sess.SendData(ctx, []byte("booked")); return err }), sinceMark)
			step("deregistration", onSession(func() error { return sess.Deregister(ctx) }), sinceMark)

			var before time.Duration
			step("eUDM restart", func() error {
				before = maintenance()
				return s.RestartShardModule(ctx, s.GNB.ShardOf(device.SUPIString()), paka.EUDM)
			}, func() time.Duration { return maintenance() - before })
			step("attach after restart (key-store miss)", registration(s.GNB.RegisterUE), virtual)

			if _, err := s.SetRoutableReplicas(1); err != nil {
				t.Fatal(err)
			}
			step("re-registration after rebalance", registration(s.GNB.ReRegisterUE), virtual)
			step("stop", func() error {
				before = maintenance()
				s.Stop()
				return nil
			}, func() time.Duration { return maintenance() - before })
		})
	}
}
