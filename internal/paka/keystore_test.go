package paka

import (
	"context"
	"slices"
	"testing"

	"shield5g/internal/sbi"
)

// regions lists the names of a memory dump's regions in order.
func regions(dump map[string][]byte) []string {
	names := make([]string, 0, len(dump))
	for name := range dump {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// TestMemoryDumpListsProvisionedSUPIs: the eUDM key store holds one region
// per provisioned SUPI, named by the SUPI itself, on every backend; a
// re-provision replaces its region instead of adding one. A restart brings
// every backend back empty. The first request that names a SUPI refills
// its region under SGX, from the SUPI's sealed file and nothing else; a
// guest's store stays empty, since only the UDM's re-provisioning puts K
// back into it.
func TestMemoryDumpListsProvisionedSUPIs(t *testing.T) {
	ctx := context.Background()
	supis := []string{"imsi-001010000000001", "imsi-001010000000002", "imsi-001010000000003"}
	for i, iso := range []Isolation{Container, SEV, SGX} {
		t.Run(iso.String(), func(t *testing.T) {
			h := newHarness(t, uint64(60+i))
			m := h.module(t, EUDM, iso)
			for _, supi := range append(supis, supis[0]) {
				if err := m.ProvisionSubscriber(ctx, supi, testK); err != nil {
					t.Fatalf("ProvisionSubscriber(%s): %v", supi, err)
				}
			}
			if got := regions(m.MemoryDump()); !slices.Equal(got, supis) {
				t.Fatalf("dump regions %q, want the provisioned SUPIs %q", got, supis)
			}

			if err := m.Restart(ctx); err != nil {
				t.Fatalf("Restart: %v", err)
			}
			if got := regions(m.MemoryDump()); len(got) != 0 {
				t.Fatalf("after restart: dump regions %q, want none", got)
			}

			var resp UDMGenerateAVResponse
			err := h.client.Post(ctx, EUDM.ServiceName(), PathUDMGenerateAV, avRequest(), &resp)
			want := []string{testSUPI}
			if iso != SGX {
				if !sbi.HasCause(err, "USER_NOT_FOUND") {
					t.Fatalf("first use after restart: err = %v, want USER_NOT_FOUND", err)
				}
				want = nil
			} else if err != nil {
				t.Fatalf("first use after restart: %v", err)
			}
			if got := regions(m.MemoryDump()); !slices.Equal(got, want) {
				t.Fatalf("after first use: dump regions %q, want %q", got, want)
			}
		})
	}
}
