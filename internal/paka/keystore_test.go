package paka

import (
	"context"
	"slices"
	"testing"
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
// the same set back from sealed backups under SGX and an empty store on a
// guest, whose keys the UDM re-pushes.
func TestMemoryDumpListsProvisionedSUPIs(t *testing.T) {
	ctx := context.Background()
	supis := []string{"imsi-001010000000001", "imsi-001010000000002", "imsi-001010000000003"}
	for i, iso := range []Isolation{Container, SEV, SGX} {
		t.Run(iso.String(), func(t *testing.T) {
			m := newHarness(t, uint64(60+i)).module(t, EUDM, iso)
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
			want := supis
			if iso != SGX {
				want = nil
			}
			if got := regions(m.MemoryDump()); !slices.Equal(got, want) {
				t.Fatalf("after restart: dump regions %q, want %q", got, want)
			}
		})
	}
}
