package experiments

import (
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"time"

	"shield5g/internal/deploy"
	"shield5g/internal/hmee/gramine"
	"shield5g/internal/hmee/sgx"
	"shield5g/internal/paka"
	"shield5g/internal/ue"
)

// moduleUptime and emptyUptime are the modelled residency windows of the
// stats-collection runs; together with the 250 Hz per-thread timer rate
// they reproduce Table III's AEX populations (~140k for the served
// modules, ~50k for the empty workload).
const (
	moduleUptime = 140 * time.Second
	emptyUptime  = 50 * time.Second
)

// Table3Row is one (module, #UEs) statistics row; UEs is 0 on the
// empty-workload baseline.
type Table3Row struct {
	Module string
	UEs    int
	sgx.StatsSnapshot
}

// Table3Result is the SGX operation statistics table.
type Table3Result struct {
	report
	Rows []Table3Row
	// Empty is the GSC empty-workload baseline row.
	Empty Table3Row
	// PerUE is the derived EENTER/EEXIT delta per registration.
	PerUE map[paka.ModuleKind]uint64
}

// Table3 registers 1..N UEs back to back through SGX-isolated slices and
// collects the enclave operation counters, plus an empty-workload GSC
// baseline — the paper's §V-B5 methodology.
func Table3(ctx context.Context, cfg Config) (*Table3Result, error) {
	maxUEs := cfg.MaxUEs
	if maxUEs <= 0 {
		maxUEs = 3
	}
	result := &Table3Result{PerUE: make(map[paka.ModuleKind]uint64)}
	var steady uint64 // registrations past each sweep's warm-up one
	for ues := 1; ues <= maxUEs; ues++ {
		_, err := measure(ctx, deploy.SliceConfig{Isolation: paka.SGX, Seed: cfg.Seed + uint64(ues)}, plan{msin: 3000,
			drive: func(ctx context.Context, s *deploy.Slice, device func(int) (*ue.UE, error)) error {
				warm := make(map[paka.ModuleKind]uint64)
				for i := 0; i < ues; i++ {
					d, err := device(i)
					if err != nil {
						return err
					}
					if _, err := s.GNB.RegisterUE(ctx, d); err != nil {
						return err
					}
					if i == 0 { // the steady-state delta skips the warm-up request
						for kind, m := range s.Modules {
							warm[kind] = m.Stats().EENTER
						}
					}
				}
				steady += uint64(ues - 1)
				for _, kind := range paka.Kinds() {
					m := s.Modules[kind]
					result.PerUE[kind] += m.Stats().EENTER - warm[kind]
					m.AccrueUptime(moduleUptime)
					result.Rows = append(result.Rows, Table3Row{kind.String(), ues, m.Stats()})
				}
				return nil
			}})
		if err != nil {
			return nil, err
		}
	}
	for kind := range result.PerUE {
		result.PerUE[kind] /= max(steady, 1)
	}
	var err error
	if result.Empty, err = emptyWorkload(ctx, cfg); err != nil {
		return nil, err
	}

	// The paper lists each module's rows from the deepest sweep down.
	var rows []Table3Row
	for _, kind := range paka.Kinds() {
		for i := len(result.Rows) - 1; i >= 0; i-- {
			if result.Rows[i].Module == kind.String() {
				rows = append(rows, result.Rows[i])
			}
		}
	}
	result.line("Table III: SGX specific operational statistics")
	result.table(layout([]col[Table3Row]{
		str("module", -16, "", func(r Table3Row) string { return r.Module }),
		str("#UEs", 6, "", func(r Table3Row) string {
			if r.UEs == 0 {
				return "-"
			}
			return fmt.Sprint(r.UEs)
		}),
		cnt("EENTERs", 10, "", func(r Table3Row) uint64 { return r.EENTER }),
		cnt("EEXITs", 10, "", func(r Table3Row) uint64 { return r.EEXIT }),
		cnt("AEXs", 10, "", func(r Table3Row) uint64 { return r.AEX }),
	}, append(rows, result.Empty)))
	for _, kind := range paka.Kinds() {
		result.line("per-UE EENTER delta (%s): ~%d (paper: ~90)", kind, result.PerUE[kind])
	}
	return result, nil
}

// emptyWorkload launches a GSC container with no server traffic — the
// paper's baseline for the cost of GSC itself.
func emptyWorkload(ctx context.Context, cfg Config) (Table3Row, error) {
	row := Table3Row{Module: "Empty workload"}
	platform, err := sgx.NewPlatform(sgx.PlatformConfig{Seed: cfg.Seed + 999})
	if err != nil {
		return row, err
	}
	_, key, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return row, err
	}
	si, err := gramine.BuildShielded(gramine.ContainerImage{
		Name:  "empty-workload:latest",
		Files: []gramine.ImageFile{{Path: "/bin/sleep", Size: 1_000_000}},
	}, gramine.DefaultManifest("/bin/sleep"), key)
	if err != nil {
		return row, err
	}
	inst, err := gramine.Launch(ctx, platform, si, gramine.WithoutServer())
	if err != nil {
		return row, err
	}
	defer inst.Shutdown(ctx)
	inst.AccrueUptime(emptyUptime)
	row.StatsSnapshot = inst.Stats()
	return row, nil
}
