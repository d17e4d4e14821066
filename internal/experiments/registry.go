package experiments

import (
	"context"
	"fmt"
	"io"
)

// Result is what every experiment returns: the rows the paper reports.
type Result interface{ Render(io.Writer) }

// CSVResult is a Result that also exports its raw series, plot-ready.
// CSV export is exactly this: the result also has WriteCSV.
type CSVResult interface {
	Result
	WriteCSV(io.Writer) error
}

// Experiment is one runnable reproduction of a paper table or figure.
// Whether it exports CSV is whether Run's result is a CSVResult.
type Experiment struct {
	Name        string
	Description string
	Run         func(ctx context.Context, cfg Config) (Result, error)
}

// row adapts a typed experiment function to a table row.
func row[R Result](name, description string, run func(context.Context, Config) (R, error)) Experiment {
	return Experiment{Name: name, Description: description,
		Run: func(ctx context.Context, cfg Config) (Result, error) { return run(ctx, cfg) }}
}

// static is the Result of a table that is printed, not measured.
type static func(io.Writer)

func (s static) Render(w io.Writer) { s(w) }

func staticRow(name, description string, render func(io.Writer)) Experiment {
	return row(name, description, func(context.Context, Config) (static, error) { return render, nil })
}

// table is the experiment registry, in name order: every table and
// figure of the paper plus the extensions, one row each.
var table = []Experiment{
	row("ablation", "Optimization ablation: exitless, user-level TCP, preheat (§V-B7)", Ablation),
	row("batching", "Boundary amortization sweep: keep-alive batching and the AV precomputation pool", Batching),
	row("chaos", "Fault-injection sweep: SBI resilience and enclave crash-recovery under seeded faults", Chaos),
	row("e2e", "End-to-end session setup and the SGX share", E2E),
	row("fig10", "Stable and initial response time of the modules", Fig10),
	row("fig7", "Enclave load time for the P-AKA modules", Fig7),
	row("fig8", "Threads and EPC size sweep on the eUDM module", Fig8),
	row("fig9", "Functional and total latency, container vs SGX", Fig9),
	row("massreg", "Concurrent mass-registration sweep of the parallel gNBSIM driver", MassReg),
	row("ota", "OTA feasibility test with the COTS UE profile", OTA),
	row("shardscale", "Horizontally sharded core: fleet throughput across replica counts 1-8", ShardScale),
	row("storm", "Signaling-storm survival: overload control and priority admission at 10x overload", Storm),
	staticRow("table1", "Enclave boundary parameters (paper vs implementation)", Table1),
	row("table2", "SGX overhead ratios across the isolated modules", Table2),
	row("table3", "SGX specific operational statistics", Table3),
	staticRow("table4", "Simulated testbed configuration", Table4),
	staticRow("table5", "Key issues vs HMEE coverage", Table5),
	row("teecompare", "HMEE backends compared: SGX vs SEV vs container (§IV-C)", TEECompare),
}

// Names lists the table rows in order.
func Names() []string {
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.Name
	}
	return names
}

// Lookup finds a table row by name.
func Lookup(name string) (Experiment, error) {
	for _, e := range table {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
}
