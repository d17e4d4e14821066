// Package experiments regenerates every table and figure of the paper's
// evaluation (§V): enclave load time (Fig. 7), the thread/EPC sweep
// (Fig. 8), functional and total latency (Fig. 9), response times
// (Fig. 10), the overhead summary (Table II), SGX operation statistics
// (Table III), the end-to-end session setup analysis (§V-B4), and the OTA
// feasibility test (§V-B6), plus the extensions built on them.
//
// A row is measured by one of two harnesses and printed from one table
// description. The module harness (module.go) deploys one P-AKA module in
// isolation, pays its cold first request, then drives n warm requests and
// returns load time, TCB, initial and stable response, L_F/L_T and the
// warm-window transition census. The slice harness (slice.go) deploys a
// deploy.SliceConfig, warms every shard's chain with one registration,
// provisions (and, for a steady-state window, prewarms) the population,
// drives the mass or storm driver inside the window and returns the
// driver's own result next to the counter deltas and snapshots taken
// around it. Seeds, MSIN bases and the warm MSIN are arguments of each
// call. A table (table.go) is an ordered column list, each column with its
// text cell and its CSV cell, from which both Render and WriteCSV come.
package experiments

// Config controls experiment scale and reproducibility.
type Config struct {
	// Seed drives all virtual-time jitter.
	Seed uint64
	// Iterations is the per-configuration sample count; the paper uses
	// 500. Zero selects 500.
	Iterations int
	// MaxUEs bounds the Table III registration sweep; the paper
	// registers 1..10 UEs and prints up to 3 for brevity. Zero selects 3.
	MaxUEs int
}

func (c Config) iterations() int {
	if c.Iterations <= 0 {
		return 500
	}
	return c.Iterations
}
