package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"shield5g/internal/paka"
)

var quick = Config{Seed: 7, Iterations: 60}

func TestFig7LoadTimesNearOneMinute(t *testing.T) {
	cfg := quick
	cfg.Iterations = 10
	r, err := Fig7(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Fig7: %v", err)
	}
	if len(r.Load) != len(paka.Kinds()) {
		t.Fatalf("boxes = %d, want one per module", len(r.Load))
	}
	for _, s := range r.Load {
		kind := s.kind
		if s.N == 0 {
			t.Fatalf("no samples for %s", kind)
		}
		if s.Median < 45*time.Second || s.Median > 75*time.Second {
			t.Errorf("%s load median = %v, want ~1 minute (Fig. 7)", kind, s.Median)
		}
		// The box spread should be tight (the paper's quartiles span
		// hundredths of a minute).
		if s.Q3-s.Q1 > 5*time.Second {
			t.Errorf("%s IQR = %v, too wide", kind, s.Q3-s.Q1)
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 7") {
		t.Fatal("render missing header")
	}
}

func TestFig8ThreadsFlatEPCPenalty(t *testing.T) {
	r, err := Fig8(context.Background(), quick)
	if err != nil {
		t.Fatalf("Fig8: %v", err)
	}
	if len(r.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(r.Points))
	}
	t4, t10, big, native := r.Points[0], r.Points[1], r.Points[2], r.Points[3]

	// More threads alone change nothing for a single client (within 10%).
	ratio := float64(t10.total.Median) / float64(t4.total.Median)
	if ratio < 0.90 || ratio > 1.10 {
		t.Errorf("thread=10/thread=4 LT ratio = %.3f, want ~1", ratio)
	}
	// The 8 GiB enclave pays paging pressure: slower and wider IQR.
	if big.total.Median <= t4.total.Median {
		t.Errorf("8GiB median (%v) not above 512MiB median (%v)", big.total.Median, t4.total.Median)
	}
	if big.total.Q3-big.total.Q1 <= t4.total.Q3-t4.total.Q1 {
		t.Errorf("8GiB IQR (%v) not wider than 512MiB IQR (%v)",
			big.total.Q3-big.total.Q1, t4.total.Q3-t4.total.Q1)
	}
	// Non-SGX is clearly faster.
	if float64(t4.total.Median) < 1.5*float64(native.total.Median) {
		t.Errorf("SGX LT (%v) not well above non-SGX (%v)", t4.total.Median, native.total.Median)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Non-SGX") {
		t.Fatal("render missing baseline row")
	}
}

func TestFig9AndTable2Bands(t *testing.T) {
	f9, err := Fig9(context.Background(), quick)
	if err != nil {
		t.Fatalf("Fig9: %v", err)
	}
	if len(f9.Pairs) != 3 {
		t.Fatalf("table2 rows = %d", len(f9.Pairs))
	}
	for _, row := range f9.Pairs {
		if lf := row.ratio(functional); lf < 1.1 || lf > 1.7 {
			t.Errorf("%s LF ratio %.2f outside paper band 1.2-1.5 (tolerance 1.1-1.7)", row.kind, lf)
		}
		if lt := row.ratio(total); lt < 1.6 || lt > 2.7 {
			t.Errorf("%s LT ratio %.2f outside paper band 1.86-2.43 (tolerance 1.6-2.7)", row.kind, lt)
		}
		if rs := row.ratio(stable); rs < 1.9 || rs > 3.1 {
			t.Errorf("%s response ratio %.2f outside paper band 2.2-2.9 (tolerance 1.9-3.1)", row.kind, rs)
		}
		if ri := row.initialRatio(); ri < 10 || ri > 35 {
			t.Errorf("%s RI/RS %.1f outside paper band ~18-21 (tolerance 10-35)", row.kind, ri)
		}
	}

	// Ordering: eUDM carries the most bytes and is the slowest (Pairs is
	// in paka.Kinds order: eUDM, eAUSF, eAMF).
	if !(f9.Pairs[0].sgx.functional.Median > f9.Pairs[1].sgx.functional.Median &&
		f9.Pairs[1].sgx.functional.Median > f9.Pairs[2].sgx.functional.Median) {
		t.Error("SGX LF ordering violated")
	}

	var buf bytes.Buffer
	f9.Render(&buf)
	table2(f9.Pairs).Render(&buf)
	out := buf.String()
	for _, want := range []string{"Figure 9a", "Figure 9b", "Table II", "eUDM", "eAUSF", "eAMF"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFig10InitialResponse(t *testing.T) {
	r, err := Fig10(context.Background(), quick)
	if err != nil {
		t.Fatalf("Fig10: %v", err)
	}
	for _, p := range r.Pairs {
		// The paper's Fig. 10b y-axis spans 22.0-23.6 ms.
		if ri := p.sgx.initial; ri < 18*time.Millisecond || ri > 28*time.Millisecond {
			t.Errorf("%s RI = %v, want ~22-24 ms", p.kind, ri)
		}
		if p.sgx.stable.Median <= p.container.stable.Median {
			t.Errorf("%s stable SGX not above container", p.kind)
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 10b") {
		t.Fatal("render missing Fig 10b")
	}
}

func TestTable3Shape(t *testing.T) {
	cfg := quick
	r, err := Table3(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Table3: %v", err)
	}
	if len(r.Rows) != 9 { // 3 modules x 3 UE counts
		t.Fatalf("rows = %d, want 9", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Absolute populations near the paper's (~1500 EENTER at 1 UE,
		// ~140k AEX).
		if row.EENTER < 1300 || row.EENTER > 2100 {
			t.Errorf("%s/%dUE EENTERs = %d, want ~1500-1800", row.Module, row.UEs, row.EENTER)
		}
		if row.EENTER <= row.EEXIT {
			t.Errorf("%s/%dUE EENTER (%d) not above EEXIT (%d)", row.Module, row.UEs, row.EENTER, row.EEXIT)
		}
		if row.AEX < 120_000 || row.AEX > 160_000 {
			t.Errorf("%s/%dUE AEXs = %d, want ~140k", row.Module, row.UEs, row.AEX)
		}
	}
	// AEX must be independent of the UE count (within noise).
	byModule := make(map[string][]uint64)
	for _, row := range r.Rows {
		byModule[row.Module] = append(byModule[row.Module], row.AEX)
	}
	for module, aexs := range byModule {
		var lo, hi = aexs[0], aexs[0]
		for _, v := range aexs {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if float64(hi-lo) > 0.05*float64(hi) {
			t.Errorf("%s AEX varies with UE count: %v", module, aexs)
		}
	}
	// Empty workload baseline near 762/680 EENTER/EEXIT and ~50k AEX.
	if r.Empty.EENTER < 700 || r.Empty.EENTER > 830 {
		t.Errorf("empty EENTERs = %d, want ~762", r.Empty.EENTER)
	}
	if r.Empty.EEXIT < 620 || r.Empty.EEXIT > 740 {
		t.Errorf("empty EEXITs = %d, want ~680", r.Empty.EEXIT)
	}
	if r.Empty.AEX < 45_000 || r.Empty.AEX > 55_000 {
		t.Errorf("empty AEXs = %d, want ~50k", r.Empty.AEX)
	}
	// Per-UE transition delta ~90.
	for _, kind := range paka.Kinds() {
		if d := r.PerUE[kind]; d < 80 || d > 100 {
			t.Errorf("%s per-UE EENTER delta = %d, want ~90", kind, d)
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Empty workload") {
		t.Fatal("render missing empty workload")
	}
}

func TestE2EShare(t *testing.T) {
	cfg := quick
	cfg.Iterations = 25
	r, err := E2E(context.Background(), cfg)
	if err != nil {
		t.Fatalf("E2E: %v", err)
	}
	if r.SGX.Median < 20*time.Millisecond || r.SGX.Median > 120*time.Millisecond {
		t.Errorf("SGX session setup = %v, want the paper's ~62 ms regime", r.SGX.Median)
	}
	if r.SGXDelta <= 0 {
		t.Fatal("SGX delta not positive")
	}
	if r.SGXShare < 0.01 || r.SGXShare > 0.15 {
		t.Errorf("SGX share = %.2f%%, want a small fraction (~5.58%%)", r.SGXShare*100)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "62.38") {
		t.Fatal("render missing paper reference")
	}
}

func TestOTA(t *testing.T) {
	r, err := OTA(context.Background(), quick)
	if err != nil {
		t.Fatalf("OTA: %v", err)
	}
	if !r.Registered || !r.DataEcho {
		t.Fatalf("OTA result = %+v", r)
	}
	if r.GUTI == "" || r.UEAddress == "" {
		t.Fatal("missing GUTI or UE address")
	}
	if len(r.Steps) < 6 {
		t.Fatalf("steps = %d", len(r.Steps))
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "OnePlus 8") {
		t.Fatal("render missing device")
	}
}

func TestStaticTablesRender(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	Table4(&buf)
	Table5(&buf)
	out := buf.String()
	for _, want := range []string{"Table I", "Table IV", "Table V", "eUDM", "Xeon", "KI"} {
		if !strings.Contains(out, want) {
			t.Errorf("static tables missing %q", want)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.iterations() != 500 {
		t.Fatalf("default iterations = %d", c.iterations())
	}
	c.Iterations = 10
	if c.iterations() != 10 {
		t.Fatalf("iterations = %d", c.iterations())
	}
}
