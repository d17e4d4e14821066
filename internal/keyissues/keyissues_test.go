package keyissues

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableMatchesPaper(t *testing.T) {
	rows := Table()
	if len(rows) != 13 {
		t.Fatalf("rows = %d, want 13 (paper Table V)", len(rows))
	}

	// 3GPP marks exactly KIs 6, 7, 15 and 25 as HMEE-applicable.
	want3GPP := map[int]bool{6: true, 7: true, 15: true, 25: true}
	for _, ki := range rows {
		if ki.HMEERecommended != want3GPP[ki.Number] {
			t.Errorf("KI %d HMEERecommended = %v", ki.Number, ki.HMEERecommended)
		}
		if ki.Description == "" || ki.Mechanism == "" {
			t.Errorf("KI %d missing description or mechanism", ki.Number)
		}
		if ki.Coverage != Full && ki.Coverage != Partial {
			t.Errorf("KI %d coverage = %v", ki.Number, ki.Coverage)
		}
	}

	// Full coverage per the paper: KIs 2, 6, 7, 13, 15, 25, 27.
	wantFull := map[int]bool{2: true, 6: true, 7: true, 13: true, 15: true, 25: true, 27: true}
	for _, ki := range rows {
		wantCov := Partial
		if wantFull[ki.Number] {
			wantCov = Full
		}
		if ki.Coverage != wantCov {
			t.Errorf("KI %d coverage = %v, want %v", ki.Number, ki.Coverage, wantCov)
		}
	}
}

func TestCoverageString(t *testing.T) {
	if Full.String() != "full" || Partial.String() != "partial" || Coverage(0).String() != "none" {
		t.Fatal("coverage names wrong")
	}
}

func TestRender(t *testing.T) {
	var buf bytes.Buffer
	Render(&buf)
	out := buf.String()
	for _, want := range []string{"Table V", "Memory introspection", "Container breakout", "KI"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	// Rows are in KI order.
	if strings.Index(out, "Confidentiality of sensitive data") > strings.Index(out, "Container breakout") {
		t.Error("rows not sorted by KI number")
	}
}
