package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"shield5g/internal/simclock"
)

// span is one interval at a layer boundary. Spans of one registration
// share reg; parent is the index, within that registration, of the span
// that caused this one (-1 for the root).
type span struct {
	name   string
	lane   int
	reg    uint64
	parent int
	start  int64 // wall ns since process start
	end    int64
	cycles simclock.Cycles
}

// keptRegistrations bounds the trace file: spans of the first
// registrations recorded are kept, later ones are built (so the cost of
// tracing stays on) and dropped.
const keptRegistrations = 2000

// spansPerReg is the span count of a regular registration: the root, the
// uplink build, and a radio, an AMF and a UE span per hop (no UE span
// after the last hop).
const spansPerReg = 2 + 3*regularHops - 1

// tracer keeps spans in memory until the workload ends.
type tracer struct {
	mu      sync.Mutex
	kept    []span
	regs    int
	scratch [][]span // per lane, reused once the kept budget is spent
}

func newTracer(lanes int) *tracer {
	tr := &tracer{
		kept:    make([]span, 0, keptRegistrations*spansPerReg),
		scratch: make([][]span, lanes),
	}
	for i := range tr.scratch {
		tr.scratch[i] = make([]span, 0, 2+3*maxHops)
	}
	return tr
}

// record turns one registration's boundary readings into spans: a root
// "registration" span, "ue.build_uplink", and per hop "gnb.radio" (zero
// wall width: the radio exists on the virtual clock only), "amf.<hop>" and
// the UE's handling of that hop's downlink.
func (tr *tracer) record(lane int, reg uint64, res *regResult) {
	spans := tr.scratch[lane][:0]
	add := func(name string, t0, t1 int64, cycles simclock.Cycles) {
		spans = append(spans, span{name: name, lane: lane, reg: reg, parent: 0, start: t0, end: t1, cycles: cycles})
	}
	last := 2 * res.hops
	add("registration", res.t[0], res.t[last], res.c[last]-res.c[0])
	spans[0].parent = -1
	for h := 0; h < res.hops; h++ {
		ueName := "ue.build_uplink"
		if h > 0 {
			ueName = "ue.downlink_" + hopName(h-1)
		}
		add(ueName, res.t[2*h], res.t[2*h+1], res.c[2*h+1]-res.c[2*h]-res.radio[h])
		add("gnb.radio", res.t[2*h+1], res.t[2*h+1], res.radio[h])
		add("amf."+hopName(h), res.t[2*h+1], res.t[2*h+2], res.c[2*h+2]-res.c[2*h+1])
	}
	tr.scratch[lane] = spans

	tr.mu.Lock()
	if tr.regs < keptRegistrations {
		tr.kept = append(tr.kept, spans...)
		tr.regs++
	}
	tr.mu.Unlock()
}

func hopName(h int) string {
	if h < regularHops {
		return hopNames[h]
	}
	return fmt.Sprintf("extra_%d", h-regularHops+1)
}

// traceEvent is one Chrome trace-event ("X" = complete event); load the
// file in chrome://tracing or https://ui.perfetto.dev.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the kept spans as Chrome trace-event JSON.
func (tr *tracer) write(path string, freqHz uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	_, _ = w.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	root := 0 // index in kept of the current registration's root span
	for i, s := range tr.kept {
		if s.parent < 0 {
			root = i
		}
		if i > 0 {
			_, _ = w.WriteString(",")
		}
		ev := traceEvent{
			Name: s.name, Cat: "registration", Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.lane,
			Args: map[string]any{
				"registration":   s.reg,
				"virtual_cycles": uint64(s.cycles),
				"virtual_us":     float64(simclock.Duration(s.cycles, freqHz)) / 1e3,
			},
		}
		if s.parent >= 0 {
			ev.Args["parent"] = tr.kept[root+s.parent].name
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	_, _ = w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeJSON stores v, indented, at dir/name and returns the path.
func writeJSON(dir, name string, v any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
