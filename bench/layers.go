package main

import (
	"runtime"
	"runtime/metrics"
	"time"

	"shield5g/internal/admission"
	"shield5g/internal/deploy"
	"shield5g/internal/hmee/sgx"
	rec "shield5g/internal/metrics"
	"shield5g/internal/nf/udm"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
)

// moduleNames index the per-module metrics in paka.Kinds() order.
var moduleNames = [3]string{"eudm", "eausf", "eamf"}

// counters is one reading of every counter the layers already export,
// summed over the slice's replicas. Two readings at the edges of the
// prefix give the per-registration layer figures.
type counters struct {
	sgx       sgx.StatsSnapshot
	ring      sgx.RingStats
	pool      udm.AVPoolStats
	resil     sbi.ResilienceStats
	admission admission.Stats
	overload  sbi.OverloadStats // Served/Shed/QueueDelay summed, PeakQueue maxed over services
	reprov    uint64
	// requests counts the VNF-side responses recorded per module kind.
	requests [3]int
}

func readCounters(s *deploy.Slice) counters {
	var c counters
	for _, shard := range s.Shards {
		for k, kind := range paka.Kinds() {
			if m, ok := shard.Modules[kind]; ok {
				st := m.Stats()
				c.sgx.EENTER += st.EENTER
				c.sgx.EEXIT += st.EEXIT
				c.sgx.AEX += st.AEX
				c.sgx.ERESUME += st.ERESUME
				c.sgx.ECALLs += st.ECALLs
				c.sgx.OCALLs += st.OCALLs
				c.sgx.PageFaults += st.PageFaults
				rs := m.RingStats()
				c.ring.Submitted += rs.Submitted
				c.ring.Completed += rs.Completed
				c.ring.Doorbells += rs.Doorbells
				c.ring.Parks += rs.Parks
				c.ring.Backpressure += rs.Backpressure
				c.ring.Drained += rs.Drained
			}
			if r := responseOf(shard, kind); r != nil {
				c.requests[k] += r.Initial.N() + r.Stable.N()
			}
		}
		c.reprov += shard.UDM.Reprovisions()
	}
	c.pool = s.AVPoolStats()
	c.resil = s.ResilienceStats()
	c.admission = s.AdmissionStats()
	for _, st := range s.OverloadStats() {
		for i := range st.Served {
			c.overload.Served[i] += st.Served[i]
			c.overload.Shed[i] += st.Shed[i]
		}
		c.overload.QueueDelay += st.QueueDelay
		if st.PeakQueue > c.overload.PeakQueue {
			c.overload.PeakQueue = st.PeakQueue
		}
	}
	return c
}

// responseOf is the VNF-side response recorder of one module kind (nil for
// monolithic slices, which the benchmark never deploys).
func responseOf(shard *deploy.CoreShard, kind paka.ModuleKind) *paka.ResponseRecorder {
	switch kind {
	case paka.EUDM:
		if shard.RemoteUDM != nil {
			return shard.RemoteUDM.Response()
		}
	case paka.EAUSF:
		if shard.RemoteAUSF != nil {
			return shard.RemoteAUSF.Response()
		}
	case paka.EAMF:
		if shard.RemoteAMF != nil {
			return shard.RemoteAMF.Response()
		}
	}
	return nil
}

// resetRecorders empties the per-module latency recorders, as the
// experiments do between phases, so that the next reading holds the
// window's samples only. R_I (the first response ever) is kept.
func resetRecorders(s *deploy.Slice) {
	for _, shard := range s.Shards {
		for _, kind := range paka.Kinds() {
			if m, ok := shard.Modules[kind]; ok {
				m.ResetRecorders()
			}
			if r := responseOf(shard, kind); r != nil {
				r.Stable.Reset()
			}
		}
	}
}

// moduleLatencies are the paper's per-module quantities, virtual time.
type moduleLatencies struct {
	responseP50us   float64 // R_S
	functionalP50us float64 // L_F
	totalP50us      float64 // L_T
	initialMs       float64 // R_I, the very first response
}

// readLatencies summarises module kind k's recorders since the last
// resetRecorders, merged over replicas.
func readLatencies(s *deploy.Slice, k int) moduleLatencies {
	kind := paka.Kinds()[k]
	var resp, fn, total []time.Duration
	var initial time.Duration
	for _, shard := range s.Shards {
		if r := responseOf(shard, kind); r != nil {
			resp = append(resp, r.Stable.Samples()...)
			if in := r.Initial.Samples(); len(in) > 0 && initial == 0 {
				initial = in[0]
			}
		}
		if m, ok := shard.Modules[kind]; ok {
			fn = append(fn, m.FunctionalLatency().Samples()...)
			total = append(total, m.TotalLatency().Samples()...)
		}
	}
	p50us := func(d []time.Duration) float64 {
		return float64(rec.Summarize(d).Median) / float64(time.Microsecond)
	}
	return moduleLatencies{
		responseP50us:   p50us(resp),
		functionalP50us: p50us(fn),
		totalP50us:      p50us(total),
		initialMs:       float64(initial) / float64(time.Millisecond),
	}
}

// runtimeReading is the Go runtime's view at a window edge.
type runtimeReading struct {
	mem      runtime.MemStats
	gcCPU    float64 // cumulative GC CPU seconds
	totalCPU float64 // cumulative available CPU seconds
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeReading {
	var r runtimeReading
	runtime.ReadMemStats(&r.mem)
	metrics.Read(runtimeSamples)
	if runtimeSamples[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = runtimeSamples[0].Value.Float64()
	}
	if runtimeSamples[1].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = runtimeSamples[1].Value.Float64()
	}
	return r
}
