package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"time"

	"shield5g/internal/paka"
	"shield5g/internal/sbi"
)

// perLayer lists the metrics of single layers; layers are this repository's
// packages. They carry no bound. Counter metrics are deltas over the prefix
// of counters the layers already export, span metrics come from the
// driver's boundary readings, probe metrics from probes.go. A metric whose
// mechanism a workload does not use reads 0 there (ring figures on classic
// ECALLs, overload figures on closed loops, storm figures off the ladder).
var perLayer = []spec{
	{"gnb.radio_virtual_ms_per_reg", "ms", "lower", 0},
	{"gnb.nas_hops_per_reg", "count", "lower", 0},
	{"gnb.lane_balance", "ratio", "higher", 0},
	{"gnb.failed_share", "ratio", "lower", 0},
	{"gnb.route_wall_ns_per_op", "ns", "lower", 0},

	{"ue.pregen_wall_us_per_ue", "us", "lower", 0},
	{"ue.downlink_wall_us_per_reg", "us", "lower", 0},
	{"ue.virtual_ms_per_reg", "ms", "lower", 0},

	{"nas.encode_wall_ns_per_op", "ns", "lower", 0},
	{"nas.decode_wall_ns_per_op", "ns", "lower", 0},
	{"nas.protect_wall_ns_per_op", "ns", "lower", 0},
	{"nas.unprotect_wall_ns_per_op", "ns", "lower", 0},
	{"nas.allocs_per_op", "count", "lower", 0},

	{"amf.initial_ue_wall_us", "us", "lower", 0},
	{"amf.initial_ue_virtual_ms", "ms", "lower", 0},
	{"amf.auth_response_wall_us", "us", "lower", 0},
	{"amf.auth_response_virtual_ms", "ms", "lower", 0},
	{"amf.smc_complete_wall_us", "us", "lower", 0},
	{"amf.smc_complete_virtual_ms", "ms", "lower", 0},
	{"amf.registration_complete_wall_us", "us", "lower", 0},
	{"amf.registration_complete_virtual_ms", "ms", "lower", 0},
	{"amf.reg_wall_us_p50", "us", "lower", 0},
	{"amf.reg_wall_us_p99", "us", "lower", 0},

	{"ausf.authenticate_subtree_wall_us_per_op", "us", "lower", 0},
	{"ausf.authenticate_subtree_virtual_ms_per_op", "ms", "lower", 0},
	{"ausf.pending_sessions_end", "count", "lower", 0},

	{"udm.generate_auth_data_subtree_wall_us_per_op", "us", "lower", 0},
	{"udm.generate_auth_data_subtree_virtual_ms_per_op", "ms", "lower", 0},
	{"udm.avpool_hit_ratio", "ratio", "higher", 0},
	{"udm.avpool_refills_per_reg", "count", "lower", 0},
	{"udm.avpool_minted_per_used", "ratio", "lower", 0},
	{"udm.avpool_pooled_end", "count", "lower", 0},
	{"udm.reprovisions", "count", "lower", 0},

	{"udr.next_auth_wall_ns_per_op", "ns", "lower", 0},
	{"udr.next_auth_virtual_us_per_op", "us", "lower", 0},
	{"udr.subscribers", "count", "lower", 0},

	{"sbi.post_json_wall_ns_per_op", "ns", "lower", 0},
	{"sbi.post_json_virtual_us_per_op", "us", "lower", 0},
	{"sbi.post_json_allocs_per_op", "count", "lower", 0},
	{"sbi.post_binary_wall_ns_per_op", "ns", "lower", 0},
	{"sbi.post_binary_virtual_us_per_op", "us", "lower", 0},
	{"sbi.post_binary_allocs_per_op", "count", "lower", 0},
	{"sbi.resilience_retries_per_reg", "count", "lower", 0},
	{"sbi.resilience_throttled_per_reg", "count", "lower", 0},
	{"sbi.breaker_opens", "count", "lower", 0},
	{"sbi.deadline_hits", "count", "lower", 0},
	{"sbi.overload_queue_delay_virtual_ms_per_reg", "ms", "lower", 0},
	{"sbi.overload_shed_share", "ratio", "lower", 0},
	{"sbi.overload_peak_queue", "count", "lower", 0},

	{"paka.eudm.requests_per_reg", "count", "lower", 0},
	{"paka.eudm.response_virtual_us_p50", "us", "lower", 0},
	{"paka.eudm.functional_virtual_us_p50", "us", "lower", 0},
	{"paka.eudm.total_virtual_us_p50", "us", "lower", 0},
	{"paka.eudm.initial_response_virtual_ms", "ms", "lower", 0},
	{"paka.eudm.response_ratio_vs_container", "ratio", "lower", 0},
	{"paka.eudm.request_wall_us_per_op", "us", "lower", 0},
	{"paka.eausf.requests_per_reg", "count", "lower", 0},
	{"paka.eausf.response_virtual_us_p50", "us", "lower", 0},
	{"paka.eausf.functional_virtual_us_p50", "us", "lower", 0},
	{"paka.eausf.total_virtual_us_p50", "us", "lower", 0},
	{"paka.eausf.initial_response_virtual_ms", "ms", "lower", 0},
	{"paka.eausf.response_ratio_vs_container", "ratio", "lower", 0},
	{"paka.eausf.request_wall_us_per_op", "us", "lower", 0},
	{"paka.eamf.requests_per_reg", "count", "lower", 0},
	{"paka.eamf.response_virtual_us_p50", "us", "lower", 0},
	{"paka.eamf.functional_virtual_us_p50", "us", "lower", 0},
	{"paka.eamf.total_virtual_us_p50", "us", "lower", 0},
	{"paka.eamf.initial_response_virtual_ms", "ms", "lower", 0},
	{"paka.eamf.response_ratio_vs_container", "ratio", "lower", 0},
	{"paka.eamf.request_wall_us_per_op", "us", "lower", 0},

	{"hmee.sgx.transitions_per_reg", "count", "lower", 0},
	{"hmee.sgx.ocalls_per_reg", "count", "lower", 0},
	{"hmee.sgx.aex_per_reg", "count", "lower", 0},
	{"hmee.sgx.page_faults_per_reg", "count", "lower", 0},
	{"hmee.sgx.ring_share", "ratio", "higher", 0},
	{"hmee.sgx.ring_doorbells_per_reg", "count", "lower", 0},
	{"hmee.sgx.ring_backpressure", "count", "lower", 0},
	{"hmee.sgx.ring_parks_per_reg", "count", "lower", 0},
	{"hmee.sgx.ring_roundtrip_wall_ns_per_op", "ns", "lower", 0},
	{"hmee.sgx.ecall_roundtrip_wall_ns_per_op", "ns", "lower", 0},

	{"hmee.gramine.load_virtual_s.eudm", "s", "lower", 0},
	{"hmee.gramine.load_virtual_s.eausf", "s", "lower", 0},
	{"hmee.gramine.load_virtual_s.eamf", "s", "lower", 0},

	{"crypto.suci.conceal_wall_us_per_op", "us", "lower", 0},
	{"crypto.suci.conceal_allocs_per_op", "count", "lower", 0},
	{"crypto.suci.deconceal_wall_us_per_op", "us", "lower", 0},
	{"crypto.suci.deconceal_allocs_per_op", "count", "lower", 0},
	{"crypto.milenage.av_cached_wall_ns_per_op", "ns", "lower", 0},
	{"crypto.milenage.av_cached_allocs_per_op", "count", "lower", 0},
	{"crypto.milenage.av_cold_wall_ns_per_op", "ns", "lower", 0},
	{"crypto.milenage.av_cold_allocs_per_op", "count", "lower", 0},
	{"crypto.kdf.chain_wall_ns_per_op", "ns", "lower", 0},
	{"crypto.kdf.chain_allocs_per_op", "count", "lower", 0},

	{"admission.drop_share.fresh", "ratio", "lower", 0},
	{"admission.drop_share.reattach", "ratio", "lower", 0},
	{"admission.drop_share.emergency", "ratio", "lower", 0},
	{"admission.admit_wall_ns_per_op", "ns", "lower", 0},

	{"shard.map_wall_ns_per_op.w1", "ns", "lower", 0},
	{"shard.map_wall_ns_per_op.wN", "ns", "lower", 0},
	{"topology.route_wall_ns_per_op", "ns", "lower", 0},
	{"topology.epoch", "count", "higher", 0},

	{"runtime.bytes_per_reg", "B", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_cpu_share", "ratio", "lower", 0},
	{"runtime.gc_pause_total_ms", "ms", "lower", 0},
	{"runtime.goroutines_end", "count", "lower", 0},

	{"storm.knee_virtual_regs_per_s", "1/s", "higher", 0},
	{"storm.overload_emergency_goodput_virtual_regs_per_s", "1/s", "higher", 0},
	{"storm.overload_emergency_p99_virtual_ms", "ms", "lower", 0},

	{"bench.trace_overhead_share", "ratio", "lower", 0},
	{"bench.timer_ns_per_read", "ns", "lower", 0},
	{"bench.calibration_us_p10", "us", "lower", 0},
	{"bench.calibration_p90_over_p10", "ratio", "lower", 0},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerValues turns a sample into the per-layer metrics; it runs the probes.
func (s *sample) layerValues(ctx context.Context, host hostInfo) (values, error) {
	v := values{}
	slice := s.rig.slice
	sums := &s.sums
	n := float64(sums.regs)
	before, after := &s.before, &s.after
	prefix := flatten(s.prefix)

	// gnb: the driver stands in for it.
	counts, _ := laneLoads(prefix, len(slice.Shards))
	busiest := slices.Max(counts)
	v["gnb.radio_virtual_ms_per_reg"] = s.ms(float64(sums.radio)) / n
	v["gnb.nas_hops_per_reg"] = float64(sums.hops) / n
	v["gnb.lane_balance"] = ratio(n, float64(len(counts)*busiest))
	v["gnb.failed_share"] = ratio(float64(s.failed+s.shed), float64(s.offered))

	// ue: the load generator.
	v["ue.pregen_wall_us_per_ue"] = float64(sums.uplinkNs) / 1e3 / n
	v["ue.downlink_wall_us_per_reg"] = float64(sums.ueNs) / 1e3 / n
	v["ue.virtual_ms_per_reg"] = s.ms(float64(sums.ueCyc)) / n

	// amf: one span per hop.
	for h, name := range hopNames {
		v["amf."+name+"_wall_us"] = float64(sums.hopNs[h]) / 1e3 / n
		v["amf."+name+"_virtual_ms"] = s.ms(float64(sums.hopCyc[h])) / n
	}
	wall := sutSeries(flatten(s.window), all)
	v["amf.reg_wall_us_p50"] = percentile(wall, 0.50)
	v["amf.reg_wall_us_p99"] = percentile(wall, 0.99)

	v["ausf.pending_sessions_end"] = float64(s.pendingAuth)

	// udm: pool counters. Every vector minted was used, is still banked, or
	// was invalidated.
	hits := float64(after.pool.Hits - before.pool.Hits)
	used := hits + float64(after.pool.Misses-before.pool.Misses)
	minted := used + float64(after.pool.Pooled-before.pool.Pooled) + float64(after.pool.Invalidated-before.pool.Invalidated)
	v["udm.avpool_hit_ratio"] = ratio(hits, used)
	v["udm.avpool_refills_per_reg"] = float64(after.pool.Refills-before.pool.Refills) / n
	v["udm.avpool_minted_per_used"] = ratio(minted, used)
	v["udm.avpool_pooled_end"] = float64(after.pool.Pooled)
	v["udm.reprovisions"] = float64(after.reprov - before.reprov)
	v["udr.subscribers"] = float64(slice.UDR.SubscriberCount())

	// sbi: resilience and overload counters.
	v["sbi.resilience_retries_per_reg"] = float64(after.resil.Retries-before.resil.Retries) / n
	v["sbi.resilience_throttled_per_reg"] = float64(after.resil.Throttled-before.resil.Throttled) / n
	v["sbi.breaker_opens"] = float64(after.resil.Breaker.Opens - before.resil.Breaker.Opens)
	v["sbi.deadline_hits"] = float64(after.resil.DeadlineHits - before.resil.DeadlineHits)
	var served, shed float64
	for c := range after.overload.Served {
		served += float64(after.overload.Served[c] - before.overload.Served[c])
		shed += float64(after.overload.Shed[c] - before.overload.Shed[c])
	}
	delay := after.overload.QueueDelay - before.overload.QueueDelay
	v["sbi.overload_queue_delay_virtual_ms_per_reg"] = float64(delay) / float64(time.Millisecond) / n
	v["sbi.overload_shed_share"] = ratio(shed, served+shed)
	v["sbi.overload_peak_queue"] = float64(after.overload.PeakQueue)

	// paka and hmee: the paper's per-module quantities.
	for k, kind := range paka.Kinds() {
		name := "paka." + moduleNames[k]
		lat, twin := s.latencies[k], s.twinLatencies[k]
		v[name+".requests_per_reg"] = float64(after.requests[k]-before.requests[k]) / n
		v[name+".response_virtual_us_p50"] = lat.responseP50us
		v[name+".functional_virtual_us_p50"] = lat.functionalP50us
		v[name+".total_virtual_us_p50"] = lat.totalP50us
		v[name+".initial_response_virtual_ms"] = lat.initialMs
		v[name+".response_ratio_vs_container"] = ratio(lat.responseP50us, twin.responseP50us)
		v["hmee.gramine.load_virtual_s."+moduleNames[k]] = slice.Shards[0].Modules[kind].LoadDuration().Seconds()
	}
	d := after.sgx.Sub(before.sgx)
	v["hmee.sgx.transitions_per_reg"] = float64(d.EENTER+d.EEXIT) / n
	v["hmee.sgx.ocalls_per_reg"] = float64(d.OCALLs) / n
	v["hmee.sgx.aex_per_reg"] = float64(d.AEX) / n
	v["hmee.sgx.page_faults_per_reg"] = float64(d.PageFaults) / n
	// Share of crossings made through a ring: a doorbell is counted as an
	// ECALL too, but belongs to the submission that rang it.
	submitted := float64(after.ring.Submitted - before.ring.Submitted)
	doorbells := float64(after.ring.Doorbells - before.ring.Doorbells)
	v["hmee.sgx.ring_share"] = ratio(submitted, submitted+float64(d.ECALLs)-doorbells)
	v["hmee.sgx.ring_doorbells_per_reg"] = doorbells / n
	v["hmee.sgx.ring_backpressure"] = float64(after.ring.Backpressure - before.ring.Backpressure)
	v["hmee.sgx.ring_parks_per_reg"] = float64(after.ring.Parks-before.ring.Parks) / n

	// admission.
	classes := [3]string{sbi.PriorityFresh: "fresh", sbi.PriorityReattach: "reattach", sbi.PriorityEmergency: "emergency"}
	for c, name := range classes {
		dropped := float64(after.admission.Dropped[c] - before.admission.Dropped[c])
		admitted := float64(after.admission.Admitted[c] - before.admission.Admitted[c])
		v["admission.drop_share."+name] = ratio(dropped, dropped+admitted)
	}

	// runtime: allocation over the prefix, collector over the whole window.
	v["runtime.bytes_per_reg"] = float64(s.rtPrefix.mem.TotalAlloc-s.rtOpen.mem.TotalAlloc) / n
	v["runtime.gc_cycles"] = float64(s.rtClose.mem.NumGC - s.rtOpen.mem.NumGC)
	v["runtime.gc_cpu_share"] = ratio(s.rtClose.gcCPU-s.rtOpen.gcCPU, s.rtClose.totalCPU-s.rtOpen.totalCPU)
	v["runtime.gc_pause_total_ms"] = float64(s.rtClose.mem.PauseTotalNs-s.rtOpen.mem.PauseTotalNs) / 1e6
	v["runtime.goroutines_end"] = float64(s.goroutinesEnd)

	// storm: the ladder's own figures.
	l, top := &ladder{}, &rung{}
	if s.ladder != nil {
		l, top = s.ladder, s.ladder.Rungs[len(s.ladder.Rungs)-1]
	}
	v["storm.knee_virtual_regs_per_s"] = l.KneeRatePerS
	v["storm.overload_emergency_goodput_virtual_regs_per_s"] = top.EmergencyGoodput
	v["storm.overload_emergency_p99_virtual_ms"] = top.EmergencyP99Ms

	// bench: the harness itself. Tracing overhead is the quiet SUT cost of
	// the chunks whose spans were recorded against the chunks without.
	off, on := quietPerLane(s.window, untraced), quietPerLane(s.window, isTraced)
	v["bench.trace_overhead_share"] = 0
	if len(on) > 0 && len(off) > 0 {
		v["bench.trace_overhead_share"] = percentile(on, 0.5)/percentile(off, 0.5) - 1
	}
	v["bench.timer_ns_per_read"] = host.TimerNs
	v["bench.calibration_us_p10"] = host.CalibP10Us
	v["bench.calibration_p90_over_p10"] = ratio(host.CalibP90Us, host.CalibP10Us)

	p, err := newProber(ctx, s.rig)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	if err := p.run(v); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	return v, nil
}

// layersFile is what the traced pass stores beside the trace.
type layersFile struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Host     hostInfo          `json:"host"`
	Metrics  map[string]metric `json:"per_layer"`
	Ladder   *ladder           `json:"storm_ladder,omitempty"`
	Note     string            `json:"note"`
}

// writeTrace stores the spans and the per-layer metrics under dir.
func (s *sample) writeTrace(o options, m map[string]metric) error {
	path, err := writeJSON(o.out, s.w.name+".layers.json", layersFile{
		Workload: s.w.name, Seed: o.seed, Host: o.host, Metrics: m, Ladder: s.ladder,
		Note: "NF self-times are subtree differences (amf hop minus ausf subtree, ...) and therefore estimates until spans exist below amf",
	})
	if err != nil {
		return err
	}
	tracePath := filepath.Join(o.out, s.w.name+".trace.json")
	if err := s.tracer.write(tracePath, s.freq()); err != nil {
		return err
	}
	fmt.Fprintf(o.log, "  trace: %s (first %d registrations; open in chrome://tracing or ui.perfetto.dev), layers: %s\n",
		tracePath, s.tracer.regs, path)
	return nil
}

// print writes the ladder: latency and loss at each fixed offered rate.
func (l *ladder) print(w io.Writer) {
	fmt.Fprintf(w, "  %6s %12s %8s %10s %6s %7s %9s %9s %10s %5s\n",
		"factor", "offered/s", "offered", "registered", "shed", "failed", "p50 ms", "p99 ms", "backlog ms", "meets")
	for _, g := range l.Rungs {
		fmt.Fprintf(w, "  %6.2f %12.1f %8d %10d %6d %7d %9.2f %9.2f %10.2f %5v\n",
			g.Factor, g.RatePerS, g.offered(), g.registered(), g.Shed[0]+g.Shed[1]+g.Shed[2],
			g.Failed[0]+g.Failed[1]+g.Failed[2], g.P50Ms, g.P99Ms, g.BacklogMs, g.Pass)
	}
	fmt.Fprintf(w, "  limits: all-class p99 setup <= %.0f ms, failed+shed <= %.0f %%, makespan - window <= %.0f ms, every lower rung passing too\n",
		kneeP99Ms, 100*kneeLossShare, kneeBacklogMs)
}
