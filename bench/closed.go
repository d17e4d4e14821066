package main

import (
	"context"
	"fmt"
	"runtime"

	"shield5g/internal/paka"
	"shield5g/internal/simclock"
)

// setups is how many times a run builds its slice and population; the
// reported set-up time is the median.
const setups = 3

// replayOps is the length of the second in-process replay of a run's
// first operations, which must reproduce their virtual cost exactly.
const replayOps = 1000

// sample is everything one run of a workload measured, before it is
// turned into named metrics.
type sample struct {
	w   *workload
	rig *rig // the measured slice, live until stop: the main rig, or the measured rung's

	setupS []float64 // one wall-clock set-up time per set-up made

	// window holds every registered operation of the timed window per lane
	// (wall series); prefix holds the leading fixed-count part per lane that
	// all count-type metrics are taken over, and sums its layer figures.
	window [][]regRecord
	prefix [][]regRecord
	sums   laneSums

	offered, registered, failed, shed int // whole window
	firstErr                          error

	before, after counters // at the edges of the prefix
	latencies     [3]moduleLatencies
	rtOpen        runtimeReading // window open, after a forced GC
	rtPrefix      runtimeReading // prefix end, before the GC that measures heap
	rtClose       runtimeReading // window close
	heapLive      uint64         // HeapAlloc after a forced GC at prefix end
	windowNs      int64
	goroutinesEnd int
	pendingAuth   int

	// Container-isolation twin: mean core cost of its first twinRegs
	// registrations, and of the same registrations on the measured slice.
	twinRegs           int
	twinCoreCycles     float64
	mainTwinCoreCycles float64
	twinLatencies      [3]moduleLatencies

	// replayIdentical reports whether the replay of the first replayOps
	// operations reproduced their virtual cost bit for bit; replayDrift is
	// the relative difference of the mean otherwise.
	replayIdentical bool
	replayDrift     float64

	ladder *ladder // storm_ladder only
	tracer *tracer // traced pass only
}

// stop tears the measured slice down once nothing reads it any more.
func (s *sample) stop() { s.rig.slice.Stop() }

func (s *sample) freq() uint64 { return s.rig.slice.Env.Clock.FrequencyHz() }

func (s *sample) ms(c float64) float64 {
	return c / float64(s.freq()) * 1e3
}

// interleave returns the first n records in operation order: lane l of W
// issued operations l, l+W, l+2W, ...
func interleave(lanes [][]regRecord, n int) []regRecord {
	out := make([]regRecord, 0, n)
	for i := 0; len(out) < n; i++ {
		progressed := false
		for _, l := range lanes {
			if i < len(l) && len(out) < n {
				out = append(out, l[i])
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	return out
}

func meanCore(regs []regRecord) float64 {
	var sum simclock.Cycles
	for _, r := range regs {
		sum += r.core
	}
	if len(regs) == 0 {
		return 0
	}
	return float64(sum) / float64(len(regs))
}

// openPrefix takes the readings at the start of the fixed-count part.
func (s *sample) openPrefix() {
	resetRecorders(s.rig.slice)
	runtime.GC()
	s.rtOpen = readRuntime()
	s.before = readCounters(s.rig.slice)
}

// closePrefix takes the readings at its end, then forces a collection to
// measure what the core retains.
func (s *sample) closePrefix() {
	slice := s.rig.slice
	s.rtPrefix = readRuntime()
	s.after = readCounters(slice)
	for k := range s.latencies {
		s.latencies[k] = readLatencies(slice, k)
	}
	for _, shard := range slice.Shards {
		s.pendingAuth += shard.AUSF.PendingSessions()
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.heapLive = ms.HeapAlloc
}

// compareReplay checks a same-seed replay against the head of the run.
func (s *sample) compareReplay(head, replay []regRecord) {
	n := min(len(head), len(replay))
	head, replay = head[:n], replay[:n]
	s.replayIdentical = n > 0
	for i := range head {
		if head[i].setup != replay[i].setup || head[i].core != replay[i].core {
			s.replayIdentical = false
		}
	}
	if a, b := meanCore(head), meanCore(replay); a > 0 {
		s.replayDrift = (b - a) / a
	}
}

// readTwin records the Container twin's figures: the mean core cost of its
// registrations against the same registrations of the measured slice.
func (s *sample) readTwin(twin *rig, twinRegs, same []regRecord) {
	s.twinRegs = len(twinRegs)
	s.twinCoreCycles = meanCore(twinRegs)
	s.mainTwinCoreCycles = meanCore(same)
	for k := range s.twinLatencies {
		s.twinLatencies[k] = readLatencies(twin.slice, k)
	}
	for _, l := range twin.lanes {
		if l.failed > 0 && s.firstErr == nil {
			s.firstErr = fmt.Errorf("container twin: %w", l.firstErr)
		}
	}
}

// runPrefix runs the first n window operations of r, split over its lanes.
func runPrefix(r *rig, n int) {
	r.runLanes(true, func(l *lane) bool { return l.issued >= r.prefixShare(l.id, n) })
}

// laneRecords collects what the lanes registered so far.
func laneRecords(r *rig) [][]regRecord {
	out := make([][]regRecord, len(r.lanes))
	for i, l := range r.lanes {
		out[i] = l.regs
	}
	return out
}

// runClosed measures one closed-loop workload.
func runClosed(ctx context.Context, w *workload, seed uint64, seconds float64, traced bool) (*sample, error) {
	s := &sample{w: w}

	// Set-up, several times over: identical arguments build identical rigs,
	// so the first one doubles as the replay of the run's first operations.
	var replay []regRecord
	var main *rig
	for i := 0; i < setups; i++ {
		runtime.GC()
		r, err := newRig(ctx, w, seed, paka.SGX)
		if err != nil {
			return nil, err
		}
		s.setupS = append(s.setupS, float64(r.setupNs())/1e9)
		switch i {
		case 0:
			runPrefix(r, replayOps)
			replay = interleave(laneRecords(r), replayOps)
			r.slice.Stop()
		case setups - 1:
			main = r
		default:
			r.slice.Stop()
		}
	}
	s.rig = main
	if traced {
		s.tracer = newTracer(len(main.lanes))
		for _, l := range main.lanes {
			l.tr = s.tracer
		}
	}

	// Window: the fixed prefix, then more of the same until the time is up.
	s.openPrefix()
	open := now()
	runPrefix(main, w.prefix)
	s.prefix = laneRecords(main)
	for _, l := range main.lanes {
		s.sums.merge(&l.sums)
	}
	s.closePrefix()

	deadline := open + int64(seconds*1e9)
	for _, l := range main.lanes {
		l.lastT = now()
	}
	main.runLanes(false, func(l *lane) bool { return l.lastT >= deadline })
	s.windowNs = now() - open
	s.rtClose = readRuntime()
	s.goroutinesEnd = runtime.NumGoroutine()
	s.window = laneRecords(main)
	for _, l := range main.lanes {
		s.offered += l.issued
		s.registered += len(l.regs)
		s.failed += l.failed
		if s.firstErr == nil {
			s.firstErr = l.firstErr
		}
	}
	s.compareReplay(interleave(s.prefix, replayOps), replay)

	// Container twin: the same first operations without the enclave.
	twin, err := newRig(ctx, w, seed, paka.Container)
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("container twin: %w", err)
	}
	defer twin.slice.Stop()
	resetRecorders(twin.slice)
	runPrefix(twin, w.twin)
	twinRegs := interleave(laneRecords(twin), w.twin)
	s.readTwin(twin, twinRegs, interleave(s.prefix, len(twinRegs)))
	return s, nil
}
