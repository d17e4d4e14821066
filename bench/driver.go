package main

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"shield5g/internal/sbi"
	"shield5g/internal/simclock"
	"shield5g/internal/ue"
)

// maxHops bounds the amf.* calls of one registration: the initial UE
// message and three uplinks, plus room for an identity or resync round.
const maxHops = 6

// regularHops is the hop count of a registration that needed no identity
// or resynchronisation round; hop metrics are indexed on that shape.
const regularHops = 4

var hopNames = [regularHops]string{"initial_ue", "auth_response", "smc_complete", "registration_complete"}

// regResult is what one registration cost. It holds the readings of both
// clocks at every boundary between the load generator and the system
// under test: t[0]/c[0] at the start, t[2h+1]/c[2h+1] just before the h'th
// amf.* call (UE work done, radio charged) and t[2h+2]/c[2h+2] just after
// it. Everything the benchmark reports about one registration is a
// difference of two of these readings, so SUT time and generator time
// cannot leak into each other.
type regResult struct {
	hops  int
	shard int // replica that served the registration
	t     [2*maxHops + 1]int64
	c     [2*maxHops + 1]simclock.Cycles
	radio [maxHops]simclock.Cycles
}

func (r *regResult) setup() simclock.Cycles { return r.c[2*r.hops] - r.c[0] }

// sut sums both clocks over the amf.* calls.
func (r *regResult) sut() (ns int64, cycles simclock.Cycles) {
	for h := 0; h < r.hops; h++ {
		ns += r.t[2*h+2] - r.t[2*h+1]
		cycles += r.c[2*h+2] - r.c[2*h+1]
	}
	return ns, cycles
}

// register drives one registration from outside, the way
// gnb.driveRegistration does from inside: build the uplink, then for every
// NAS round charge the radio, call the AMF, and hand the downlink to the
// UE, until the AMF has nothing more to say. Success means the AMF reports
// the device's own SUPI as registered and the device holds a GUTI. ctx must
// carry acct.
func (r *rig) register(ctx context.Context, acct *simclock.Account, dev *ue.UE, ranUEID uint64, res *regResult) error {
	res.hops = 0
	res.shard = r.slice.GNB.ShardOf(dev.SUPIString())
	a := r.slice.Shards[res.shard].AMF
	env := r.slice.Env
	rtt := r.slice.GNB.Radio().RTTCycles
	res.t[0], res.c[0] = now(), acct.Total()

	var uplink []byte
	var err error
	if _, held := dev.GUTI(); held {
		uplink, err = dev.BuildReRegistrationRequest(ctx, r.snn)
	} else {
		uplink, err = dev.BuildRegistrationRequest(ctx, r.snn)
	}
	if err != nil {
		return fmt.Errorf("build uplink: %w", err)
	}

	var downlink []byte
	done := false
	for h := 0; ; h++ {
		// One access-side NAS round trip, as gnb.chargeRadio charges it.
		res.radio[h] = env.JitterFor(ctx).Scale(rtt, 0.1)
		env.Charge(ctx, res.radio[h])

		res.t[2*h+1], res.c[2*h+1] = now(), acct.Total()
		if h == 0 {
			downlink, err = a.HandleInitialUE(ctx, ranUEID, uplink)
		} else {
			downlink, err = a.HandleUplinkNAS(ctx, ranUEID, uplink)
		}
		res.t[2*h+2], res.c[2*h+2] = now(), acct.Total()
		res.hops = h + 1
		if err != nil {
			return err
		}
		if downlink == nil || done {
			break // registration complete acknowledged
		}
		if h+1 == maxHops {
			return errors.New("NAS exchange did not converge")
		}
		uplink, done, err = dev.HandleDownlinkNAS(ctx, downlink)
		if err != nil {
			return fmt.Errorf("UE NAS handling: %w", err)
		}
		if uplink == nil {
			if done {
				break
			}
			return errors.New("UE stalled without uplink")
		}
	}

	supi, ok := a.SUPIOf(ranUEID)
	if !ok {
		return errors.New("registration did not complete")
	}
	if supi != dev.SUPIString() {
		return fmt.Errorf("AMF registered %s for %s", supi, dev.SUPIString())
	}
	if _, held := dev.GUTI(); !held {
		return fmt.Errorf("%s registered without a GUTI", supi)
	}
	return nil
}

// regRecord is the per-registration series the window keeps.
type regRecord struct {
	setup simclock.Cycles
	core  simclock.Cycles
	sutNs int64
	shard uint8
	class sbi.Priority // storm arrivals only; closed loops leave it 0
	// traced marks registrations whose spans were recorded (traced pass,
	// every other block of traceBlock registrations).
	traced bool
}

// record condenses a successful registration into its series entry.
func (r *regResult) record(class sbi.Priority, traced bool) regRecord {
	ns, cycles := r.sut()
	return regRecord{setup: r.setup(), core: cycles, sutNs: ns, shard: uint8(r.shard), class: class, traced: traced}
}

// traceBlock is the number of consecutive registrations of a lane that are
// traced, or not, together; a whole number of chunks.
const traceBlock = 8 * chunkSize

// laneSums accumulates the layer figures of one lane.
type laneSums struct {
	regs      int
	irregular int // registered with a hop count other than regularHops
	hops      int
	hopNs     [regularHops]int64
	hopCyc    [regularHops]simclock.Cycles
	sutNs     int64
	core      simclock.Cycles
	radio     simclock.Cycles
	ueCyc     simclock.Cycles
	uplinkNs  int64 // UE building the initial uplink (SUCI concealment for attaches)
	ueNs      int64 // UE handling downlinks
}

func (s *laneSums) add(res *regResult) {
	s.regs++
	s.hops += res.hops
	if res.hops != regularHops {
		s.irregular++
	}
	ns, cycles := res.sut()
	s.sutNs += ns
	s.core += cycles
	for h := 0; h < res.hops; h++ {
		if h < regularHops {
			s.hopNs[h] += res.t[2*h+2] - res.t[2*h+1]
			s.hopCyc[h] += res.c[2*h+2] - res.c[2*h+1]
		}
		s.radio += res.radio[h]
		s.ueCyc += res.c[2*h+1] - res.c[2*h] - res.radio[h]
		if h == 0 {
			s.uplinkNs += res.t[1] - res.t[0]
		} else {
			s.ueNs += res.t[2*h+1] - res.t[2*h]
		}
	}
}

func (s *laneSums) merge(o *laneSums) {
	s.regs += o.regs
	s.irregular += o.irregular
	s.hops += o.hops
	for h := range s.hopNs {
		s.hopNs[h] += o.hopNs[h]
		s.hopCyc[h] += o.hopCyc[h]
	}
	s.sutNs += o.sutNs
	s.core += o.core
	s.radio += o.radio
	s.ueCyc += o.ueCyc
	s.uplinkNs += o.uplinkNs
	s.ueNs += o.ueNs
}

// lane is one closed-loop worker: it owns an index stripe of the
// population, a request account, a jitter stream and a module connection,
// exactly as a worker of gnb's parallel mass driver does.
type lane struct {
	r    *rig
	id   int
	ctx  context.Context
	acct simclock.Account

	issued   int // window operations issued so far
	failed   int
	firstErr error
	regs     []regRecord
	sums     laneSums // over the lane's share of the prefix
	lastT    int64    // wall reading at the end of the last operation
	tr       *tracer  // nil on the untraced pass
}

func newLane(r *rig, id int) *lane {
	l := &lane{r: r, id: id}
	l.ctx = r.laneContext(context.Background(), id, &l.acct)
	return l
}

// mustRegister runs one set-up or warm-up registration of device i.
func (l *lane) mustRegister(i int) error {
	var res regResult
	if err := l.r.register(l.ctx, &l.acct, l.r.ues[i], uint64(i)+1, &res); err != nil {
		return fmt.Errorf("device %d: %w", i, err)
	}
	return nil
}

// next returns the population index of the lane's next window operation:
// lane id of W lanes takes the global operations id, id+W, id+2W, ... An
// attach workload's operation g registers device g once; a reauth
// workload's operation g re-registers device g mod population.
func (l *lane) next() (int, bool) {
	g := l.id + l.issued*len(l.r.lanes)
	if l.r.w.kind == attach {
		return g, g < l.r.w.population
	}
	return g % l.r.w.population, true
}

// run issues operations until stop says so or the population is spent.
// inPrefix selects whether the operations count towards the prefix sums.
func (l *lane) run(inPrefix bool, stop func(*lane) bool) {
	var res regResult
	for !stop(l) {
		i, ok := l.next()
		if !ok {
			return
		}
		// The device's RAN UE id is fixed, so a re-registration replaces
		// the AMF context of the previous one instead of adding to it.
		err := l.r.register(l.ctx, &l.acct, l.r.ues[i], uint64(i)+1, &res)
		traced := l.tr != nil && (len(l.regs)/traceBlock)%2 == 0
		l.issued++
		l.lastT = res.t[2*res.hops]
		if err != nil {
			l.failed++
			if l.firstErr == nil {
				l.firstErr = fmt.Errorf("device %d: %w", i, err)
			}
			continue
		}
		l.regs = append(l.regs, res.record(0, traced))
		if inPrefix {
			l.sums.add(&res)
		}
		if traced {
			l.tr.record(l.id, uint64(i)+1, &res)
		}
	}
}

// runLanes runs every lane to its stop condition and joins them.
func (r *rig) runLanes(inPrefix bool, stop func(*lane) bool) {
	var wg sync.WaitGroup
	for _, l := range r.lanes {
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			l.run(inPrefix, stop)
		}(l)
	}
	wg.Wait()
}

// prefixShare is lane id's part of an n-operation prefix.
func (r *rig) prefixShare(id, n int) int {
	w := len(r.lanes)
	share := n / w
	if id < n%w {
		share++
	}
	return share
}
