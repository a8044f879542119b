package fleet

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/sched"
)

// loop is one discrete-event loop over a set of devices: its own clock,
// queue, dispatcher scratch, completion heaps, control block and
// sampler. An unsharded run drives a single loop over the whole roster;
// a sharded run drives one per shard (shard.go). A loop mutates only its
// own state and reads the Fleet, which is read-only after New, so shard
// loops need no locks.
type loop struct {
	f  *Fleet
	id int
	// devices are the global device indices the loop owns, in placement
	// order.
	devices []int
	// flightOf holds the live flight per global device id (nil when the
	// device is idle or another shard owns it). resolved and unresolved
	// order flights by completion and by earliest bound; flights leave
	// both heaps lazily via their state.
	flightOf   []*inflight
	queue      jobQueue
	resolved   flightHeap
	unresolved flightHeap
	idleDevs   deviceHeap
	disp       *dispatcher
	// col is the observability sampler and ctl the control block; each
	// is nil when unconfigured, so the hot loop pays one pointer check.
	col *sampler
	ctl *loopCtl
	now uint64
	seq int
	// arr is the open-loop arrival stream in arrival order: the whole
	// stream for an unsharded run, the routed share for a shard (the
	// coordinator appends between epochs, while the loop is parked at
	// the barrier). Closed-loop submissions arrive through ctl instead.
	arr     []*job
	nextArr int
	// remaining counts the loop's unsettled jobs: arrived or
	// client-owned submissions not yet completed, rejected or abandoned.
	remaining int
	// sem bounds the simulation workers (nil under the Modeled engine);
	// hybrid is the Hybrid engine's per-composition calibration table;
	// abandoned holds evicted simulated flights whose workers still run —
	// their results are discarded, but the run must not return while
	// they live.
	sem       chan struct{}
	hybrid    map[string]*hybridCal
	abandoned []*inflight
	// res accumulates the loop's accounting, indexed by global device id.
	res Result
	err error
}

// loops is how many event loops a run drives: Config.Shards, at least
// one.
func (f *Fleet) loops() int { return max(f.cfg.Shards, 1) }

// newLoop builds event loop id of the run. Devices are dealt
// round-robin over the placement order, so every shard gets an equal
// slice of each speed tier and the fastest-idle-first dispatch rule
// means the same thing inside a shard as it does globally; closed-loop
// clients are dealt round-robin by id, and chaos is the run's resolved
// failure schedule, of which the loop keeps the events on its devices.
func (f *Fleet) newLoop(id int, perClient [][]*job, chaos []ChaosEvent) *loop {
	k := f.loops()
	total := len(f.devType)
	l := &loop{
		f:          f,
		id:         id,
		flightOf:   make([]*inflight, total),
		queue:      jobQueue{slo: f.cfg.SLO.Enabled},
		resolved:   flightHeap{minHeap[*inflight]{less: completionLess}, flightResolved},
		unresolved: flightHeap{minHeap[*inflight]{less: boundLess}, flightPending},
		idleDevs:   newDeviceHeap(f.orderPos),
		disp:       f.newDispatcher(),
		res:        f.newResult(),
	}
	for i, d := range f.order {
		if i%k == id {
			l.devices = append(l.devices, d)
		}
	}
	if f.cfg.Engine != Modeled {
		// One worker per device with a group in flight, capped by the
		// host; the Modeled engine never simulates.
		l.sem = make(chan struct{}, max(1, min(len(l.devices), runtime.NumCPU())))
	}
	if f.cfg.Engine == Hybrid {
		l.hybrid = make(map[string]*hybridCal)
	}
	if f.ctlEnabled() {
		minD, maxD := len(l.devices), len(l.devices)
		if f.cfg.Autoscale.Enabled {
			minD = splitBound(f.cfg.Autoscale.Min, k, id)
			maxD = splitBound(f.cfg.Autoscale.Max, k, id)
		}
		l.ctl = f.newLoopCtl(l, minD, maxD)
		// Chaos events enter the heap first, so at equal cycles a failure
		// fires before that cycle's client submissions and timers (lower
		// push seq) — a submission never races onto a device the same
		// cycle kills.
		l.ctl.initChaos(chaos)
		if f.cfg.Closed.Enabled {
			var ids []int
			for c := id; c < len(perClient); c += k {
				ids = append(ids, c)
				l.remaining += len(perClient[c])
			}
			l.ctl.initClients(perClient, ids)
		}
	}
	// Seed the idle heap with the initially-active devices (all of them,
	// unless the autoscaler starts the roster at its floor).
	for _, d := range l.devices {
		if l.ctl == nil || l.ctl.active[d] {
			l.idleDevs.push(d)
		}
	}
	if f.cfg.SampleEvery > 0 {
		l.col = newSampler(f.cfg.SampleEvery, total, l.ctl != nil, f.cfg.Chaos.Enabled)
		l.col.ctl = l.ctl
	}
	return l
}

// owns reports whether device d belongs to this loop (the round-robin
// deal of newLoop).
func (l *loop) owns(d int) bool { return l.f.orderPos[d]%l.f.loops() == l.id }

// completionLess is the resolved-heap order (completion cycle, then
// device).
func completionLess(a, b *inflight) bool {
	return a.complete < b.complete || (a.complete == b.complete && a.device < b.device)
}

// boundLess is the unresolved-heap order (earliest bound, then dispatch
// sequence: the first-dispatched flight wins a tie).
func boundLess(a, b *inflight) bool {
	return a.earliest < b.earliest || (a.earliest == b.earliest && a.seq < b.seq)
}

// runUntil advances the loop through every event strictly before limit.
// The loop is a discrete-event simulation over four event sources — job
// arrivals (known in advance), control events, resolved group
// completions, and unresolved in-flight groups (whose completion is
// bounded below) — and always processes the provably-earliest event,
// so the outcome is independent of worker timing. All sources are
// indexed (completion and bound min-heaps, an idle-device heap in
// placement order, a head-indexed priority queue), so one event costs
// O(log n) instead of a scan over every flight and device.
//
// A shard parks its clock at the barrier limit. With limit = MaxUint64
// (the final drain, whatever the shard count) the loop stops at its
// last settled job, leaving any trailing control events unexecuted, and
// a loop that still holds jobs with no event left records the stall as
// its error.
//
//simlint:hotpath
func (l *loop) runUntil(limit uint64) {
	f := l.f
	const inf = math.MaxUint64
	for l.err == nil && !(limit == inf && l.remaining <= 0) {
		// Admit arrivals due by now (priority order when SLO-aware);
		// admission control may reject or degrade a submission first.
		for l.nextArr < len(l.arr) && l.arr[l.nextArr].arrival <= l.now {
			j := l.arr[l.nextArr]
			l.nextArr++
			if l.ctl != nil && !l.ctl.admitOpen(j, l.now) {
				continue
			}
			l.queue.insert(j)
		}
		// Dispatch to idle devices while work is waiting, fastest device
		// first.
		for l.queue.Len() > 0 {
			d := l.idleDevs.pop()
			if d < 0 {
				break
			}
			if l.err = l.dispatch(d); l.err != nil {
				return
			}
		}
		// Preemption: when the head of the queue is a latency job that
		// would miss its deadline waiting for the predicted next natural
		// completion, clear one running all-batch group of this loop and
		// loop back so the dispatch pass places the trigger on the freed
		// device (a shard's latency job can only be rescued by a device
		// its shard owns — the router decided its shard).
		if f.cfg.SLO.Preempt && l.queue.Len() > 0 && l.queue.at(0).slo == Latency {
			if victim := f.preemptVictim(l.queue.at(0), l.flightOf, l.ctl, l.now); victim != nil {
				l.evict(victim, l.queue.at(0).id)
				l.idleDevs.push(victim.device)
				continue
			}
		}
		// Pick the provably-earliest next event. Ties go to arrivals
		// first (a job landing the instant a device frees still queues
		// before the dispatch decision), then to control events
		// (submissions, timeouts, scaling, chaos), then to the lowest
		// device id among resolved completions (the heap key).
		tArr := uint64(inf)
		if l.nextArr < len(l.arr) {
			tArr = l.arr[l.nextArr].arrival
		}
		tCtl := uint64(inf)
		if l.ctl != nil {
			tCtl = l.ctl.next()
		}
		cBest, uBest := l.resolved.peek(), l.unresolved.peek()
		cTime, uTime := uint64(inf), uint64(inf)
		if cBest != nil {
			cTime = cBest.complete
		}
		if uBest != nil {
			uTime = uBest.earliest
		}
		next := min(tArr, tCtl, cTime, uTime)
		if next >= limit {
			if limit == inf && l.remaining > 0 {
				l.stall()
				return
			}
			// Park at the barrier. Between the last processed event and
			// the barrier the loop's state is constant, so sampler edges
			// in that span emit identically on the next advance.
			if limit != inf && l.now < limit {
				l.now = limit
			}
			return
		}
		switch next {
		case tArr:
			// Sample every interval boundary the advance crosses with the
			// pre-advance state; events at tArr itself fold into the row
			// at (or after) tArr, emitted on a later advance.
			if l.col != nil {
				l.col.advanceTo(tArr, &l.queue, l.flightOf, &l.res)
			}
			l.now = tArr
		case tCtl:
			if l.col != nil {
				l.col.advanceTo(tCtl, &l.queue, l.flightOf, &l.res)
			}
			l.now = tCtl
			l.ctl.step(l.now)
		case cTime:
			if l.col != nil {
				l.col.advanceTo(cTime, &l.queue, l.flightOf, &l.res)
			}
			l.now = cTime
			l.resolved.pop()
			l.retire(cBest)
		default:
			// The unresolved group with the earliest possible completion
			// might be the next event; block until its worker reports.
			// Every other in-flight simulation keeps running meanwhile.
			l.err = l.resolveFlight(uBest)
		}
	}
}

// dispatch forms the next group for idle device d from the queue and
// starts it: modeled flights are born resolved (commitModeled batches
// the whole group into one heap event), simulated ones go to a worker.
// Group formation is placement-aware, scoring candidates with device
// d's type's interference matrix.
//
//simlint:hotpath
func (l *loop) dispatch(d int) error {
	t := l.f.devType[d]
	fl := l.disp.newFlight()
	members, usedILP := l.disp.formGroup(fl.jobs[:0], &l.queue, t, l.now)
	for _, m := range members {
		m.state = jsRunning
	}
	fl.device = d
	fl.typ = t
	fl.dispatch = l.now
	fl.seq = l.seq
	fl.jobs = members
	fl.ilp = usedILP
	l.seq++
	modeled, calib := l.f.cfg.Engine == Modeled, 1.0
	if l.hybrid != nil {
		modeled, calib = l.hybridRoute(fl)
	}
	if modeled {
		if err := l.disp.commitModeled(fl, l.now, calib, &l.resolved); err != nil {
			return err
		}
	} else {
		l.launch(fl)
	}
	l.flightOf[d] = fl
	return nil
}

// hybridRoute decides how the Hybrid engine completes fl: the first
// HybridWarm dispatches of its (device type, composition) simulate and
// feed the composition's calibration (the flight carries calKey); the
// rest are modeled, scaled by that calibration.
func (l *loop) hybridRoute(fl *inflight) (modeled bool, calib float64) {
	key := compositionKey(fl.jobs, fl.typ)
	cal := l.hybrid[key]
	if cal == nil {
		cal = &hybridCal{}
		l.hybrid[key] = cal
	}
	if cal.started < l.f.cfg.HybridWarm {
		cal.started++
		fl.calKey = key
		return false, 1
	}
	return true, cal.calibration()
}

// launch starts simulating fl on the worker pool. The flight enters the
// unresolved heap under a sound lower bound on its completion, so the
// loop keeps committing to provably earlier events while the
// simulation runs.
func (l *loop) launch(fl *inflight) {
	fl.done = make(chan struct{})
	fl.earliest = l.now + l.f.lowerBoundCycles(fl.jobs, fl.typ)
	l.unresolved.push(fl)
	sem, runner, policy := l.sem, l.f.types[fl.typ].Scheduler(), l.f.cfg.Policy
	g := make(sched.Group, len(fl.jobs))
	for i, m := range fl.jobs {
		g[i] = m.apps[fl.typ]
	}
	go func() {
		sem <- struct{}{}
		defer func() { <-sem }()
		fl.rep, fl.err = runner.RunGroup(g, policy)
		close(fl.done)
	}()
}

// resolveFlight waits for fl's simulation and moves the flight to the
// resolved heap, folding a Hybrid warm-up into its composition's
// calibration. A completion before the flight's lower bound fails
// loudly rather than silently reordering events.
func (l *loop) resolveFlight(fl *inflight) error {
	<-fl.done
	if fl.err != nil {
		return fl.err
	}
	fl.complete = fl.dispatch + l.f.flightCycles(fl)
	if fl.complete < fl.earliest {
		return fmt.Errorf("fleet: completion %d before lower bound %d for group on device %d",
			fl.complete, fl.earliest, fl.device)
	}
	if fl.calKey != "" {
		if err := l.disp.calibrate(l.hybrid[fl.calKey], fl); err != nil {
			return err
		}
	}
	fl.state = flightResolved
	l.resolved.push(fl)
	return nil
}

// retire completes fl at the current cycle: the accounting, the freed
// device (back to the idle heap unless chaos holds it down — a restore
// pushes it back), the closed-loop clients waiting on its members, and
// the flight record's reuse.
func (l *loop) retire(fl *inflight) {
	fl.state = flightRetired
	l.f.retire(fl, &l.res)
	if l.col != nil {
		l.col.noteRetire(fl)
		l.col.addBusy(fl.device, fl.dispatch, fl.complete)
	}
	l.remaining -= len(fl.jobs)
	l.flightOf[fl.device] = nil
	if l.ctl == nil || l.ctl.deviceUp(fl.device) {
		l.idleDevs.push(fl.device)
	}
	if l.ctl != nil {
		// Before recycle: closed-loop clients read the member
		// references to schedule their next submissions.
		l.ctl.onRetire(fl, l.now)
	}
	if fl.modeled {
		// A retired modeled flight has left every heap (it was only ever
		// in resolved, and pop removed it), so its record and buffers can
		// serve the next dispatch.
		l.disp.recycle(fl)
	}
}

// evict aborts fl at the current cycle on behalf of triggerID (the
// latency job that preempts it, or chaosTriggerID for a failure). Its
// members re-enter the queue with checkpointed progress; the aborted
// attempt's device time is busy time; a Hybrid warm-up refunds its
// calibration slot; and a simulation still running on its worker is
// kept so the run can outlive it. The caller decides where the freed
// device goes: back to the idle heap after a preemption, nowhere after
// a failure.
func (l *loop) evict(fl *inflight, triggerID int) {
	l.f.evictAs(fl, triggerID, l.now, &l.res)
	if l.col != nil {
		l.col.addBusy(fl.device, fl.dispatch, l.now)
	}
	if fl.calKey != "" {
		// An evicted Hybrid warm-up never resolves, so it can never feed
		// its composition's calibration — refund the warm-up slot so a
		// later dispatch runs it instead of the composition silently
		// staying uncalibrated.
		l.hybrid[fl.calKey].started--
		fl.calKey = ""
	}
	fl.state = flightEvicted
	l.flightOf[fl.device] = nil
	if !fl.modeled {
		l.abandoned = append(l.abandoned, fl)
	}
	for _, j := range fl.jobs {
		l.queue.insert(j)
	}
}

// stall records a drained loop that still holds jobs: no future event
// can settle them, which only chaos can cause (every owned device
// failed or draining with no restore scheduled). Failing loudly beats
// parking forever or merging a silent shortfall.
func (l *loop) stall() {
	failed, draining := 0, 0
	if l.ctl != nil {
		failed, draining = l.ctl.failedCount, l.ctl.drainingCount
	}
	l.err = fmt.Errorf("fleet: no dispatchable work with %d jobs outstanding (%d devices failed, %d draining, and no restore scheduled)",
		l.remaining, failed, draining)
}

// wait blocks until every worker the loop started has finished — the
// flights still pending after an error and the abandoned evicted ones —
// so no goroutine outlives the run.
func (l *loop) wait() {
	for _, fl := range l.flightOf {
		if fl != nil && fl.state == flightPending {
			<-fl.done
		}
	}
	for _, fl := range l.abandoned {
		<-fl.done
	}
}
