package fleet

import (
	"fmt"
	"math"

	"repro/internal/match"
	"repro/internal/sched"
)

// job is the dispatcher's mutable per-job state. A job's class (and the
// QueuedApp handed to the scheduler) depends on which hardware
// generation runs it, so apps is indexed by device type.
type job struct {
	id   int
	apps []sched.QueuedApp
	// solo caches the per-type solo profile (resolve fills it once from
	// the profiler's memo), so the hot loop's runtime estimates and the
	// analytic engine never take the profiler's lock or build its
	// string key per call.
	solo     []soloProfile
	arrival  uint64
	dispatch uint64
	complete uint64
	device   int
	// slo and deadline come from the arrival; deadline is relative to
	// arrival (0 for batch jobs).
	slo      SLOClass
	deadline uint64
	// progress is the checkpointed completed fraction preserved across
	// evictions, in [0, MaxCheckpoint]. evictions counts how often the
	// job was preempted.
	progress  float64
	evictions int
	// client is the closed-loop client pool that owns the job, -1 for
	// open-loop arrivals. attempts counts submissions (retries
	// included); state is the lifecycle the conservation accounting
	// reads (jsPending .. jsRejected, control.go).
	client   int
	attempts int
	state    uint8
	// soloEst is the mean calibrated solo duration across device types
	// (0 when never calibrated): the queue's O(1) backlog-work counter
	// and the admission predictor read it without touching profiles.
	soloEst uint64
	// coEst is soloEst inflated by the interference matrices' mean
	// co-run slowdown for this job's class (equal to soloEst when no
	// matrix is calibrated): the modeled admission predictor's
	// backlog-work unit.
	coEst uint64
}

// soloProfile is one job's cached solo-run profile on one device type:
// the calibrated cycles and retired thread instructions, and whether
// the profiler had them at all (ok false = never calibrated).
type soloProfile struct {
	cycles uint64
	instrs uint64
	ok     bool
}

// name returns the application name (identical across device types).
func (j *job) name() string { return j.apps[0].Params.Name }

// deadlineAbs is the absolute fleet cycle the job must complete by
// (only meaningful for latency jobs).
func (j *job) deadlineAbs() uint64 { return j.arrival + j.deadline }

// remainingFrac is the share of the job's duration a (re-)dispatch must
// still execute: everything for a fresh job; for a checkpointed one the
// un-preserved remainder plus the explicit restart cost (re-reading
// inputs, replaying the un-checkpointed tail), capped at a full re-run.
func (j *job) remainingFrac(slo SLOConfig) float64 {
	if j.progress == 0 {
		return 1
	}
	rem := 1 - j.progress + slo.RestartFrac
	if rem > 1 {
		rem = 1
	}
	return rem
}

// effectiveCycles scales a simulated per-member completion to the
// checkpoint model: a job that preserved fraction p of itself only
// occupies the device for its remaining fraction of the simulated run.
func (f *Fleet) effectiveCycles(j *job, end uint64) uint64 {
	rem := j.remainingFrac(f.cfg.SLO)
	if rem >= 1 {
		return end
	}
	e := uint64(math.Ceil(float64(end) * rem))
	if e < 1 {
		e = 1
	}
	return e
}

// inflight is one group executing on one device. Under the Cycle engine
// the result (rep) is computed on a worker goroutine and the event loop
// learns the completion by waiting on done — but only when it has to,
// thanks to the earliest lower bound below. Modeled flights are born
// resolved: rep is the analytic prediction and done is never used.
type inflight struct {
	device   int
	typ      int
	dispatch uint64
	// seq is the dispatch sequence number; the unresolved heap breaks
	// earliest-bound ties by it, reproducing the old linear scan's
	// first-dispatched-wins order.
	seq int
	// earliest is a sound lower bound on the completion cycle, known at
	// dispatch time without simulating: the device cannot retire warp
	// instructions faster than its peak issue rate. It lets the event
	// loop commit to arrivals and already-resolved completions that
	// provably precede this group's completion while the simulation is
	// still running on its worker — the pipelining that makes a 4-device
	// fleet measurably faster than 4 sequential sims.
	earliest uint64
	jobs     []*job
	ilp      bool
	// state tracks the flight through the event core's heaps (pending →
	// resolved → retired, or → evicted from either); modeled marks
	// completions computed by the analytic model rather than simulated.
	state   flightState
	modeled bool
	// calKey is set on Hybrid warm-up flights: the composition whose
	// calibration this flight's resolution feeds.
	calKey string

	done     chan struct{}
	rep      sched.GroupReport
	err      error
	complete uint64
}

// lowerBoundCycles bounds a group's makespan on device type t from
// below without simulating. Two sound bounds, take the tighter:
//
//   - issue rate: every member must issue all of its warp instructions,
//     and even owning the whole device it cannot issue more than that
//     type's NumSMs*SchedulersPerSM per cycle. Weak for memory-bound
//     kernels, which run far below peak issue. (Warp instructions, not
//     thread instructions: PeakIPC counts issue slots, and one issued
//     instruction covers a whole warp.)
//   - solo profile: a member co-running on an SM partition with memory
//     contention cannot finish faster than its solo run on the whole
//     device of the same type. resolve caches every job's solo profile
//     per type up front, so the lookup is a slice index; half the solo
//     duration leaves margin for simulator nonmonotonicities
//     (partitioning shifts cache and DRAM row locality in both
//     directions).
//
// On a heterogeneous roster the bound must come from the device that
// will actually run the group — a big device's peak issue rate is not
// sound for a small one. The bound's only job is to be sound and large
// enough that the event loop can commit to other devices' completions
// while this group is still simulating — that is where the fleet's
// wall-clock concurrency comes from.
func (f *Fleet) lowerBoundCycles(members []*job, t int) uint64 {
	peak := f.types[t].Config().PeakIPC()
	bound := 1.0
	for _, m := range members {
		lb := float64(m.apps[t].Params.TotalInstrs()) / peak
		if sp := m.solo[t]; sp.ok {
			if solo := float64(sp.cycles) / 2; solo > lb {
				lb = solo
			}
		}
		// A checkpointed member's effective runtime is its simulated end
		// scaled by the remaining fraction, so its bound scales the same
		// way (end >= lb implies end*rem >= lb*rem).
		lb *= m.remainingFrac(f.cfg.SLO)
		if lb > bound {
			bound = lb
		}
	}
	return uint64(bound)
}

// Run executes the arrival stream on the fleet and returns the per-job
// and per-device accounting. An unsharded run drives one event loop
// over the whole roster to completion (loop.go); Shards > 1 hands the
// jobs to the epoch coordinator of shard.go. Either way the drained
// loops are assembled into the Result by one collect step.
func (f *Fleet) Run(arrivals []Arrival) (Result, error) {
	closed := f.cfg.Closed.Enabled
	if closed && len(arrivals) > 0 {
		return Result{}, fmt.Errorf("fleet: closed-loop runs generate their own submissions; pass no arrivals")
	}
	if !closed && len(arrivals) == 0 {
		return Result{}, fmt.Errorf("fleet: empty arrival stream")
	}
	var (
		jobs      []*job
		perClient [][]*job
		err       error
	)
	if closed {
		jobs, perClient, err = f.resolveClosed()
	} else {
		jobs, err = f.resolve(arrivals)
	}
	if err != nil {
		return Result{}, err
	}
	var loops []*loop
	if f.cfg.Shards > 1 {
		loops, err = f.runSharded(jobs, perClient)
	} else {
		l := f.newLoop(0, perClient, f.resolveChaos())
		if !closed {
			l.arr, l.remaining = jobs, len(jobs)
		}
		l.runUntil(math.MaxUint64)
		l.wait()
		loops, err = []*loop{l}, l.err
	}
	if err != nil {
		return Result{}, err
	}
	return f.collect(loops, jobs)
}

// newResult is an empty Result carrying the run's configuration header
// and a zeroed busy table per device.
func (f *Fleet) newResult() Result {
	res := Result{
		Policy:     f.cfg.Policy,
		Engine:     f.cfg.Engine,
		Roster:     f.cfg.RosterString(),
		Devices:    len(f.devType),
		NC:         f.cfg.NC,
		Closed:     f.cfg.Closed.Enabled,
		Admission:  f.cfg.Admission.Enabled,
		Autoscale:  f.cfg.Autoscale.Enabled,
		Chaos:      f.cfg.Chaos.Enabled,
		DeviceBusy: make([]uint64, len(f.devType)),
	}
	for d := range f.devType {
		res.DeviceConfig = append(res.DeviceConfig, f.deviceName(d))
	}
	return res
}

// jobRecords projects every job, in arrival order, onto its record.
func (f *Fleet) jobRecords(jobs []*job) []JobRecord {
	recs := make([]JobRecord, len(jobs))
	for i, j := range jobs {
		recs[i] = f.jobRecord(j)
	}
	return recs
}

// jobRecord projects one job's final state onto its record — the one
// place outcome, device and class are decided.
func (f *Fleet) jobRecord(j *job) JobRecord {
	rec := JobRecord{
		ID:        j.id,
		Name:      j.name(),
		SLO:       j.slo,
		Deadline:  j.deadline,
		Arrival:   j.arrival,
		Dispatch:  j.dispatch,
		Complete:  j.complete,
		Device:    j.device,
		Evictions: j.evictions,
		Attempts:  j.attempts,
	}
	// Open-loop jobs outside control runs never count attempts; report
	// the one submission they had.
	if rec.Attempts == 0 {
		rec.Attempts = 1
	}
	t := 0
	switch j.state {
	case jsRejected:
		rec.Outcome = Rejected
		rec.Device = -1
	case jsAbandoned:
		rec.Outcome = Abandoned
		rec.Device = -1
	default:
		rec.Outcome = Done
		t = f.devType[j.device]
	}
	rec.Class = j.apps[t].Class
	return rec
}

// preemptVictim decides whether evicting a running group saves the
// trigger latency job, and which group to clear. It returns nil when no
// eviction is justified: the trigger can still meet its deadline by
// waiting (the predicted next device free time plus the fastest solo
// run on the roster makes it), or no running group is evictable (every
// group shields a latency member), or the deadline is already
// unreachable even on a device freed right now (eviction would burn
// batch progress without saving anything).
func (f *Fleet) preemptVictim(trigger *job, flightOf []*inflight, ctl *loopCtl, now uint64) *inflight {
	// Waiting means the dispatch loop hands the queue head to the FIRST
	// device that frees — there is no holding back for a faster one —
	// so the no-eviction outcome is the co-run on that flight's own
	// device type. Ties between simultaneously freeing devices resolve
	// by placement order, exactly as the real dispatch pass scans them.
	// A draining device's flight frees nothing dispatchable, so down
	// devices are out on both sides of the decision: their completions
	// never serve the trigger, and evicting them frees a device the
	// dispatch pass would skip anyway.
	var first *inflight
	firstFree := uint64(math.MaxUint64)
	for _, fl := range flightOf {
		if fl == nil {
			continue
		}
		if ctl != nil && !ctl.deviceUp(fl.device) {
			continue
		}
		free := f.predictedFree(fl)
		if first == nil || free < firstFree ||
			(free == firstFree && f.orderPos[fl.device] < f.orderPos[first.device]) {
			first, firstFree = fl, free
		}
	}
	if first == nil {
		return nil
	}
	run, ok := f.coRunCycles(trigger, first.typ)
	if !ok {
		return nil // no solo profile to estimate with; never evict blindly
	}
	deadline := trigger.deadlineAbs()
	if firstFree+run <= deadline {
		return nil
	}
	// Candidate victims: running groups with no latency member, whose
	// freed device could still let the trigger meet the deadline. The
	// two sides of the decision are deliberately asymmetric: the
	// would-miss test above uses the pessimistic co-run estimate (missing
	// a needed rescue forfeits the deadline for good), while this
	// can-save test uses the solo optimum (a rescue that might work is
	// worth one batch group's progress; if it fails anyway, the waste is
	// bounded and reported).
	var victim *inflight
	for _, fl := range flightOf {
		if fl == nil {
			continue
		}
		if ctl != nil && !ctl.deviceUp(fl.device) {
			continue
		}
		evictable := true
		for _, j := range fl.jobs {
			if j.slo == Latency {
				evictable = false
				break
			}
		}
		if !evictable {
			continue
		}
		// A device already predicted to free at the current cycle gives
		// eviction no head start over waiting — clearing it would throw
		// away a (possibly finished) run for zero latency gain.
		if f.predictedFree(fl) <= now {
			continue
		}
		if solo, ok := f.soloCycles(trigger, fl.typ); !ok || now+solo > deadline {
			continue
		}
		if victim == nil || fl.dispatch > victim.dispatch ||
			(fl.dispatch == victim.dispatch && fl.device < victim.device) {
			victim = fl
		}
	}
	return victim
}

// coRunCycles estimates the trigger's co-run duration on device type t:
// its remaining solo duration scaled by the least favorable
// uniform-company slowdown the interference matrix predicts (worstSlow),
// or the plain solo when no matrix is calibrated. Deadline protection
// deliberately assumes the worst co-partner: the per-class matrix
// entries are averages, so an optimistic estimate predicts "will meet
// it" for jobs the simulation then misses by a small margin, and the
// rescue never fires. The worst case is modeled as NC-1 partners of one
// class — it covers the pairwise and triple matrix entries exactly and
// stays O(NT) rather than enumerating mixed partner multisets.
func (f *Fleet) coRunCycles(j *job, t int) (uint64, bool) {
	solo, ok := f.soloCycles(j, t)
	if !ok {
		return 0, false
	}
	worst := f.worstSlow[t]
	if worst == nil {
		return solo, true
	}
	return uint64(float64(solo) * worst[j.apps[t].Class]), true
}

// chaosTriggerID is the EvictionRecord.TriggerJob sentinel for
// evictions forced by a device failure rather than a latency job.
const chaosTriggerID = -1

// evictAs charges the eviction of fl at cycle now to res, on behalf of
// triggerID (the preempting latency job's id, or chaosTriggerID for a
// failure): its jobs keep checkpointed progress and the aborted attempt
// counts as busy time. Both triggers go through the same checkpoint
// model, so a failure wastes exactly what a preemption of the same
// flight would have. Under the Cycle engine the group's simulation
// keeps running on its worker — its result is discarded, but the memo
// may still serve a later identical dispatch — so eviction never
// blocks the event loop.
//
// The checkpoint is taken from the solo-profile progress model, not from
// simulator state: a job that ran elapsed cycles preserves up to
// elapsed/solo of itself (optimistic — co-running is slower than solo),
// capped at MaxCheckpoint. Wasted accounts the attempt time the
// checkpoints do not preserve plus the restart tax the re-dispatch will
// pay.
func (f *Fleet) evictAs(fl *inflight, triggerID int, now uint64, res *Result) {
	elapsed := now - fl.dispatch
	rec := EvictionRecord{Cycle: now, Device: fl.device, TriggerJob: triggerID}
	slo := f.cfg.SLO
	for _, j := range fl.jobs {
		before := j.progress
		var solo float64
		if sp := j.solo[fl.typ]; sp.ok {
			solo = float64(sp.cycles)
		}
		if solo > 0 {
			// A re-dispatched attempt spends its first min(RestartFrac,
			// progress)*solo cycles replaying already-checkpointed work;
			// only the time past that replay earns new progress —
			// otherwise repeated evictions would mint checkpoint credit
			// out of restarts alone.
			fresh := float64(elapsed)
			if before > 0 {
				replay := slo.RestartFrac
				if before < replay {
					replay = before
				}
				fresh -= replay * solo
				if fresh < 0 {
					fresh = 0
				}
			}
			j.progress += fresh / solo
			if j.progress > slo.MaxCheckpoint {
				j.progress = slo.MaxCheckpoint
			}
		}
		j.evictions++
		rec.Jobs = append(rec.Jobs, j.id)
		rec.Progress = append(rec.Progress, j.progress)
		waste := float64(elapsed) - (j.progress-before)*solo
		if waste < 0 {
			waste = 0
		}
		// The restart tax actually charged on re-dispatch is capped by
		// remainingFrac at min(RestartFrac, progress) of the solo run —
		// a job with no checkpoint re-runs from scratch and pays none.
		tax := slo.RestartFrac
		if j.progress < tax {
			tax = j.progress
		}
		waste += tax * solo
		rec.Wasted += uint64(waste)
	}
	// The aborted attempt occupied the device for real.
	res.DeviceBusy[fl.device] += elapsed
	res.Evictions = append(res.Evictions, rec)
}

// predictedFree estimates when fl's device frees: the exact completion
// once the simulation has resolved, otherwise dispatch plus the longest
// member's remaining solo duration scaled by its class's expected
// co-run slowdown from the interference matrix (the model's own
// Equation 3.4 ingredients; plain solo when no matrix is calibrated).
// This is deliberately the model's likely free time, not the event
// loop's (halved) safety bound: the preemption decision wants a
// realistic estimate, while event ordering needs a provable one.
func (f *Fleet) predictedFree(fl *inflight) uint64 {
	if fl.state == flightResolved {
		return fl.complete
	}
	est := fl.earliest
	m := f.types[fl.typ].Matrix()
	var pat match.Pattern
	if m != nil {
		pat = make(match.Pattern, len(fl.jobs))
		for i, j := range fl.jobs {
			pat[i] = j.apps[fl.typ].Class
		}
	}
	for i, j := range fl.jobs {
		solo, ok := f.soloCycles(j, fl.typ)
		if !ok {
			continue
		}
		dur := float64(solo)
		if pat != nil {
			dur *= match.MemberSlowdown(m, pat, i)
		}
		if e := fl.dispatch + uint64(dur); e > est {
			est = e
		}
	}
	return est
}

// soloCycles estimates how long job j would run alone on device type t,
// scaled to its checkpointed remainder. It is the dispatcher's cheapest
// (and fastest-possible) runtime estimate — resolve cached every job's
// solo profile per type, so this is a slice index.
func (f *Fleet) soloCycles(j *job, t int) (uint64, bool) {
	sp := j.solo[t]
	if !sp.ok {
		return 0, false
	}
	c := uint64(math.Ceil(float64(sp.cycles) * j.remainingFrac(f.cfg.SLO)))
	if c < 1 {
		c = 1
	}
	return c, true
}

// reportedEnd is member i's end cycle as fl's report gives it
// (simulated or modeled), falling back to the group makespan.
func (fl *inflight) reportedEnd(i int) uint64 {
	if i < len(fl.rep.Stats) && fl.rep.Stats[i].EndCycle > 0 {
		return fl.rep.Stats[i].EndCycle
	}
	return fl.rep.Cycles
}

// memberEnd is member i's checkpoint-scaled completion offset within
// flight fl: its reported end through the effective-cycles scaling.
// Both the event loop's completion ordering (flightCycles) and the
// final accounting (retire) read ends through this one helper, so the
// two can never disagree.
func (f *Fleet) memberEnd(fl *inflight, i int) uint64 {
	return f.effectiveCycles(fl.jobs[i], fl.reportedEnd(i))
}

// flightCycles is the group's effective device occupancy: the max of
// the members' checkpoint-scaled completion cycles (exactly the
// simulated group makespan when no member carries a checkpoint).
func (f *Fleet) flightCycles(fl *inflight) uint64 {
	end := uint64(0)
	for i := range fl.jobs {
		if e := f.memberEnd(fl, i); e > end {
			end = e
		}
	}
	return end
}

// resolve materializes jobs from the arrival stream using each device
// type's workload definitions and classes: the same application may
// classify differently across hardware generations, so every job
// carries one QueuedApp per type.
func (f *Fleet) resolve(arrivals []Arrival) ([]*job, error) {
	// Arrival streams repeat a small application universe, so the
	// per-type pipeline work (Queue's workload lookup, the profiler's
	// locked solo-profile table) is done once per distinct name and
	// fanned out to the jobs — resolve cost scales with the universe,
	// not the job count.
	distinct := make([]string, 0, 16)
	nameIdx := make(map[string]int)
	for _, a := range arrivals {
		if _, ok := nameIdx[a.Name]; !ok {
			nameIdx[a.Name] = len(distinct)
			distinct = append(distinct, a.Name)
		}
	}
	perType := make([][]sched.QueuedApp, len(f.types))
	soloByType := make([][]soloProfile, len(f.types))
	for t, pipe := range f.types {
		queued, err := pipe.Queue(distinct)
		if err != nil {
			return nil, err
		}
		perType[t] = queued
		solos := make([]soloProfile, len(distinct))
		for d, name := range distinct {
			if r, ok := pipe.Profiler().Peek(name, 0); ok {
				solos[d] = soloProfile{cycles: r.Cycles, instrs: r.ThreadInstructions, ok: true}
			}
		}
		soloByType[t] = solos
	}
	// Jobs are arena-allocated: one backing array for the records, one
	// for the per-type QueuedApps and one for the per-type solo cache —
	// three allocations for the whole run instead of three per job.
	nt := len(f.types)
	arena := make([]job, len(arrivals))
	appsArena := make([]sched.QueuedApp, len(arrivals)*nt)
	soloArena := make([]soloProfile, len(arrivals)*nt)
	jobs := make([]*job, len(arrivals))
	for i := range arrivals {
		if i > 0 && arrivals[i].Cycle < arrivals[i-1].Cycle {
			return nil, fmt.Errorf("fleet: arrivals not in cycle order (job %d at %d after %d)",
				i, arrivals[i].Cycle, arrivals[i-1].Cycle)
		}
		j := &arena[i]
		j.id = i
		j.client = -1
		j.apps = appsArena[i*nt : (i+1)*nt : (i+1)*nt]
		j.solo = soloArena[i*nt : (i+1)*nt : (i+1)*nt]
		d := nameIdx[arrivals[i].Name]
		est, cnt := uint64(0), uint64(0)
		for t := range f.types {
			qa := perType[t][d]
			// Queue defines Arrival as the queue position; restore the
			// job's own so within-group FCFS ordering is exactly what a
			// per-job Queue call would have produced.
			qa.Arrival = i
			j.apps[t] = qa
			j.solo[t] = soloByType[t][d]
			if sp := j.solo[t]; sp.ok {
				est += sp.cycles
				cnt++
			}
		}
		if cnt > 0 {
			j.soloEst = est / cnt
			j.coEst = j.soloEst
			if f.meanSlow != nil {
				// The interference-aware estimate: each calibrated type's
				// solo duration inflated by the mean co-run slowdown the
				// matrix predicts for this job's class there.
				co := 0.0
				for t := range f.types {
					if sp := j.solo[t]; sp.ok {
						co += float64(sp.cycles) * f.meanSlow[t][j.apps[t].Class]
					}
				}
				j.coEst = uint64(co / float64(cnt))
			}
		}
		j.arrival = arrivals[i].Cycle
		j.slo = arrivals[i].SLO
		j.deadline = arrivals[i].Deadline
		jobs[i] = j
	}
	return jobs, nil
}

// retire records a completed group into the result and its jobs. All
// cycle accounting goes through the checkpoint-scaled effective ends,
// which coincide with the simulated ones for groups of fresh jobs.
func (f *Fleet) retire(fl *inflight, res *Result) {
	groupEnd := uint64(0)
	for i, j := range fl.jobs {
		j.dispatch = fl.dispatch
		j.device = fl.device
		j.state = jsDone
		end := f.memberEnd(fl, i)
		if end > groupEnd {
			groupEnd = end
		}
		j.complete = fl.dispatch + end
	}
	res.DeviceBusy[fl.device] += groupEnd
	if devEnd := fl.dispatch + groupEnd; devEnd > res.Makespan {
		res.Makespan = devEnd
	}
	for _, st := range fl.rep.Stats {
		res.ThreadInstructions += st.ThreadInstructions
	}
	res.Groups++
	if fl.ilp {
		res.ILPGroups++
	} else {
		res.GreedyGroups++
	}
	if fl.modeled {
		res.ModeledGroups++
	} else {
		res.CycleGroups++
	}
	res.SMMoves += fl.rep.SMMoves
}
