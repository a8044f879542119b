package fleet

import (
	"maps"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
)

// The shard coordinator. With Config.Shards = K > 1 the roster is
// partitioned into K fixed device sets, each owned by an independent
// event loop (loop.go) running on its own goroutine. Shards couple only
// through the arrival router, so the loops need no locks and no shared
// mutable state: everything a loop touches is either its own or
// read-only on the Fleet. With Shards <= 1, Run drives a single loop
// with no coordinator at all.
//
// Determinism is preserved by construction, not by luck:
//
//   - routing happens at epoch barriers. Time is cut into fixed
//     ShardEpoch windows; before assigning a window's arrivals the
//     coordinator runs every shard up to the window's start, so each
//     shard's load is a settled, host-independent function of the
//     already-routed arrivals. Arrivals are then assigned one at a
//     time to the least-loaded shard (ties to the lowest shard id) —
//     a pure function of deterministic state.
//   - inside an epoch each shard is a single-threaded DES over its own
//     devices; goroutine scheduling cannot reorder its events because
//     no other goroutine shares its state.
//   - the merge is order-fixed: every loop accounts by global device
//     id, counters sum, eviction records sort by their (cycle, device)
//     total order, job records are emitted in global arrival order, and
//     time-series rows sum column by column on the shared interval grid
//     (mergeSeries).

// DefaultShardEpoch is the router's synchronization quantum (fleet
// cycles) when Config.ShardEpoch is unset. Small epochs track load
// closely but synchronize often; 64k cycles is a few dispatch rounds
// on realistic workloads.
const DefaultShardEpoch = 1 << 16

// load is the loop's routing weight at an epoch barrier: jobs waiting
// or assigned plus jobs in flight. Pure function of the loop's settled
// state, so the router's least-loaded choice is deterministic.
func (l *loop) load() int {
	n := l.queue.Len() + (len(l.arr) - l.nextArr)
	for _, fl := range l.flightOf {
		if fl != nil {
			n += len(fl.jobs)
		}
	}
	return n
}

// runSharded is the coordinator: it routes arrivals epoch by epoch and
// drives the shard goroutines between barriers. Shard goroutines only
// run inside runAll calls and the coordinator only touches shard state
// outside them, so the two sides never race; the WaitGroup barrier
// also orders memory between coordinator and shards.
func (f *Fleet) runSharded(jobs []*job, perClient [][]*job) ([]*loop, error) {
	chaos := f.resolveChaos()
	shards := make([]*loop, f.cfg.Shards)
	for i := range shards {
		shards[i] = f.newLoop(i, perClient, chaos)
	}
	epoch := f.cfg.ShardEpoch
	if epoch == 0 {
		epoch = DefaultShardEpoch
	}
	const inf = math.MaxUint64
	// Shards never touch each other's state, so between barriers they can
	// run in any order — concurrently on a multicore host, or one after
	// another when the runtime has a single CPU anyway (same bytes out,
	// none of the goroutine/barrier overhead). Determinism never depends
	// on which of the two executes.
	sequential := runtime.GOMAXPROCS(0) == 1
	runAll := func(limit uint64) error {
		if sequential {
			for _, s := range shards {
				s.runUntil(limit)
			}
		} else {
			var wg sync.WaitGroup
			for _, s := range shards {
				wg.Add(1)
				go func(s *loop) {
					defer wg.Done()
					s.runUntil(limit)
				}(s)
			}
			wg.Wait()
		}
		// First error by shard id, so a multi-shard failure reports
		// deterministically.
		for _, s := range shards {
			if s.err != nil {
				return s.err
			}
		}
		return nil
	}
	// Open-loop arrivals are routed. Closed-loop jobs are not: newLoop
	// dealt the clients round-robin across shards — a pure function of
	// the client id, so the assignment (and every per-client draw) is
	// identical at any host — and submissions are born inside the owning
	// shard, so the shards run fully independently with no epoch barrier
	// to synchronize on (the autoscaler still reconciles on its own
	// epoch grid within each shard).
	routed := jobs
	if f.cfg.Closed.Enabled {
		routed = nil
	}
	loads := make([]int, len(shards))
	t := uint64(0)
	for next := 0; next < len(routed); {
		// Settle every shard at the start of the epoch holding the next
		// unrouted arrival, then route that epoch's arrivals against the
		// settled loads.
		at := routed[next].arrival
		es := at - at%epoch
		if es < t {
			es = t
		}
		if es > t {
			if err := runAll(es); err != nil {
				return nil, err
			}
			t = es
		}
		ee := es + epoch
		for i, s := range shards {
			loads[i] = s.load()
		}
		for ; next < len(routed) && routed[next].arrival < ee; next++ {
			best := 0
			for i := 1; i < len(shards); i++ {
				if loads[i] < loads[best] {
					best = i
				}
			}
			shards[best].arr = append(shards[best].arr, routed[next])
			shards[best].remaining++
			loads[best]++
		}
		if err := runAll(ee); err != nil {
			return nil, err
		}
		t = ee
	}
	return shards, runAll(inf)
}

// collect folds a run's drained event loops — the single loop of an
// unsharded run or every shard, each stopped at its last settled job —
// into one Result. Every loop accounts by global device id, so busy
// time and counters sum and the makespan is the latest. A single
// loop's eviction records stay in event order;
// across shards they sort by (cycle, device), a total order because
// within a shard records are in event order and one device evicts at
// most one flight per cycle. The Hybrid fidelity delta folds every
// loop's calibrations in key order, so it does not depend on map
// iteration.
func (f *Fleet) collect(loops []*loop, jobs []*job) (Result, error) {
	res := f.newResult()
	if len(loops) > 1 {
		res.Shards = len(loops)
	}
	samples, delta := 0, 0.0
	for _, l := range loops {
		for d, busy := range l.res.DeviceBusy {
			res.DeviceBusy[d] += busy
		}
		res.Makespan = max(res.Makespan, l.res.Makespan)
		res.Counters.add(l.res.Counters)
		res.Evictions = append(res.Evictions, l.res.Evictions...)
		for _, key := range slices.Sorted(maps.Keys(l.hybrid)) {
			samples += l.hybrid[key].n
			delta += l.hybrid[key].delta
		}
	}
	if len(loops) > 1 {
		sort.SliceStable(res.Evictions, func(i, j int) bool {
			a, b := res.Evictions[i], res.Evictions[j]
			if a.Cycle != b.Cycle {
				return a.Cycle < b.Cycle
			}
			return a.Device < b.Device
		})
	}
	if samples > 0 {
		res.ModelDelta = delta / float64(samples)
	}
	if f.cfg.SampleEvery > 0 {
		series, err := mergeSeries(f, loops, res.Makespan)
		if err != nil {
			return Result{}, err
		}
		res.Series = series
	}
	res.Jobs = f.jobRecords(jobs)
	return res, nil
}
