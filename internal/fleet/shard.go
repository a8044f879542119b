package fleet

import (
	"math"
	"runtime"
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
//     (mergeShardSeries).

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
func (f *Fleet) runSharded(jobs []*job, perClient [][]*job) (Result, error) {
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
				return Result{}, err
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
			return Result{}, err
		}
		t = ee
	}
	if err := runAll(inf); err != nil {
		return Result{}, err
	}
	return f.mergeShards(shards, jobs)
}

// mergeShards folds the drained shards into one Result, identical in
// shape to a lone loop's.
func (f *Fleet) mergeShards(shards []*loop, jobs []*job) (Result, error) {
	res := f.newResult()
	res.Shards = f.cfg.Shards
	for _, s := range shards {
		for d, busy := range s.res.DeviceBusy {
			res.DeviceBusy[d] += busy
		}
		res.Makespan = max(res.Makespan, s.res.Makespan)
		res.Counters.add(s.res.Counters)
		res.Evictions = append(res.Evictions, s.res.Evictions...)
	}
	// Within a shard eviction records are in event order, and one device
	// evicts at most one flight per cycle, so (cycle, device) is a total
	// order across shards.
	sort.SliceStable(res.Evictions, func(i, j int) bool {
		a, b := res.Evictions[i], res.Evictions[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		return a.Device < b.Device
	})
	if f.cfg.SampleEvery > 0 {
		series, err := mergeShardSeries(f, shards, res.Makespan)
		if err != nil {
			return Result{}, err
		}
		res.Series = series
	}
	res.Jobs = f.jobRecords(jobs)
	return res, nil
}
