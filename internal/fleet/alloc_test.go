package fleet

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/sched"
)

// dispatchRig isolates the modeled engine's steady-state dispatch round
// for the alloc guard and BenchmarkFleetDispatch: a warm event loop
// that rotates through a deck of standing backlogs of different depths
// and class mixes, so consecutive rounds see different window
// compositions (greedy and ILP, on a mix of solve-memo keys) instead
// of replaying one. Dispatched jobs return to their own backlog, so
// every backlog is invariant across its rounds and the rotation stays
// warm.
type dispatchRig struct {
	l *loop
	// decks are the standing backlogs; step swaps deck next into the
	// loop's queue for one round.
	decks []jobQueue
	next  int
	// checks counts the rounds that ran the preemption check.
	checks int
}

// rigDecks is how many backlogs the dispatch rig rotates through.
const rigDecks = 64

// newDispatchRig builds the rig on the 4-device test fleet with SLO
// preemption on. Every backlog is a run of consecutive jobs from one
// shared 512-job pool drawn from the testkit universe, all waiting at
// cycle zero. A quarter of the backlogs are shallower than the greedy
// threshold; the rest are 4 to 95 jobs deep. One job in eight is a
// latency job whose deadline is far enough away that the preemption
// check always decides to wait.
func newDispatchRig(tb testing.TB) *dispatchRig {
	tb.Helper()
	p := testPipeline(tb)
	f, err := New(Config{
		Devices: homo(p, 4), NC: 2, Policy: sched.ILP, Engine: Modeled,
		SLO: SLOConfig{Enabled: true, Preempt: true},
	})
	if err != nil {
		tb.Fatal(err)
	}
	names := testNames()
	draw := rng.NewStream(0xD15C)
	arrivals := make([]Arrival, 512)
	for i := range arrivals {
		arrivals[i] = Arrival{Name: names[draw.Intn(len(names))]}
		if draw.Intn(8) == 0 {
			arrivals[i].SLO, arrivals[i].Deadline = Latency, 1<<40
		}
	}
	jobs, err := f.resolve(arrivals)
	if err != nil {
		tb.Fatal(err)
	}
	r := &dispatchRig{l: f.newLoop(0, nil, nil), decks: make([]jobQueue, rigDecks)}
	for k := range r.decks {
		depth := 4 + draw.Intn(92)
		if k%4 == 0 {
			depth = 1 + draw.Intn(3)
		}
		from := draw.Intn(len(jobs) - depth)
		r.decks[k] = jobQueue{slo: true}
		for _, j := range jobs[from : from+depth] {
			r.decks[k].insert(j)
		}
	}
	return r
}

// step runs one steady-state dispatch round on device 0 against the
// next backlog — exactly the modeled engine's per-decision work: the
// loop's own dispatch step (form a group, commit its modeled
// completion), the preemption check whenever a latency job heads the
// queue while the group runs, then pop and recycle the flight — and
// returns how many jobs it dispatched. The completed group's jobs are
// re-queued before recycle (recycle nils the flight's job slots), so
// each backlog is invariant across its rounds.
func (r *dispatchRig) step(tb testing.TB) int {
	l := r.l
	deck := &r.decks[r.next]
	r.next = (r.next + 1) % len(r.decks)
	l.queue, *deck = *deck, l.queue
	if err := l.dispatch(0); err != nil {
		tb.Fatal(err)
	}
	if l.queue.Len() > 0 && l.queue.at(0).slo == Latency {
		if v := l.f.preemptVictim(l.queue.at(0), l.flightOf, l.ctl, l.now); v != nil {
			tb.Fatalf("rig latency job %d would evict device %d", l.queue.at(0).id, v.device)
		}
		r.checks++
	}
	got := l.resolved.pop()
	got.state = flightRetired
	l.flightOf[got.device] = nil
	for _, j := range got.jobs {
		l.queue.insert(j)
	}
	n := len(got.jobs)
	l.disp.recycle(got)
	l.now++
	l.queue, *deck = *deck, l.queue
	return n
}

// TestDispatchSteadyStateAllocs locks the alloc scrub in place: once the
// dispatcher's scratch buffers, memo maps and flight pool are warm, one
// full dispatch round must not touch the heap at all — across every
// backlog of the rotation, including the rounds that run the preemption
// check with a latency job at the queue head. A regression here (a
// closure in the hot path, a map rebuilt per call, a profiler lookup or
// a per-check pattern creeping back in) fails this test before it shows
// up as a throughput cliff in the benchmarks.
func TestDispatchSteadyStateAllocs(t *testing.T) {
	rig := newDispatchRig(t)
	// Warm every lazily grown structure: scratch buffers, the solve
	// memo, the flight pool, the heap and every backlog's backing array.
	for i := 0; i < 4*rigDecks; i++ {
		rig.step(t)
	}
	rig.checks = 0
	if allocs := testing.AllocsPerRun(8*rigDecks, func() { rig.step(t) }); allocs != 0 {
		t.Fatalf("steady-state dispatch allocates %.2f times per round, want 0", allocs)
	}
	if rig.checks == 0 {
		t.Fatal("no round ran the preemption check; the rotation lost its latency heads")
	}
}

// BenchmarkFleetDispatch times the dispatcher's steady-state hot path:
// back-to-back group formations over the rotating backlogs (greedy and
// windowed ILP over the memoized pattern-efficiency tables and solve
// memo), the preemption checks, plus the event-core heap round trip,
// with the Modeled engine supplying completions instantly.
// The ns/job metric is the fleet's per-job dispatch overhead; the alloc
// guard above pins the same loop at zero allocations, which -benchmem
// confirms here as allocs/op.
func BenchmarkFleetDispatch(b *testing.B) {
	rig := newDispatchRig(b)
	for i := 0; i < 4*rigDecks; i++ {
		rig.step(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	jobs := 0
	for i := 0; i < b.N; i++ {
		jobs += rig.step(b)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(jobs), "ns/job")
}
