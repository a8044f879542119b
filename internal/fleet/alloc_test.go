package fleet

import (
	"testing"

	"repro/internal/sched"
)

// dispatchRig isolates the modeled engine's steady-state dispatch round
// for the alloc guard and BenchmarkFleetDispatch: a warm event loop with
// a standing backlog, with completed jobs fed back into the queue so the
// backlog never drains.
type dispatchRig struct {
	l *loop
}

// newDispatchRig builds the rig on the 4-device test fleet with a
// 128-job backlog, all waiting at cycle zero.
func newDispatchRig(tb testing.TB) *dispatchRig {
	tb.Helper()
	p := testPipeline(tb)
	f, err := New(Config{Devices: homo(p, 4), NC: 2, Policy: sched.ILP, Engine: Modeled})
	if err != nil {
		tb.Fatal(err)
	}
	names := testNames()
	arrivals := make([]Arrival, 128)
	for i := range arrivals {
		arrivals[i] = Arrival{Name: names[i%len(names)]}
	}
	jobs, err := f.resolve(arrivals)
	if err != nil {
		tb.Fatal(err)
	}
	l := f.newLoop(0, nil, nil)
	for _, j := range jobs {
		l.queue.insert(j)
	}
	return &dispatchRig{l: l}
}

// step runs one steady-state dispatch round on device 0 — exactly the
// modeled engine's per-decision work: the loop's own dispatch step
// (form a group, commit its modeled completion), then pop and recycle
// the flight — and returns how many jobs it dispatched. The completed
// group's jobs are re-queued before recycle (recycle nils the flight's
// job slots), so the backlog is invariant across rounds.
func (r *dispatchRig) step(tb testing.TB) int {
	l := r.l
	if err := l.dispatch(0); err != nil {
		tb.Fatal(err)
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
	return n
}

// TestDispatchSteadyStateAllocs locks the alloc scrub in place: once the
// dispatcher's scratch buffers, memo maps and flight pool are warm, one
// full dispatch round must not touch the heap at all. A regression here
// (a closure in the hot path, a map rebuilt per call, a profiler lookup
// creeping back in) fails this test before it shows up as a throughput
// cliff in the benchmarks.
func TestDispatchSteadyStateAllocs(t *testing.T) {
	rig := newDispatchRig(t)
	// Warm every lazily grown structure: scratch buffers, the solve
	// memo, the flight pool, the heap and queue backing arrays.
	for i := 0; i < 200; i++ {
		rig.step(t)
	}
	if allocs := testing.AllocsPerRun(500, func() { rig.step(t) }); allocs != 0 {
		t.Fatalf("steady-state dispatch allocates %.1f times per round, want 0", allocs)
	}
}

// BenchmarkFleetDispatch times the dispatcher's steady-state hot path:
// back-to-back group formations (windowed ILP over the memoized
// pattern-efficiency tables and solve memo) plus the event-core heap
// round trip, with the Modeled engine supplying completions instantly.
// The ns/job metric is the fleet's per-job dispatch overhead; the alloc
// guard above pins the same loop at zero allocations, which -benchmem
// confirms here as allocs/op.
func BenchmarkFleetDispatch(b *testing.B) {
	rig := newDispatchRig(b)
	for i := 0; i < 200; i++ {
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
