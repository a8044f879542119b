package fleet

import (
	"bytes"
	"testing"

	"repro/internal/sched"
)

// seriesRun executes a small SLO-flavored fleet run with sampling on
// (preemption included, so the eviction busy-accounting path is
// exercised too) and returns the result.
func seriesRun(t *testing.T, sampleEvery uint64) Result {
	t.Helper()
	f, err := NewHomogeneous(testPipeline(t), 2, Config{
		NC: 2, Policy: sched.ILPSMRA,
		SLO:         SLOPreempt,
		Engine:      Modeled,
		SampleEvery: sampleEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	arr, err := ArrivalConfig{
		Kind: Poisson, Jobs: 40, Rate: 1.5,
		LatencyFrac: 0.3, Deadline: 50_000, Seed: 0xBEEF,
	}.Generate(testNames())
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(arr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTimeseriesInvariants cross-checks the sampled series against the
// run's own end-of-run accounting: the sampler and the Result must
// never disagree about the same run.
func TestTimeseriesInvariants(t *testing.T) {
	const interval = 10_000
	res := seriesRun(t, interval)
	s := res.Series
	if s == nil {
		t.Fatal("no series sampled")
	}
	if s.Interval() != interval {
		t.Fatalf("interval = %d, want %d", s.Interval(), interval)
	}
	if s.Rows() == 0 {
		t.Fatal("empty series")
	}
	cCycle, cDone, cMissed, cEvic := s.Col("cycle"), s.Col("done"), s.Col("missed"), s.Col("evictions")
	if cCycle < 0 || cDone < 0 || cMissed < 0 || cEvic < 0 {
		t.Fatalf("missing fixed columns in %v", s.Columns())
	}
	// Cycle strictly increases, lands on interval boundaries except for
	// a final partial row, and ends exactly at the makespan.
	prev := uint64(0)
	for r := 0; r < s.Rows(); r++ {
		c := s.At(r, cCycle)
		if c <= prev {
			t.Fatalf("row %d: cycle %d not increasing past %d", r, c, prev)
		}
		if c%interval != 0 && r != s.Rows()-1 {
			t.Fatalf("row %d: off-boundary cycle %d before the last row", r, c)
		}
		prev = c
		// Cumulative columns are monotone.
		for _, c := range []int{cDone, cMissed, cEvic} {
			if r > 0 && s.At(r, c) < s.At(r-1, c) {
				t.Fatalf("row %d: cumulative column %s decreased", r, s.Columns()[c])
			}
		}
	}
	last := s.Rows() - 1
	if got := s.At(last, cCycle); got != res.Makespan {
		t.Fatalf("final row at cycle %d, want makespan %d", got, res.Makespan)
	}
	if got := s.At(last, cDone); got != uint64(len(res.Jobs)) {
		t.Fatalf("final done = %d, want %d", got, len(res.Jobs))
	}
	if got := s.At(last, cMissed); got != uint64(res.DeadlineMisses()) {
		t.Fatalf("final missed = %d, want %d", got, res.DeadlineMisses())
	}
	if got := s.At(last, cEvic); got != uint64(len(res.Evictions)) {
		t.Fatalf("final evictions = %d, want %d", got, len(res.Evictions))
	}
	if got := s.At(last, s.Col("groups")); got != uint64(res.Groups) {
		t.Fatalf("final groups = %d, want %d", got, res.Groups)
	}
	if got := s.At(last, s.Col("queue")); got != 0 {
		t.Fatalf("final queue depth = %d, want 0", got)
	}
	// Per-device busy columns tile the run: summed over rows they must
	// equal the Result's busy-cycle accounting exactly, and no row may
	// claim more busy time than its interval covers.
	for d := 0; d < res.Devices; d++ {
		col := s.Col("d0_busy") + d
		sum := uint64(0)
		for r := 0; r < s.Rows(); r++ {
			v := s.At(r, col)
			span := uint64(interval)
			if r == last && s.At(r, cCycle)%interval != 0 {
				span = s.At(r, cCycle) % interval
			}
			if v > span {
				t.Fatalf("row %d device %d: busy %d exceeds the row's %d-cycle span", r, d, v, span)
			}
			sum += v
		}
		if sum != res.DeviceBusy[d] {
			t.Fatalf("device %d: series busy sums to %d, Result says %d", d, sum, res.DeviceBusy[d])
		}
	}
	// Queue class split is consistent.
	cq, cl, cb := s.Col("queue"), s.Col("queue_latency"), s.Col("queue_batch")
	for r := 0; r < s.Rows(); r++ {
		if s.At(r, cl)+s.At(r, cb) != s.At(r, cq) {
			t.Fatalf("row %d: class split %d+%d != queue %d", r, s.At(r, cl), s.At(r, cb), s.At(r, cq))
		}
	}
}

// TestTimeseriesDeterministic runs the same seeded scenario twice and
// requires byte-identical CSV and JSON renderings — the summary's
// reproducibility contract extended to the time axis.
func TestTimeseriesDeterministic(t *testing.T) {
	a, b := seriesRun(t, 10_000), seriesRun(t, 10_000)
	var csvA, csvB, jsonA, jsonB bytes.Buffer
	if err := a.Series.WriteCSV(&csvA); err != nil {
		t.Fatal(err)
	}
	if err := b.Series.WriteCSV(&csvB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvA.Bytes(), csvB.Bytes()) {
		t.Errorf("same-seed CSV series differ:\n--- run 1 ---\n%s--- run 2 ---\n%s", csvA.String(), csvB.String())
	}
	if err := a.Series.WriteJSON(&jsonA); err != nil {
		t.Fatal(err)
	}
	if err := b.Series.WriteJSON(&jsonB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonA.Bytes(), jsonB.Bytes()) {
		t.Error("same-seed JSON series differ")
	}
}

// TestTimeseriesOffByDefault locks the zero-cost default: no sampling
// configured, no series on the result.
func TestTimeseriesOffByDefault(t *testing.T) {
	res := seriesRun(t, 0)
	if res.Series != nil {
		t.Fatal("Series present without SampleEvery")
	}
}
