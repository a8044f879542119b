package main

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/analysis/simlint"
	"repro/internal/classify"
	"repro/internal/fleet"
)

func TestTailHasTenSamplesBeyond(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- { // unsorted on purpose
		xs = append(xs, float64(i))
	}
	got := tail(xs)
	// 100 samples: the 90th value has exactly ten above it.
	if got.Value != 90 || got.Beyond != 10 || got.N != 100 || got.Percentile != 90 {
		t.Fatalf("tail(1..100) = %+v, want value 90 at p90 with 10 beyond", got)
	}
	for _, n := range []int{11, 12, 37} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		got := tail(xs)
		above := 0
		for _, x := range xs {
			if x > got.Value {
				above++
			}
		}
		if above != tailBeyond {
			t.Errorf("n=%d: %d samples above the tail %v, want %d", n, above, got.Value, tailBeyond)
		}
	}
	// Too few samples for ten beyond: the maximum, flagged by Beyond 0.
	if got := tail([]float64{3, 1, 2}); got.Value != 3 || got.Beyond != 0 || got.Percentile != 100 {
		t.Fatalf("tail of 3 samples = %+v, want the maximum with 0 beyond", got)
	}
	if got := tail(nil); got != (tailStat{}) {
		t.Fatalf("tail(nil) = %+v", got)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{5}, 5}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "fleet.run", Op: 1, ID: 1, Start: 0, End: 100},
		// Two children overlap on [20,40) and one sticks out past the
		// parent's end: together they cover [10,50) and [90,100).
		{Name: "match.solve", Op: 1, ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "match.solve", Op: 1, ID: 3, Parent: 1, Start: 20, End: 50},
		{Name: "sched.rungroup", Op: 1, ID: 4, Parent: 1, Start: 90, End: 120},
		// A grandchild does not reduce the parent's self time, only its
		// own parent's.
		{Name: "gpu.step", Op: 1, ID: 5, Parent: 2, Start: 15, End: 25},
		// Same span ID in another op is a different span.
		{Name: "fleet.run", Op: 2, ID: 1, Start: 0, End: 10},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 30 - 10, 30, 30, 10, 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times = %v, want %v", got, want)
	}
	layers := layerSelf(spans)
	if layers["fleet"] != 60 || layers["match"] != 50 || layers["sched"] != 30 || layers["gpu"] != 10 {
		t.Fatalf("layer self times = %v", layers)
	}
}

func TestTracerSpanIDsAndParents(t *testing.T) {
	tr := &tracer{}
	id := tr.begin("fleet.run", 0)
	tr.end(id)
	if id != 0 || len(tr.spans) != 0 {
		t.Fatalf("disabled tracer recorded %v (id %d)", tr.spans, id)
	}
	on := &tracer{on: true, op: 7, base: 1}
	root := on.begin("bench.op", 1)
	child := on.begin("fleet.run", root)
	on.end(child)
	on.end(root)
	if root != 2 || child != 3 || on.spans[1].Parent != 2 || on.spans[0].Op != 7 || on.spans[0].End < on.spans[1].End {
		t.Fatalf("spans = %+v", on.spans)
	}
}

func TestOneByteDigestFlipFailsTheOp(t *testing.T) {
	summary := "fleet: policy=Even/FCFS devices=16\nmakespan    34318807 cycles\n"
	flipped := []byte(summary)
	flipped[len(flipped)-9] ^= 1
	ok := opResult{Digest: digestOf(summary), Conserved: true}
	bad := opResult{Digest: digestOf(string(flipped)), Conserved: true}

	// Recorded digest: the flipped op fails.
	g := &gate{want: ok.Digest, recorded: true}
	var l ledger
	for _, r := range []opResult{ok, bad, ok} {
		_ = l.record(g, r, nil)
	}
	if l.failed != 1 || l.failedFrac() <= 0 {
		t.Fatalf("recorded gate: failed %d of %d (frac %v), want the flipped op to fail", l.failed, l.attempted, l.failedFrac())
	}

	// Held-out seed: the first op is the reference the others must match.
	g, l = &gate{}, ledger{}
	for _, r := range []opResult{ok, ok, bad} {
		_ = l.record(g, r, nil)
	}
	if l.failed != 1 || l.failedFrac() <= 0 {
		t.Fatalf("held-out gate: failed %d of %d, want 1", l.failed, l.attempted)
	}

	// Broken conservation and an op error fail too.
	g, l = &gate{}, ledger{}
	_ = l.record(g, opResult{Digest: ok.Digest}, nil)
	_ = l.record(g, ok, fmt.Errorf("exit status 1"))
	if l.failed != 2 || l.failedFrac() != 1 {
		t.Fatalf("failed %d of %d, want both", l.failed, l.attempted)
	}
}

func TestRecordedDigestsCoverEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		if _, ok := recordedDigest(w.name, defaultSeed); !ok {
			t.Errorf("no recorded digest for %s at seed %d", w.name, defaultSeed)
		}
	}
	if _, ok := recordedDigest("fcfs-flood@shards2", defaultSeed); !ok {
		t.Errorf("no recorded digest for the sharding probe")
	}
	if _, ok := recordedDigest("fcfs-flood", defaultSeed+1); ok {
		t.Errorf("found a digest for a held-out seed")
	}
}

func TestClassWindows(t *testing.T) {
	M, MC, C, A := classify.ClassM, classify.ClassMC, classify.ClassC, classify.ClassA
	classes := []classify.Class{M, M, C, A, MC, A, A}
	got := classWindows(classes, 3, 1)
	var want [][classify.NumClasses]int
	for start := 0; start+3 <= len(classes); start++ {
		var c [classify.NumClasses]int
		for _, cls := range classes[start : start+3] {
			c[cls]++
		}
		want = append(want, c)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stride 1: %v, want %v", got, want)
	}
	// Window 0 of [M M C] and window 2 of [C A MC], spelled out.
	if got[0][M] != 2 || got[0][C] != 1 || got[2][C] != 1 || got[2][A] != 1 || got[2][MC] != 1 {
		t.Fatalf("window counts = %v", got)
	}
	if got := classWindows(classes, 3, 2); len(got) != 3 || got[1] != want[2] || got[2] != want[4] {
		t.Fatalf("stride 2: %v", got)
	}
	// Every window holds exactly width jobs.
	for _, c := range classWindows(classes, 4, 1) {
		if n := c[M] + c[MC] + c[C] + c[A]; n != 4 {
			t.Fatalf("window %v holds %d jobs, want 4", c, n)
		}
	}
	if got := classWindows(classes[:2], fleet.MaxWindow, 1); len(got) != 1 || got[0][M] != 2 {
		t.Fatalf("short stream: %v, want one window over both jobs", got)
	}
}

func TestTraceSpellingRoundTrips(t *testing.T) {
	acfg := fleet.ArrivalConfig{Kind: fleet.Bursty, Jobs: 500, Rate: 2, LatencyFrac: 0.1, Deadline: 38_000, Seed: 9}
	want, err := acfg.Generate(universeNames())
	if err != nil {
		t.Fatal(err)
	}
	got, err := fleet.ParseTrace(formatTrace(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("arrivals changed through formatTrace/ParseTrace")
	}
}

func TestSameHostIgnoresCommit(t *testing.T) {
	a := hostRecord{CPUModel: "x", NumCPU: 4, GOMAXPROCS: 4, GoVersion: "go1.24.0", Commit: "abc"}
	b := a
	b.Commit = "def"
	if why := sameHost(a, b); why != "" {
		t.Fatalf("same host with another commit: %q", why)
	}
	b.NumCPU = 8
	if why := sameHost(a, b); why == "" {
		t.Fatal("hosts with different NumCPU compared as the same")
	}
}

func TestMatchWindowsAreBounded(t *testing.T) {
	for _, n := range []int{fleet.MaxWindow, 100, 40_000} {
		got := len(matchWindows(make([]classify.Class, n)))
		if got < 1 || got > matchWindowsPerType || (n < matchWindowsPerType && got != n-fleet.MaxWindow+1) {
			t.Errorf("n=%d: %d windows", n, got)
		}
	}
}

// TestBenchmarkIsLintClean holds the benchmark to the repository's
// static-analysis suite, which the repository's own lint test does not
// reach: this directory is a module of its own.
func TestBenchmarkIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the module via go list -export")
	}
	_, file, _, _ := runtime.Caller(0)
	findings, err := simlint.Run(filepath.Dir(file), "./...")
	if err != nil {
		t.Fatalf("simlint.Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
