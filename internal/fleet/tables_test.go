package fleet

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/classify"
	"repro/internal/match"
	"repro/internal/rng"
	"repro/internal/sched"
)

// tableFleet builds an ILP fleet of group size nc over both testkit
// device types (the Small and Tiny calibrations, each with its own
// interference matrix), so every table is checked per type.
func tableFleet(t *testing.T, nc int) *Fleet {
	t.Helper()
	f, err := New(Config{
		Devices: []DeviceSpec{{Pipe: testPipeline(t), Count: 1}, {Pipe: pipelineFor(t, tinyConfig()), Count: 1}},
		NC:      nc,
		Policy:  sched.ILP,
		Engine:  Modeled,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// classJob is a bare job of class c on every device type — all the
// matcher tables read of a job.
func classJob(f *Fleet, c classify.Class) *job {
	j := &job{apps: make([]sched.QueuedApp, len(f.types))}
	for t := range j.apps {
		j.apps[t].Class = c
	}
	return j
}

// TestPatternEffMatchesEfficiency is the oracle for the class-count
// keyed tables: for NC 2 to 10, on both testkit matrices, patternEff
// over every class multiset of 2 to NC members — presented in reverse
// order, so the key cannot rely on sorted input — equals
// match.Efficiency of the sorted pattern bit for bit.
func TestPatternEffMatchesEfficiency(t *testing.T) {
	for nc := 2; nc <= 10; nc++ {
		f := tableFleet(t, nc)
		for size := 2; size <= nc; size++ {
			for _, p := range match.Patterns(size) {
				members := make([]*job, 0, size-1)
				for i := size - 1; i > 0; i-- {
					members = append(members, classJob(f, p[i]))
				}
				extra := classJob(f, p[0])
				for typ := range f.types {
					got := f.patternEff(typ, members, extra)
					want := match.Efficiency(f.types[typ].Matrix(), p)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("nc=%d type %d pattern %v: patternEff %v, Efficiency %v", nc, typ, p, got, want)
					}
				}
			}
		}
	}
}

// TestSolveWindowMatchesSolve checks the tabled, memoized window solve
// against the untabled matcher: for NC 2 to 10 and random window
// compositions of NC to MaxWindow jobs, solveWindow — cold and again
// from the memo — equals match.Solve on the type's matrix.
func TestSolveWindowMatchesSolve(t *testing.T) {
	draw := rng.NewStream(0x501)
	for nc := 2; nc <= 10; nc++ {
		f := tableFleet(t, nc)
		d := f.newDispatcher()
		// Wide groups make each branch-and-bound solve far costlier, so
		// they get fewer compositions.
		trials := 12
		if nc > 6 {
			trials = 2
		}
		for trial := 0; trial < trials; trial++ {
			var counts [classify.NumClasses]int
			n := nc + draw.Intn(MaxWindow-nc+1)
			for i := 0; i < n; i++ {
				counts[draw.Intn(int(classify.NumClasses))]++
			}
			for typ := range f.types {
				want, err := match.Solve(f.types[typ].Matrix(), counts, nc)
				if err != nil {
					t.Fatal(err)
				}
				for pass := 0; pass < 2; pass++ {
					got, err := d.solveWindow(typ, counts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("nc=%d type %d counts %v pass %d:\n solveWindow %v\n match.Solve %v", nc, typ, counts, pass, got, want)
					}
				}
			}
		}
	}
}

// coRunCyclesRef is the preemption check's co-run estimate as it was
// computed per call before the uniform-company table: the remaining solo
// duration scaled by the worst MemberSlowdown over NC-1 same-class
// partners, one fresh pattern per partner class.
func coRunCyclesRef(f *Fleet, j *job, t int) (uint64, bool) {
	solo, ok := f.soloCycles(j, t)
	if !ok {
		return 0, false
	}
	m := f.types[t].Matrix()
	if m == nil || f.cfg.NC < 2 {
		return solo, true
	}
	cls := j.apps[t].Class
	worst := 1.0
	for c := classify.Class(0); c < classify.NumClasses; c++ {
		p := make(match.Pattern, f.cfg.NC)
		p[0] = cls
		for i := 1; i < f.cfg.NC; i++ {
			p[i] = c
		}
		if s := match.MemberSlowdown(m, p, 0); s > worst {
			worst = s
		}
	}
	return uint64(float64(solo) * worst), true
}

// TestCoRunCyclesMatchesReference pins the table lookup to the per-call
// loop it replaced, for NC 1 to 10 on both testkit types, every testkit
// application, fresh and checkpointed.
func TestCoRunCyclesMatchesReference(t *testing.T) {
	arrivals := make([]Arrival, 0, len(testNames()))
	for _, name := range testNames() {
		arrivals = append(arrivals, Arrival{Name: name})
	}
	for nc := 1; nc <= 10; nc++ {
		f := tableFleet(t, nc)
		jobs, err := f.resolve(arrivals)
		if err != nil {
			t.Fatal(err)
		}
		for _, progress := range []float64{0, 0.37} {
			for _, j := range jobs {
				j.progress = progress
				for typ := range f.types {
					got, gotOK := f.coRunCycles(j, typ)
					want, wantOK := coRunCyclesRef(f, j, typ)
					if got != want || gotOK != wantOK {
						t.Fatalf("nc=%d %s type %d progress %g: coRunCycles (%d, %v), reference (%d, %v)",
							nc, j.name(), typ, progress, got, gotOK, want, wantOK)
					}
				}
			}
		}
	}
}

// TestILPAtNCOneIsGreedy: a group of one has no partner to match, so an
// ILP policy at NC = 1 forms every group greedily, and aging must not
// route the singletons through the matcher or count them as ILP groups.
// The members are the same either way: each group is the queue head.
func TestILPAtNCOneIsGreedy(t *testing.T) {
	arr, err := ArrivalConfig{Kind: Poisson, Jobs: 40, Rate: 20, Seed: 3}.Generate(testNames())
	if err != nil {
		t.Fatal(err)
	}
	var runs []Result
	for _, aging := range []float64{0, 1} {
		f, err := New(Config{Devices: homo(testPipeline(t), 2), NC: 1, Policy: sched.ILP, Engine: Modeled, Aging: aging})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(arr)
		if err != nil {
			t.Fatal(err)
		}
		if res.ILPGroups != 0 || res.GreedyGroups != res.Groups || res.Groups != len(arr) {
			t.Fatalf("aging=%g: %d groups (greedy %d, ilp %d), want %d greedy singletons",
				aging, res.Groups, res.GreedyGroups, res.ILPGroups, len(arr))
		}
		runs = append(runs, res)
	}
	if !reflect.DeepEqual(runs[0].Jobs, runs[1].Jobs) {
		t.Fatal("aging changed the job records of an NC = 1 run")
	}
}
