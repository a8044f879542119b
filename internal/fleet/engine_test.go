package fleet

import (
	"strings"
	"testing"

	"repro/internal/sched"
)

// TestModeledEngineDeterminism extends the reproducibility contract to
// the analytic engine: two Modeled runs of the same stream are
// byte-identical, every group is modeled, and the summary says so.
func TestModeledEngineDeterminism(t *testing.T) {
	p := testPipeline(t)
	arr := testArrivals(t, 24, 3)
	var summaries []string
	for i := 0; i < 2; i++ {
		f, err := New(Config{Devices: homo(p, 3), NC: 2, Policy: sched.ILPSMRA, Engine: Modeled})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(arr)
		if err != nil {
			t.Fatal(err)
		}
		if res.ModeledGroups != res.Groups || res.CycleGroups != 0 {
			t.Fatalf("modeled engine simulated: %d modeled, %d cycle of %d groups",
				res.ModeledGroups, res.CycleGroups, res.Groups)
		}
		summaries = append(summaries, res.Summary())
	}
	if summaries[0] != summaries[1] {
		t.Fatalf("modeled summaries differ:\n--- run 1 ---\n%s--- run 2 ---\n%s", summaries[0], summaries[1])
	}
	if !strings.Contains(summaries[0], "engine      modeled") {
		t.Fatalf("summary missing the engine line:\n%s", summaries[0])
	}
}

// TestModeledSerialMatchesCycle pins the model to the simulator where
// they provably coincide: a Serial dispatch runs every job alone, the
// model predicts a lone member at exactly its solo-profile duration,
// and RunGroup serves single-member groups from the same solo profile —
// so every per-job record must match exactly, not just within
// tolerance.
func TestModeledSerialMatchesCycle(t *testing.T) {
	p := testPipeline(t)
	arr := testArrivals(t, 10, 5)
	var runs []Result
	for _, engine := range []EngineMode{Cycle, Modeled} {
		f, err := New(Config{Devices: homo(p, 2), NC: 1, Policy: sched.Serial, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(arr)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, res)
	}
	if len(runs[0].Jobs) != len(runs[1].Jobs) {
		t.Fatalf("job counts differ: %d vs %d", len(runs[0].Jobs), len(runs[1].Jobs))
	}
	for i := range runs[0].Jobs {
		if runs[0].Jobs[i] != runs[1].Jobs[i] {
			t.Errorf("job %d diverged:\ncycle:   %+v\nmodeled: %+v", i, runs[0].Jobs[i], runs[1].Jobs[i])
		}
	}
	if runs[0].Makespan != runs[1].Makespan {
		t.Errorf("makespan: cycle %d, modeled %d", runs[0].Makespan, runs[1].Makespan)
	}
	if runs[0].ThreadInstructions != runs[1].ThreadInstructions {
		t.Errorf("instructions: cycle %d, modeled %d", runs[0].ThreadInstructions, runs[1].ThreadInstructions)
	}
}

// TestHybridWithinTolerance checks the calibrated model tracks the
// simulator on a small config: the Hybrid run must mix cycle-accurate
// and modeled groups, report its fidelity delta, and land its headline
// summary statistics within a modeling tolerance of the all-cycle run.
func TestHybridWithinTolerance(t *testing.T) {
	p := testPipeline(t)
	arr := testArrivals(t, 24, 7)
	var runs []Result
	for _, engine := range []EngineMode{Cycle, Hybrid} {
		f, err := New(Config{Devices: homo(p, 2), NC: 2, Policy: sched.ILP, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(arr)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, res)
	}
	cycle, hybrid := runs[0], runs[1]
	if hybrid.CycleGroups == 0 || hybrid.ModeledGroups == 0 {
		t.Fatalf("hybrid did not mix engines: %d cycle, %d modeled", hybrid.CycleGroups, hybrid.ModeledGroups)
	}
	if !strings.Contains(hybrid.Summary(), "model delta") {
		t.Fatalf("hybrid summary missing the fidelity delta:\n%s", hybrid.Summary())
	}
	// The model is an approximation; what must hold is agreement on the
	// aggregate shape of the run, not cycle equality. The bounds are
	// deliberately loose enough to survive matrix recalibrations and
	// tight enough to catch unit mistakes (a warp-vs-thread or
	// solo-vs-co-run mixup is a >2x error).
	rel := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		d := a/b - 1
		if d < 0 {
			d = -d
		}
		return d
	}
	if d := rel(float64(hybrid.Makespan), float64(cycle.Makespan)); d > 0.35 {
		t.Errorf("hybrid makespan %d vs cycle %d (%.0f%% apart)", hybrid.Makespan, cycle.Makespan, 100*d)
	}
	if d := rel(hybrid.TurnaroundSummary().Mean, cycle.TurnaroundSummary().Mean); d > 0.35 {
		t.Errorf("hybrid mean turnaround %.1f vs cycle %.1f (%.0f%% apart)",
			hybrid.TurnaroundSummary().Mean, cycle.TurnaroundSummary().Mean, 100*d)
	}
	if hybrid.ModelDelta <= 0 || hybrid.ModelDelta > 0.5 {
		t.Errorf("model delta %.3f outside the plausible band (0, 0.5]", hybrid.ModelDelta)
	}
	if cycle.ThreadInstructions != hybrid.ThreadInstructions {
		t.Errorf("retired instructions differ: cycle %d, hybrid %d (the model must not invent work)",
			cycle.ThreadInstructions, hybrid.ThreadInstructions)
	}
}

// TestHybridDeterminism: the Hybrid engine's warm-up counting and
// calibration are part of the deterministic event loop, so identical
// runs must agree byte for byte.
func TestHybridDeterminism(t *testing.T) {
	p := testPipeline(t)
	arr := testArrivals(t, 20, 11)
	var summaries []string
	for i := 0; i < 2; i++ {
		f, err := New(Config{Devices: homo(p, 2), NC: 2, Policy: sched.ILPSMRA, Engine: Hybrid, HybridWarm: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(arr)
		if err != nil {
			t.Fatal(err)
		}
		summaries = append(summaries, res.Summary())
	}
	if summaries[0] != summaries[1] {
		t.Fatalf("hybrid summaries differ:\n--- run 1 ---\n%s--- run 2 ---\n%s", summaries[0], summaries[1])
	}
}

// TestModeledPreemption exercises SLO preemption on top of the analytic
// engine: evictions, checkpoints and re-dispatch accounting must work
// without a simulator in the loop, deterministically.
func TestModeledPreemption(t *testing.T) {
	p := testPipeline(t)
	arr, err := ArrivalConfig{
		Kind: Poisson, Jobs: 30, Rate: 1.5,
		LatencyFrac: 0.25, Deadline: 60_000, Seed: 0x510,
	}.Generate(testNames())
	if err != nil {
		t.Fatal(err)
	}
	var summaries []string
	for i := 0; i < 2; i++ {
		f, err := New(Config{
			Devices: homo(p, 2), NC: 2, Policy: sched.ILPSMRA, Engine: Modeled,
			SLO: SLOPreempt,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(arr)
		if err != nil {
			t.Fatal(err)
		}
		summaries = append(summaries, res.Summary()+res.EvictionTrace())
	}
	if summaries[0] != summaries[1] {
		t.Fatalf("modeled preemption runs differ:\n--- run 1 ---\n%s--- run 2 ---\n%s", summaries[0], summaries[1])
	}
}

// TestHybridPreemptionDeterminism drives preemption into the Hybrid
// engine's warm-up phase: evicting a warm-up flight refunds its
// calibration slot (the abandoned simulation can never feed the
// calibration), and the whole dance must stay byte-reproducible.
func TestHybridPreemptionDeterminism(t *testing.T) {
	p := testPipeline(t)
	arr, err := ArrivalConfig{
		Kind: Poisson, Jobs: 30, Rate: 1.5,
		LatencyFrac: 0.25, Deadline: 60_000, Seed: 0x510,
	}.Generate(testNames())
	if err != nil {
		t.Fatal(err)
	}
	var summaries []string
	for i := 0; i < 2; i++ {
		f, err := New(Config{
			Devices: homo(p, 2), NC: 2, Policy: sched.ILPSMRA, Engine: Hybrid, HybridWarm: 1,
			SLO: SLOPreempt,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(arr)
		if err != nil {
			t.Fatal(err)
		}
		summaries = append(summaries, res.Summary()+res.EvictionTrace())
	}
	if summaries[0] != summaries[1] {
		t.Fatalf("hybrid preemption runs differ:\n--- run 1 ---\n%s--- run 2 ---\n%s", summaries[0], summaries[1])
	}
}

// TestParseEngine covers the CLI spellings.
func TestParseEngine(t *testing.T) {
	for s, want := range map[string]EngineMode{
		"cycle": Cycle, "modeled": Modeled, "model": Modeled, "hybrid": Hybrid, "HYBRID": Hybrid,
	} {
		got, err := ParseEngine(s)
		if err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseEngine("exact"); err == nil {
		t.Error("accepted unknown engine name")
	}
}

// TestEngineConfigValidation guards the engine-specific config checks.
func TestEngineConfigValidation(t *testing.T) {
	p := testPipeline(t)
	if _, err := New(Config{Devices: homo(p, 1), NC: 2, Policy: sched.FCFS, Engine: EngineMode(9)}); err == nil {
		t.Error("accepted unknown engine mode")
	}
	if _, err := New(Config{Devices: homo(p, 1), NC: 2, Policy: sched.FCFS, Engine: Hybrid, HybridWarm: -1}); err == nil {
		t.Error("accepted negative hybrid warm-up")
	}
	f, err := New(Config{Devices: homo(p, 1), NC: 2, Policy: sched.FCFS, Engine: Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	if f.Config().HybridWarm != DefaultHybridWarm {
		t.Errorf("HybridWarm default = %d, want %d", f.Config().HybridWarm, DefaultHybridWarm)
	}
}
