package fleet

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sched"
)

// closedCase is the canonical closed-loop scenario the control tests
// share: a heterogeneous roster under client-pool traffic with think
// time, timeouts and retries, plus admission control and an elastic
// roster — every control surface on at once, which is exactly the
// configuration most likely to break determinism.
func closedCase(t *testing.T, shards int) Config {
	t.Helper()
	small := testPipeline(t)
	tiny := pipelineFor(t, tinyConfig())
	return Config{
		Devices: []DeviceSpec{{Pipe: small, Count: 4}, {Pipe: tiny, Count: 4}},
		NC:      2,
		Policy:  sched.ILPSMRA,
		Engine:  Modeled,
		SLO:     SLOPriority,
		Shards:  shards,
		// The epoch doubles as the router barrier and the autoscale
		// reconciliation grid; keep it short so runs cross many of both.
		ShardEpoch:  10_000,
		SampleEvery: goldenSampleEvery,
		Closed: ClosedConfig{
			Clients: 16, Requests: 5,
			Think: 5_000, Timeout: 45_000, Retries: 2,
			LatencyFrac: 0.25, Deadline: 60_000,
			Seed: 0xC105ED, Universe: testNames(),
		},
		Admission: AdmissionConfig{MaxWait: 60_000},
		// The low High watermark makes the roster actually move under
		// this load, so the goldens lock provision ordering too.
		Autoscale: AutoscaleConfig{Min: 4, Max: 8, High: 1.2, Low: 0.5},
	}
}

// runClosedCase executes the scenario and renders the full observable
// output, mirroring runShardedCase for the control surfaces.
func runClosedCase(t *testing.T, shards int) (Result, string, string) {
	t.Helper()
	f, err := New(closedCase(t, shards))
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	if err := res.Series.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	return res, res.Summary() + res.EvictionTrace(), csv.String()
}

// checkConservation asserts the job-conservation invariant on a drained
// run: every submitted attempt ended in exactly one of completed,
// rejected or abandoned (nothing is in flight once Run returns), and
// the per-job records agree with the aggregate counters.
func checkConservation(t *testing.T, label string, res Result, jobs int) {
	t.Helper()
	if got := res.Submitted; got != res.CompletedJobs()+res.Rejected+res.Abandoned {
		t.Errorf("%s: conservation broken: submitted %d != completed %d + rejected %d + abandoned %d",
			label, got, res.CompletedJobs(), res.Rejected, res.Abandoned)
	}
	if len(res.Jobs) != jobs {
		t.Errorf("%s: job records = %d, want %d", label, len(res.Jobs), jobs)
	}
	if res.Retried != res.Submitted-jobs {
		t.Errorf("%s: retried %d != submitted %d - jobs %d", label, res.Retried, res.Submitted, jobs)
	}
	attempts, done, rejected, abandoned := 0, 0, 0, 0
	for _, j := range res.Jobs {
		attempts += j.Attempts
		switch j.Outcome {
		case Done:
			done++
			if j.Device < 0 {
				t.Errorf("%s: job %d done on device %d", label, j.ID, j.Device)
			}
			if j.Complete < j.Dispatch || j.Dispatch < j.Arrival {
				t.Errorf("%s: job %d times out of order: arrival %d dispatch %d complete %d",
					label, j.ID, j.Arrival, j.Dispatch, j.Complete)
			}
		case Rejected:
			rejected++
		case Abandoned:
			abandoned++
		}
		if j.Attempts < 1 {
			t.Errorf("%s: job %d records %d attempts", label, j.ID, j.Attempts)
		}
	}
	if attempts != res.Submitted {
		t.Errorf("%s: per-job attempts sum %d != submitted %d", label, attempts, res.Submitted)
	}
	if done != res.CompletedJobs() {
		t.Errorf("%s: done records %d != CompletedJobs %d", label, done, res.CompletedJobs())
	}
	// The aggregate rejected/abandoned counters are per attempt; the
	// records carry only each job's terminal outcome, so the records
	// bound the counters from below.
	if rejected > res.Rejected || abandoned > res.Abandoned {
		t.Errorf("%s: terminal rejected/abandoned %d/%d exceed attempt counters %d/%d",
			label, rejected, abandoned, res.Rejected, res.Abandoned)
	}
}

// TestClosedLoopConservation is the property test behind the control
// surfaces: across engines, shard counts, policies and seeds, every
// submitted attempt is accounted for — no job is lost or double-counted
// whatever combination of timeouts, retries, rejections and roster
// changes the run went through.
func TestClosedLoopConservation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		engine EngineMode
		shards int
		policy sched.Policy
	}{
		{"cycle-fcfs", Cycle, 0, sched.FCFS},
		{"cycle-ilp", Cycle, 0, sched.ILPSMRA},
		{"modeled-1", Modeled, 1, sched.ILPSMRA},
		{"modeled-2", Modeled, 2, sched.ILPSMRA},
		{"modeled-4", Modeled, 4, sched.ILPSMRA},
	} {
		for _, seed := range []uint64{1, 2, 0xDEAD} {
			cfg := closedCase(t, tc.shards)
			cfg.Engine = tc.engine
			cfg.Policy = tc.policy
			cfg.Closed.Seed = seed
			// Tighten patience on one seed so abandonment and retry
			// exhaustion actually fire.
			if seed == 2 {
				cfg.Closed.Timeout = 20_000
				cfg.Admission.MaxWait = 30_000
			}
			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := f.Run(nil)
			if err != nil {
				t.Fatal(err)
			}
			label := tc.name
			checkConservation(t, label, res, cfg.Closed.Clients*cfg.Closed.Requests)
		}
	}
}

// TestClosedGolden locks the closed-loop path's observable output at
// one and two shards — summary, eviction trace and time series with
// the control-column block. Regenerate with
//
//	go test ./internal/fleet -run ClosedGolden -update
//
// only when the control surfaces' behavior is meant to change.
func TestClosedGolden(t *testing.T) {
	for _, shards := range []int{1, 2} {
		res, summary, csv := runClosedCase(t, shards)
		if !res.Closed || !res.Admission || !res.Autoscale {
			t.Fatalf("shards=%d: control flags = %v/%v/%v, want all true",
				shards, res.Closed, res.Admission, res.Autoscale)
		}
		name := "closed_shard1"
		if shards == 2 {
			name = "closed_shard2"
		}
		compareGolden(t, name+".golden", summary)
		compareGolden(t, "timeseries_"+name+".golden", csv)
	}
}

// TestClosedShardedDeterminism mirrors TestShardedDeterminism for the
// control surfaces: with closed-loop clients, admission control and the
// autoscaler all live, repeated runs at every shard count must produce
// byte-identical summaries, traces and series. Runs under -race in CI.
func TestClosedShardedDeterminism(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		_, firstSum, firstCSV := runClosedCase(t, shards)
		for run := 1; run < 3; run++ {
			_, sum, csv := runClosedCase(t, shards)
			if sum != firstSum {
				t.Fatalf("shards=%d run %d summary diverged from run 0:\n--- first ---\n%s--- again ---\n%s",
					shards, run, firstSum, sum)
			}
			if csv != firstCSV {
				t.Fatalf("shards=%d run %d time series diverged from run 0", shards, run)
			}
		}
	}
}

// TestAdmissionReducesMisses is the ablation the FleetAdmission
// scenario reports: under a flash crowd (many clients, no think time),
// admission control must strictly reduce the deadline-miss rate, and
// the cost — rejections — must be visible in the counters.
func TestAdmissionReducesMisses(t *testing.T) {
	run := func(admission bool) Result {
		cfg := closedCase(t, 1)
		cfg.Autoscale = AutoscaleConfig{}
		cfg.Closed.Clients = 24
		cfg.Closed.Requests = 4
		// Nonzero think time is what gives rejection its teeth: a
		// rejected client leaves for a think period instead of hammering
		// the queue again in the same cycle.
		cfg.Closed.Think = 10_000
		cfg.Closed.Timeout = 0
		cfg.Closed.Retries = 0
		cfg.Closed.LatencyFrac = 0.5
		cfg.Admission = AdmissionConfig{}
		if admission {
			cfg.Admission = AdmissionConfig{MaxWait: 25_000}
		}
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off, on := run(false), run(true)
	if off.Rejected != 0 {
		t.Fatalf("admission off rejected %d jobs", off.Rejected)
	}
	if on.Rejected == 0 {
		t.Fatal("admission on rejected nothing; the bound never bit")
	}
	if off.DeadlineMisses() == 0 {
		t.Fatal("flash crowd missed no deadlines; the ablation has no signal")
	}
	if on.MissRate() >= off.MissRate() {
		t.Errorf("admission on miss rate %.3f not below off %.3f (rejected %d)",
			on.MissRate(), off.MissRate(), on.Rejected)
	}
	checkConservation(t, "admission-off", off, 96)
	checkConservation(t, "admission-on", on, 96)
}

// TestAdmissionDegradeKeepsWork checks the degrade mode's contract:
// over-bound latency submissions are admitted as batch instead of
// rejected, so nothing is dropped and the degradations are counted.
func TestAdmissionDegradeKeepsWork(t *testing.T) {
	cfg := closedCase(t, 1)
	cfg.Autoscale = AutoscaleConfig{}
	cfg.Closed.Clients = 24
	cfg.Closed.Requests = 4
	cfg.Closed.Think = 0
	cfg.Closed.Timeout = 0
	cfg.Closed.Retries = 0
	cfg.Closed.LatencyFrac = 0.5
	cfg.Admission = AdmissionConfig{MaxWait: 40_000, Degrade: true}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 0 {
		t.Errorf("degrade mode rejected %d submissions", res.Rejected)
	}
	if res.Degraded == 0 {
		t.Error("degrade mode degraded nothing; the bound never bit")
	}
	if got := res.CompletedJobs(); got != 96 {
		t.Errorf("completed %d of 96 jobs; degrade mode must not drop work", got)
	}
}

// TestAutoscaleScales checks the elastic roster actually moves: under
// sustained closed-loop pressure with a small floor, the run must
// provision devices, and scale-down must reclaim them by the end.
func TestAutoscaleScales(t *testing.T) {
	cfg := closedCase(t, 1)
	cfg.Autoscale = AutoscaleConfig{Min: 1, Max: 8, High: 1.5, Low: 0.25}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Provisions == 0 {
		t.Error("autoscaler provisioned nothing under sustained pressure")
	}
	if res.Decommissions == 0 {
		t.Error("autoscaler never scaled down as the run drained")
	}
	checkConservation(t, "autoscale", res, cfg.Closed.Clients*cfg.Closed.Requests)
}

// TestClosedRejectsArrivals pins the Run contract: a closed-loop fleet
// generates its own submissions, so passing an open arrival stream is
// rejected rather than silently merged.
func TestClosedRejectsArrivals(t *testing.T) {
	cfg := closedCase(t, 1)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(testArrivals(t, 4, 1)); err == nil {
		t.Fatal("closed-loop Run accepted an arrival stream")
	}
}

// TestControlValidation covers the new Config surfaces' validation.
func TestControlValidation(t *testing.T) {
	base := func() Config { return closedCase(t, 1) }
	for _, tc := range []struct {
		name   string
		break_ func(*Config)
	}{
		{"negative clients", func(c *Config) { c.Closed.Clients = -1 }},
		{"negative think", func(c *Config) { c.Closed.Think = -1 }},
		{"latency frac", func(c *Config) { c.Closed.LatencyFrac = 1.5 }},
		{"negative retries", func(c *Config) { c.Closed.Retries = -1 }},
		{"empty universe", func(c *Config) { c.Closed.Universe = nil }},
		{"autoscale min", func(c *Config) { c.Autoscale.Min = -1 }},
		{"autoscale order", func(c *Config) { c.Autoscale.Min = 6; c.Autoscale.Max = 2 }},
		{"autoscale roster", func(c *Config) { c.Autoscale.Max = 99 }},
		{"autoscale watermarks", func(c *Config) { c.Autoscale.High = 0.2; c.Autoscale.Low = 0.8 }},
		{"autoscale shards", func(c *Config) { c.Shards = 4; c.Autoscale.Min = 2 }},
	} {
		cfg := base()
		tc.break_(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}
}

// TestSplitBound pins the autoscale bound split to the round-robin
// device deal: shares differ by at most one and sum to the whole.
func TestSplitBound(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{4, 1}, {5, 2}, {8, 4}, {3, 4}, {0, 2}} {
		sum := 0
		for i := 0; i < tc.k; i++ {
			s := splitBound(tc.n, tc.k, i)
			sum += s
			if s < tc.n/tc.k || s > tc.n/tc.k+1 {
				t.Errorf("splitBound(%d,%d,%d) = %d", tc.n, tc.k, i, s)
			}
		}
		if sum != tc.n {
			t.Errorf("splitBound(%d,%d,·) sums to %d", tc.n, tc.k, sum)
		}
	}
}

// TestControlSpellingsSwitchSurfaces pins the zero-value-is-off rule
// for every control spelling cmd/fleet and the sweep grid share: "" and
// "off" parse to the zero value and a run reports the surface off;
// every accepted non-off spelling runs with the surface on.
func TestControlSpellingsSwitchSurfaces(t *testing.T) {
	p := testPipeline(t)
	arrivals := testArrivals(t, 24, 1)
	// Each surface parses its spelling into cfg and reports whether the
	// parse gave the zero value and whether the run had the surface on.
	type surface struct {
		name   string
		parse  func(s string, cfg *Config) (zero bool, err error)
		on     func(f *Fleet, r Result) bool
		spells []string
	}
	for _, sf := range []surface{
		{"slo", func(s string, cfg *Config) (bool, error) {
			m, err := ParseSLOMode(s)
			cfg.SLO = m
			return m == SLOOff, err
		}, func(f *Fleet, _ Result) bool { return f.Config().SLO != SLOOff },
			[]string{"priority", "preempt", "PREEMPT"}},
		{"admission", func(s string, cfg *Config) (bool, error) {
			a, err := ParseAdmission(s)
			cfg.Admission = a
			return a == AdmissionConfig{}, err
		}, func(_ *Fleet, r Result) bool { return r.Admission },
			[]string{"reject:5000", "degrade:5000", "reject-modeled:5000", "DEGRADE-MODELED:5000"}},
		{"autoscale", func(s string, cfg *Config) (bool, error) {
			a, err := ParseAutoscale(s)
			cfg.Autoscale = a
			return a == AutoscaleConfig{}, err
		}, func(_ *Fleet, r Result) bool { return r.Autoscale },
			[]string{"1:2", "2:2"}},
		{"chaos", func(s string, cfg *Config) (bool, error) {
			c, err := ParseChaosSpec(s)
			cfg.Chaos = c
			return reflect.DeepEqual(c, ChaosConfig{}), err
		}, func(_ *Fleet, r Result) bool { return r.Chaos },
			[]string{"fail@1000:0,restore@50000:0", "drain@0:1,restore@9000:1", "mtbf:40000:5000", "mtbf:40000:5000:90000"}},
	} {
		for _, s := range append([]string{"", "off", "OFF"}, sf.spells...) {
			cfg := Config{Devices: homo(p, 2), NC: 2, Policy: sched.FCFS, Engine: Modeled}
			zero, err := sf.parse(s, &cfg)
			if err != nil {
				t.Fatalf("%s %q: %v", sf.name, s, err)
			}
			off := s == "" || strings.EqualFold(s, "off")
			if zero != off {
				t.Errorf("%s %q: zero value = %v, want %v", sf.name, s, zero, off)
			}
			f, err := New(cfg)
			if err != nil {
				t.Fatalf("%s %q: %v", sf.name, s, err)
			}
			res, err := f.Run(arrivals)
			if err != nil {
				t.Fatalf("%s %q: %v", sf.name, s, err)
			}
			if got := sf.on(f, res); got == off {
				t.Errorf("%s %q: run reports the surface on = %v", sf.name, s, got)
			}
			// No other surface switches on as a side effect.
			n, want := 0, 0
			for _, on := range []bool{res.Closed, res.Admission, res.Autoscale, res.Chaos} {
				if on {
					n++
				}
			}
			if !off && sf.name != "slo" {
				want = 1
			}
			if n != want {
				t.Errorf("%s %q: %d surfaces on (closed=%v admission=%v autoscale=%v chaos=%v)",
					sf.name, s, n, res.Closed, res.Admission, res.Autoscale, res.Chaos)
			}
		}
	}
	// Closed-loop traffic has no spelling of its own beyond the arrival
	// kind: it is on exactly when there are clients.
	for _, clients := range []int{0, 3} {
		cfg := Config{Devices: homo(p, 2), NC: 2, Policy: sched.FCFS, Engine: Modeled,
			Closed: ClosedConfig{Clients: clients, Requests: 2, Universe: testNames()}}
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		in := arrivals
		if clients > 0 {
			in = nil
		}
		res, err := f.Run(in)
		if err != nil {
			t.Fatalf("clients=%d: %v", clients, err)
		}
		if res.Closed != (clients > 0) {
			t.Errorf("clients=%d: Result.Closed = %v", clients, res.Closed)
		}
	}
}
