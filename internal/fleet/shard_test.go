package fleet

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sched"
)

// shardedCase is the canonical shards>1 scenario the golden and
// determinism tests share: heterogeneous roster, Modeled engine,
// preemptive SLO traffic, a sampling interval, and an epoch short
// enough that the run crosses many router barriers.
func shardedCase(t *testing.T, shards int) (Config, []Arrival) {
	t.Helper()
	small := testPipeline(t)
	tiny := pipelineFor(t, tinyConfig())
	arr, err := ArrivalConfig{
		Kind: Poisson, Jobs: 48, Rate: 1.5,
		LatencyFrac: 0.25, Deadline: 60_000, Seed: 0x54A8D,
	}.Generate(testNames())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Devices:     []DeviceSpec{{Pipe: small, Count: 2}, {Pipe: tiny, Count: 2}},
		NC:          2,
		Policy:      sched.ILPSMRA,
		Engine:      Modeled,
		SLO:         SLOConfig{Enabled: true, Preempt: true},
		Shards:      shards,
		ShardEpoch:  10_000,
		SampleEvery: goldenSampleEvery,
	}
	return cfg, arr
}

// runShardedCase executes the scenario and renders the full observable
// output: the summary plus eviction trace, and the time-series CSV.
func runShardedCase(t *testing.T, shards int) (Result, string, string) {
	t.Helper()
	cfg, arr := shardedCase(t, shards)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(arr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Series == nil {
		t.Fatal("SampleEvery set but Result.Series is nil")
	}
	var csv strings.Builder
	if err := res.Series.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	return res, res.Summary() + res.EvictionTrace(), csv.String()
}

// TestShardedGolden locks the sharded path's observable output — the
// shards>1 extension of the cycle/modeled goldens. Regenerate with
//
//	go test ./internal/fleet -run ShardedGolden -update
//
// only when the sharded engine's behavior is meant to change.
func TestShardedGolden(t *testing.T) {
	res, summary, csv := runShardedCase(t, 2)
	if res.Shards != 2 {
		t.Fatalf("Result.Shards = %d, want 2", res.Shards)
	}
	compareGolden(t, "modeled_sharded.golden", summary)
	compareGolden(t, "timeseries_sharded.golden", csv)
}

// TestShardedDeterminism is the reproducibility contract on the
// concurrent path: with goroutine-per-shard execution, repeated runs at
// every shard count must produce byte-identical summaries, eviction
// traces and time series. Runs under -race in CI, so a data race
// between shard loops fails loudly rather than flaking.
func TestShardedDeterminism(t *testing.T) {
	for _, shards := range []int{2, 3, 4} {
		_, firstSum, firstCSV := runShardedCase(t, shards)
		for run := 1; run < 3; run++ {
			_, sum, csv := runShardedCase(t, shards)
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

// TestShardsOneMatchesGoldens pins shards=1 to the unsharded run: an
// explicit Shards: 1 must reproduce the existing Cycle-engine goldens
// byte for byte (it takes the identical code path, and validation must
// accept the shard count under every engine).
func TestShardsOneMatchesGoldens(t *testing.T) {
	for _, tc := range goldenCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			cfg.SampleEvery = goldenSampleEvery
			cfg.Shards = 1
			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := f.Run(tc.arr)
			if err != nil {
				t.Fatal(err)
			}
			compareGolden(t, "cycle_"+tc.name+".golden", res.Summary()+res.EvictionTrace())
			var csv strings.Builder
			if err := res.Series.WriteCSV(&csv); err != nil {
				t.Fatal(err)
			}
			compareGolden(t, "timeseries_"+tc.name+".golden", csv.String())
		})
	}
}

// TestShardedAccountsEveryJob checks global job conservation through
// the router and merge at several shard counts.
func TestShardedAccountsEveryJob(t *testing.T) {
	for _, shards := range []int{2, 4} {
		res, _, _ := runShardedCase(t, shards)
		if len(res.Jobs) != 48 {
			t.Fatalf("shards=%d: jobs = %d, want 48", shards, len(res.Jobs))
		}
		done := 0
		for _, j := range res.Jobs {
			if j.Complete <= j.Arrival {
				t.Errorf("shards=%d: job %d complete %d not after arrival %d", shards, j.ID, j.Complete, j.Arrival)
			}
			if j.Complete > res.Makespan {
				t.Errorf("shards=%d: job %d completes at %d past makespan %d", shards, j.ID, j.Complete, res.Makespan)
			}
			done++
		}
		if groups := res.GreedyGroups + res.ILPGroups; groups != res.Groups {
			t.Errorf("shards=%d: group split %d+%d != %d", shards, res.GreedyGroups, res.ILPGroups, res.Groups)
		}
		if res.ModeledGroups != res.Groups || res.CycleGroups != 0 {
			t.Errorf("shards=%d: modeled/cycle split %d/%d over %d groups", shards, res.ModeledGroups, res.CycleGroups, res.Groups)
		}
	}
}

// TestShardValidation covers the Config.Shards contract.
func TestShardValidation(t *testing.T) {
	p := testPipeline(t)
	base := Config{Devices: homo(p, 4), NC: 2, Policy: sched.ILP, Engine: Modeled}

	bad := base
	bad.Shards = -1
	if _, err := New(bad); err == nil {
		t.Error("negative shard count accepted")
	}
	bad = base
	bad.Shards = 5
	if _, err := New(bad); err == nil {
		t.Error("more shards than devices accepted")
	}
	bad = base
	bad.Engine = Cycle
	bad.Shards = 2
	if _, err := New(bad); err == nil {
		t.Error("sharded Cycle engine accepted")
	}
	ok := base
	ok.Shards = 4
	f, err := New(ok)
	if err != nil {
		t.Fatalf("valid shard config rejected: %v", err)
	}
	if got := f.Config().ShardEpoch; got != DefaultShardEpoch {
		t.Errorf("ShardEpoch defaulted to %d, want %d", got, DefaultShardEpoch)
	}
}

// TestCountersAddSumsEveryField gives every Counters field a distinct
// value and checks that add sums each one, so a counter added later
// cannot be left out of the shard merge.
func TestCountersAddSumsEveryField(t *testing.T) {
	var a, b Counters
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		switch va.Field(i).Kind() {
		case reflect.Int:
			va.Field(i).SetInt(int64(i + 1))
			vb.Field(i).SetInt(int64(100 * (i + 1)))
		case reflect.Uint64:
			va.Field(i).SetUint(uint64(i + 1))
			vb.Field(i).SetUint(uint64(100 * (i + 1)))
		default:
			t.Fatalf("Counters.%s has kind %v; add only sums integers", va.Type().Field(i).Name, va.Field(i).Kind())
		}
	}
	a.add(b)
	for i := 0; i < va.NumField(); i++ {
		f := va.Field(i)
		got := f.Interface()
		var want any = 101 * (i + 1)
		if f.Kind() == reflect.Uint64 {
			want = uint64(101 * (i + 1))
		}
		if got != want {
			t.Errorf("Counters.%s = %v after add, want %v", va.Type().Field(i).Name, got, want)
		}
	}
}
