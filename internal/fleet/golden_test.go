package fleet

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sched"
)

// update regenerates the Cycle-engine golden files. The goldens were
// captured from the pre-indexed-event-core engine (PR 4 state) and lock
// the Cycle engine's observable behavior — dispatch decisions, event
// ordering, eviction traces, all cycle accounting — across rewrites of
// the event loop's data structures: run
//
//	go test ./internal/fleet -run CycleEngineGoldens -update
//
// only when the Cycle engine's behavior is *meant* to change.
var update = flag.Bool("update", false, "rewrite the Cycle-engine golden files")

// goldenCases mirrors the three experiments scenarios (FleetOnline,
// FleetHetero, FleetSLO) scaled down to the testkit universe: the same
// roster shapes, policies and SLO modes, small enough that all three
// run in seconds.
func goldenCases(t *testing.T) []struct {
	name string
	cfg  func() Config
	arr  []Arrival
} {
	small := testPipeline(t)
	tiny := pipelineFor(t, tinyConfig())
	poisson := func(jobs int, rate float64, seed uint64) []Arrival {
		arr, err := ArrivalConfig{Kind: Poisson, Jobs: jobs, Rate: rate, Seed: seed}.Generate(testNames())
		if err != nil {
			t.Fatal(err)
		}
		return arr
	}
	slo, err := ArrivalConfig{
		Kind: Poisson, Jobs: 30, Rate: 1.5,
		LatencyFrac: 0.25, Deadline: 60_000, Seed: 0x510,
	}.Generate(testNames())
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		cfg  func() Config
		arr  []Arrival
	}{
		{
			// FleetOnline shape: homogeneous roster, saturating Poisson
			// traffic, the windowed-ILP dispatcher.
			name: "online",
			cfg: func() Config {
				return Config{Devices: homo(small, 4), NC: 2, Policy: sched.ILPSMRA}
			},
			arr: poisson(24, 1.0, 0xF1EE7),
		},
		{
			// FleetHetero shape: mixed generations, placement-aware
			// dispatch with per-type matrices.
			name: "hetero",
			cfg: func() Config {
				return Config{
					Devices: []DeviceSpec{{Pipe: small, Count: 1}, {Pipe: tiny, Count: 2}},
					NC:      2,
					Policy:  sched.ILPSMRA,
				}
			},
			arr: poisson(20, 0.8, 0xE7E0),
		},
		{
			// FleetSLO shape: latency-class arrivals under preemptive
			// SLO dispatch (the eviction trace is part of the golden).
			name: "slo",
			cfg: func() Config {
				return Config{
					Devices: homo(small, 2), NC: 2, Policy: sched.ILPSMRA,
					SLO: SLOPreempt,
				}
			},
			arr: slo,
		},
	}
}

// goldenSampleEvery is the sampling interval the golden runs enable.
// The runs predate the collector, so passing them with sampling ON is
// itself an assertion: the collector observes without perturbing a
// single dispatch decision or completion cycle.
const goldenSampleEvery = 20_000

// compareGolden asserts got matches the named golden file byte for
// byte, or rewrites it under -update.
func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to capture): %v", err)
	}
	if got != string(want) {
		t.Errorf("diverged from %s:\n--- want ---\n%s--- got ---\n%s", name, want, got)
	}
}

// TestCycleEngineGoldens asserts the Cycle engine reproduces the
// pre-rewrite dispatcher byte for byte on the three scenario shapes:
// the summary (throughput, utilization, all latency percentiles) and
// the eviction trace together pin every observable decision the event
// loop makes. The runs sample a time series on the side, locked by its
// own golden — and since the summary goldens predate the collector,
// their passing doubles as proof the sampler is purely passive.
func TestCycleEngineGoldens(t *testing.T) {
	for _, tc := range goldenCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			cfg.SampleEvery = goldenSampleEvery
			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := f.Run(tc.arr)
			if err != nil {
				t.Fatal(err)
			}
			compareGolden(t, "cycle_"+tc.name+".golden", res.Summary()+res.EvictionTrace())
			if res.Series == nil {
				t.Fatal("SampleEvery set but Result.Series is nil")
			}
			var csv strings.Builder
			if err := res.Series.WriteCSV(&csv); err != nil {
				t.Fatal(err)
			}
			compareGolden(t, "timeseries_"+tc.name+".golden", csv.String())
		})
	}
}
