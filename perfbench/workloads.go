package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/rng"
	"repro/internal/sweep"
	"repro/internal/testkit"
)

// workload is one named input shape. The single-run workloads describe a
// fleet run; sweep-control carries a grid instead. README.md records why
// each was chosen and which layers it exercises or bypasses.
type workload struct {
	name string
	// Roster counts, policy, engine and SLO mode of a single-run op.
	small, big          int
	policy, engine, slo string
	// arrivals is the traffic shape; set-up fills Seed (and Deadline).
	arrivals fleet.ArrivalConfig
	// apps restricts the traffic to these applications (nil draws from
	// the whole universe).
	apps []string
	// deadlineSolo, when set, stamps latency jobs with a deadline of this
	// many mean solo runs (averaged over both device types' calibrations).
	deadlineSolo float64
	grid         *sweep.Grid
}

var workloads = []workload{
	{
		name: "fcfs-flood", small: 8, big: 8, policy: "fcfs", engine: "modeled", slo: "off",
		arrivals: fleet.ArrivalConfig{Kind: fleet.Poisson, Jobs: 100_000, Rate: 10},
	},
	{
		name: "ilp-backlog", small: 1, big: 1, policy: "ilp-smra", engine: "modeled", slo: "preempt",
		arrivals:     fleet.ArrivalConfig{Kind: fleet.Bursty, Jobs: 60_000, Rate: 2, LatencyFrac: 0.1},
		deadlineSolo: 2,
	},
	{
		name: "cycle-smra", small: 4, policy: "ilp-smra", engine: "cycle", slo: "off",
		arrivals: fleet.ArrivalConfig{Kind: fleet.Poisson, Jobs: 120, Rate: 0.5},
		apps:     []string{"miniMC"},
	},
	{
		name: "sweep-control",
		grid: &sweep.Grid{
			Policies:   []string{"fcfs", "ilp-smra"},
			Engines:    []string{"modeled"},
			Rosters:    []string{"2xSmall-8SM,2xGTX480-60SM"},
			Arrivals:   []string{"bursty", "closed"},
			Admissions: []string{"off", "reject:60000"},
			Chaoses:    []string{"off", "mtbf:400000:100000"},
			Shards:     []int{1, 2},
			Jobs:       6000,
			Rate:       1,
			Clients:    24,
			Requests:   120,
			Think:      20_000,
			Timeout:    60_000,
			Retries:    1,
		},
	},
}

// defaultSeed is the seed whose op digests are recorded in digests.txt.
const defaultSeed = 1

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (%s)", name, strings.Join(names, ", "))
}

// simSeed derives the simulator's stream seed from the benchmark seed.
// The hash keeps every benchmark seed, 0 included, distinct from the
// zero that sweep.Grid reads as "use the default seed".
func simSeed(seed uint64) uint64 { return rng.Hash2(seed, 0x5eed) }

// setupOut is what set-up hands to the op loop and the layer probes.
type setupOut struct {
	small, big *core.Pipeline
	// arrivals is the generated traffic of a single-run workload.
	arrivals []fleet.Arrival
	specPath string
	spec     opSpec
}

// setup calibrates both device types from scratch (core.New + Init, no
// disk cache), saves both calibrations, generates the workload's traffic
// and writes the op spec into dir.
func setup(w workload, seed uint64, dir string, tr *tracer) (setupOut, error) {
	root := tr.begin("bench.setup", 0)
	defer tr.end(root)
	var pipes []*core.Pipeline
	for _, cfg := range []config.GPUConfig{testkit.Config(), config.GTX480()} {
		sp := tr.begin("core.init", root)
		p, err := core.New(cfg)
		if err == nil {
			err = p.Init(testkit.Universe())
		}
		tr.end(sp)
		if err != nil {
			return setupOut{}, fmt.Errorf("calibrate %s: %w", cfg.Name, err)
		}
		pipes = append(pipes, p)
	}
	out := setupOut{small: pipes[0], big: pipes[1]}
	out.spec = opSpec{SmallCal: filepath.Join(dir, "small.json"), BigCal: filepath.Join(dir, "big.json")}
	sp := tr.begin("core.save", root)
	err := out.small.SaveCalibration(out.spec.SmallCal)
	if err == nil {
		err = out.big.SaveCalibration(out.spec.BigCal)
	}
	tr.end(sp)
	if err != nil {
		return setupOut{}, err
	}
	sp = tr.begin("fleet.generate", root)
	defer tr.end(sp)
	return out, out.prepare(w, seed, dir)
}

// prepare generates w's inputs from seed over the saved calibrations and
// writes its op spec into dir.
func (out *setupOut) prepare(w workload, seed uint64, dir string) error {
	spec := opSpec{SmallCal: out.spec.SmallCal, BigCal: out.spec.BigCal, Workers: runtime.NumCPU()}
	if w.grid != nil {
		g := *w.grid
		g.Seed = simSeed(seed)
		spec.Grid = &g
	} else {
		acfg := w.arrivals
		acfg.Seed = simSeed(seed)
		if w.deadlineSolo > 0 {
			acfg.Deadline = uint64(w.deadlineSolo * meanSoloCycles(out.small, out.big))
		}
		var err error
		apps := w.apps
		if apps == nil {
			apps = universeNames()
		}
		out.arrivals, err = acfg.Generate(apps)
		if err != nil {
			return err
		}
		spec.Small, spec.Big = w.small, w.big
		spec.Policy, spec.Engine, spec.SLO = w.policy, w.engine, w.slo
		spec.Shards = 1
		spec.Traffic = filepath.Join(dir, "traffic.txt")
		if err := os.WriteFile(spec.Traffic, []byte(formatTrace(out.arrivals)), 0o644); err != nil {
			return err
		}
	}
	out.spec = spec
	out.specPath = filepath.Join(dir, "op.json")
	return writeSpec(out.specPath, spec)
}

func writeSpec(path string, spec opSpec) error {
	data, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// meanSoloCycles is the mean solo run length over every calibrated
// (device type, application) pair.
func meanSoloCycles(pipes ...*core.Pipeline) float64 {
	total, n := 0.0, 0
	for _, p := range pipes {
		for _, r := range p.Profiles() {
			total += float64(r.Cycles)
			n++
		}
	}
	return total / float64(n)
}

// formatTrace renders arrivals in the spelling fleet.ParseTrace reads:
// NAME@CYCLE for batch jobs, NAME@CYCLE!DEADLINE for latency jobs.
func formatTrace(arrivals []fleet.Arrival) string {
	var b strings.Builder
	for i, a := range arrivals {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(a.Name)
		b.WriteByte('@')
		b.WriteString(strconv.FormatUint(a.Cycle, 10))
		if a.SLO == fleet.Latency {
			b.WriteByte('!')
			b.WriteString(strconv.FormatUint(a.Deadline, 10))
		}
	}
	return b.String()
}
