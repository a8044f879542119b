package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/sched"
	"repro/internal/sweep"
	"repro/internal/testkit"
)

// opSpec is everything one op needs, written by set-up and read by the
// op's child process. The simulator sees only these generated inputs,
// never the workload seed.
type opSpec struct {
	// SmallCal and BigCal are the saved calibrations of the two device
	// types (testkit's Small-8SM and the GTX480).
	SmallCal string `json:"small_cal"`
	BigCal   string `json:"big_cal"`
	// Small and Big are the roster's device counts of each type
	// (single-run workloads).
	Small  int    `json:"small"`
	Big    int    `json:"big"`
	Policy string `json:"policy"`
	Engine string `json:"engine"`
	SLO    string `json:"slo"`
	Shards int    `json:"shards"`
	// Traffic is the arrival stream in the repository's trace spelling
	// (NAME@CYCLE[!DEADLINE],...), read back with fleet.ParseTrace.
	Traffic string `json:"traffic"`
	// Grid is the sweep an op runs whole (sweep-control); Workers bounds
	// its pool.
	Grid    *sweep.Grid `json:"grid,omitempty"`
	Workers int         `json:"workers"`
}

// composition is one co-run group an op completed cycle-accurately:
// the device type and the member applications.
type composition struct {
	Device string   `json:"device"`
	Apps   []string `json:"apps"`
}

// opResult is what an op's child reports on its last stdout line.
type opResult struct {
	// Digest hashes the op's whole output: Summary()+EvictionTrace(), or
	// the sweep artifact's CSV.
	Digest string `json:"digest"`
	// Conserved is Submitted == completed + Rejected + Abandoned, per run
	// (per cell for sweeps).
	Conserved      bool    `json:"conserved"`
	Completed      int     `json:"completed"`
	Submitted      int     `json:"submitted"`
	Rejected       int     `json:"rejected"`
	Abandoned      int     `json:"abandoned"`
	Retried        int     `json:"retried"`
	ChaosEvictions int     `json:"chaos_evictions"`
	Groups         int     `json:"groups"`
	ILPGroups      int     `json:"ilp_groups"`
	CycleGroups    int     `json:"cycle_groups"`
	Evictions      int     `json:"evictions"`
	SMMoves        int     `json:"sm_moves"`
	MakespanCycles float64 `json:"makespan_cycles"`
	Cells          int     `json:"cells"`

	// Traced ops only: allocation over the run, the GC's share of CPU
	// during it, the distinct groups the Cycle engine simulated, and the
	// op's spans, which time each layer call.
	AllocBytes   uint64        `json:"alloc_bytes,omitempty"`
	Allocs       uint64        `json:"allocs,omitempty"`
	GCCPUFrac    float64       `json:"gc_cpu_frac,omitempty"`
	Compositions []composition `json:"compositions,omitempty"`
	Spans        []span        `json:"spans,omitempty"`
}

// opMain is the child-process entry point: op SPECFILE OPID TRACED.
func opMain(args []string) int {
	if len(args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: perfbench op SPECFILE OPID 0|1")
		return 2
	}
	var spec opSpec
	data, err := os.ReadFile(args[0])
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench op:", err)
		return 1
	}
	var id int
	if _, err := fmt.Sscan(args[1], &id); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench op: bad op id:", err)
		return 2
	}
	// IDs after 1 leave ID 1 to the parent process's span around the whole child.
	tr := &tracer{on: args[2] == "1", op: id, base: 1}
	res, err := runOp(spec, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench op:", err)
		return 1
	}
	res.Spans = tr.spans
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench op:", err)
		return 1
	}
	fmt.Printf("%s\n", out)
	return 0
}

// loadPipelines restores both device types' calibrations, as cmd/fleet
// does from its calibration cache.
func loadPipelines(spec opSpec) (small, big *core.Pipeline, err error) {
	small, err = core.New(testkit.Config())
	if err == nil {
		big, err = core.New(config.GTX480())
	}
	if err == nil {
		err = small.LoadCalibration(spec.SmallCal, testkit.Universe())
	}
	if err == nil {
		err = big.LoadCalibration(spec.BigCal, testkit.Universe())
	}
	return small, big, err
}

// runOp runs one op: load the calibrations, then one fleet run (or one
// whole sweep), then digest the output.
func runOp(spec opSpec, tr *tracer) (opResult, error) {
	root := tr.begin("bench.op", 1)
	defer tr.end(root)
	sp := tr.begin("core.load", root)
	small, big, err := loadPipelines(spec)
	tr.end(sp)
	if err != nil {
		return opResult{}, err
	}
	if spec.Grid != nil {
		return runSweepOp(spec, small, big, tr, root)
	}
	return runFleetOp(spec, small, big, tr, root)
}

func runFleetOp(spec opSpec, small, big *core.Pipeline, tr *tracer, root int) (opResult, error) {
	sp := tr.begin("bench.input", root)
	data, err := os.ReadFile(spec.Traffic)
	if err != nil {
		tr.end(sp)
		return opResult{}, err
	}
	arrivals, err := fleet.ParseTrace(string(data))
	tr.end(sp)
	if err != nil {
		return opResult{}, err
	}
	cfg, err := fleetConfig(spec, small, big)
	if err != nil {
		return opResult{}, err
	}

	var res opResult
	sp = tr.begin("fleet.new", root)
	f, err := fleet.New(cfg)
	tr.end(sp)
	if err != nil {
		return opResult{}, err
	}
	var m *meter
	if tr.on {
		m = startMeter()
	}
	sp = tr.begin("fleet.run", root)
	r, err := f.Run(arrivals)
	tr.end(sp)
	if err != nil {
		return opResult{}, err
	}
	if m != nil {
		m.stop(&res)
	}
	sp = tr.begin("fleet.summary", root)
	out := r.Summary() + r.EvictionTrace()
	tr.end(sp)
	sp = tr.begin("bench.digest", root)
	res.Digest = digestOf(out)
	tr.end(sp)

	submitted := len(arrivals)
	if r.Closed || r.Admission || r.Autoscale || r.Chaos {
		submitted = r.Submitted
	}
	res.Completed = r.CompletedJobs()
	res.Submitted = submitted
	res.Rejected, res.Abandoned, res.Retried = r.Rejected, r.Abandoned, r.Retried
	res.ChaosEvictions = r.ChaosEvictions
	res.Conserved = submitted == res.Completed+r.Rejected+r.Abandoned
	res.Groups, res.ILPGroups, res.CycleGroups = r.Groups, r.ILPGroups, r.CycleGroups
	res.Evictions, res.SMMoves = len(r.Evictions), r.SMMoves
	res.MakespanCycles = float64(r.Makespan)
	if tr.on && r.CycleGroups > 0 {
		res.Compositions = cycleCompositions(r)
	}
	return res, nil
}

// fleetConfig builds the fleet configuration an op spec describes.
func fleetConfig(spec opSpec, small, big *core.Pipeline) (fleet.Config, error) {
	policy, err := sched.ParsePolicy(spec.Policy)
	if err != nil {
		return fleet.Config{}, err
	}
	engine, err := fleet.ParseEngine(spec.Engine)
	if err != nil {
		return fleet.Config{}, err
	}
	slo, err := fleet.ParseSLOMode(spec.SLO)
	if err != nil {
		return fleet.Config{}, err
	}
	var devices []fleet.DeviceSpec
	if spec.Small > 0 {
		devices = append(devices, fleet.DeviceSpec{Pipe: small, Count: spec.Small})
	}
	if spec.Big > 0 {
		devices = append(devices, fleet.DeviceSpec{Pipe: big, Count: spec.Big})
	}
	return fleet.Config{Devices: devices, NC: 2, Policy: policy, Engine: engine, SLO: slo, Shards: spec.Shards}, nil
}

// cycleCompositions lists the distinct member sets of the groups the
// run completed, keyed by device type. Members of one group share a
// device and a dispatch cycle.
func cycleCompositions(r fleet.Result) []composition {
	type slot struct {
		dev      int
		dispatch uint64
	}
	groups := map[slot][]string{}
	var order []slot
	for _, j := range r.Jobs {
		if j.Outcome != fleet.Done {
			continue
		}
		s := slot{j.Device, j.Dispatch}
		if _, ok := groups[s]; !ok {
			order = append(order, s)
		}
		groups[s] = append(groups[s], j.Name)
	}
	seen := map[string]bool{}
	var out []composition
	for _, s := range order {
		apps := groups[s]
		sort.Strings(apps)
		c := composition{Device: r.DeviceConfig[s.dev], Apps: apps}
		k := c.Device + ":" + strings.Join(apps, ",")
		if !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

func runSweepOp(spec opSpec, small, big *core.Pipeline, tr *tracer, root int) (opResult, error) {
	runner := sweep.Runner{
		Workers: spec.Workers,
		Names:   universeNames(),
		Roster: func(label string) ([]fleet.DeviceSpec, error) {
			entries, err := fleet.ParseRoster(label)
			if err != nil {
				return nil, err
			}
			specs := make([]fleet.DeviceSpec, len(entries))
			for i, e := range entries {
				cfg, err := config.ByName(e.Name)
				if err != nil {
					return nil, err
				}
				pipe := small
				if cfg.Name == big.Config().Name {
					pipe = big
				}
				specs[i] = fleet.DeviceSpec{Pipe: pipe, Count: e.Count}
			}
			return specs, nil
		},
	}
	var res opResult
	var m *meter
	if tr.on {
		m = startMeter()
	}
	sp := tr.begin("sweep.run", root)
	art, err := runner.Run(*spec.Grid)
	tr.end(sp)
	if err != nil {
		return opResult{}, err
	}
	if m != nil {
		m.stop(&res)
	}
	sp = tr.begin("sweep.csv", root)
	var buf bytes.Buffer
	err = art.WriteCSV(&buf)
	tr.end(sp)
	if err != nil {
		return opResult{}, err
	}
	sp = tr.begin("bench.digest", root)
	res.Digest = digestOf(buf.String())
	tr.end(sp)

	col := map[string]int{}
	for i, m := range art.Metrics {
		col[m] = i
	}
	res.Conserved = true
	for _, c := range art.Cells {
		v := func(name string) int { return int(c.Values[col[name]]) }
		completed, rejected, abandoned := v("completed"), v("rejected"), v("abandoned")
		submitted := v("submitted")
		if submitted == 0 {
			// Cells without a control surface keep no submission ledger:
			// every generated arrival was submitted.
			submitted = spec.Grid.Jobs
		}
		if submitted != completed+rejected+abandoned {
			res.Conserved = false
		}
		res.Completed += completed
		res.Submitted += submitted
		res.Rejected += rejected
		res.Abandoned += abandoned
		res.Retried += v("retried")
		res.ChaosEvictions += v("chaos_evictions")
		res.Groups += v("groups")
		res.ILPGroups += v("groups_ilp")
		res.CycleGroups += v("groups_cycle")
		res.Evictions += v("evictions")
		res.MakespanCycles += 1000 * c.Values[col["makespan_kcyc"]]
	}
	res.Cells = len(art.Cells)
	return res, nil
}

// meter samples the heap and GC counters before a traced run; stop fills
// in what the run allocated and the GC's share of the CPU it used.
type meter struct {
	mem      runtime.MemStats
	gc, busy float64
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.mem)
	m.gc, m.busy = gcCPU()
	return m
}

func (m *meter) stop(res *opResult) {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	gc, busy := gcCPU()
	res.AllocBytes = mem.TotalAlloc - m.mem.TotalAlloc
	res.Allocs = mem.Mallocs - m.mem.Mallocs
	if busy > m.busy {
		res.GCCPUFrac = (gc - m.gc) / (busy - m.busy)
	}
}

// gcCPU reads the process's cumulative GC CPU seconds and the CPU
// seconds it spent not idle.
func gcCPU() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// digestOf hashes an op's output.
func digestOf(out string) string {
	h := sha256.Sum256([]byte(out))
	return hex.EncodeToString(h[:])
}

// universeNames lists the testkit universe's application names.
func universeNames() []string {
	var names []string
	for _, a := range testkit.Universe() {
		names = append(names, a.Name)
	}
	return names
}
