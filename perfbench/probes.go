package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/interference"
	"repro/internal/kernel"
	"repro/internal/match"
	"repro/internal/profile"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/testkit"
)

// probeReps is how many ops each side of a speed-up probe runs; the
// speed-up is the ratio of the two sides' median wall times.
const probeReps = 4

// matchWindowsPerType caps the windows the match probe solves per device
// type; longer traffic is sampled at an even stride.
const matchWindowsPerType = 2000

// layerMetrics computes every per-layer metric of a traced run. Metrics
// of a layer the workload does not reach read 0.
func (b *benchRun) layerMetrics(st setupOut, ops []opSample) (map[string]metric, []string, error) {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Set-up layers: re-enact the three calls Init makes, on a fresh
	// profiler per device type.
	ip, err := b.initProbe(st)
	if err != nil {
		return nil, nil, err
	}
	set("core.init_s", ip.initS, "s")
	set("profile.runall_s", ip.runallS, "s")
	set("classify.ms", ip.classifyMs, "ms")
	set("interference.compute_s", ip.computeS, "s")
	set("interference.coruns", float64(ip.coruns), "count")
	set("gpu.solo_mcycles_per_s", ip.soloCycles/ip.runallS/1e6, "Mcyc/s")

	// Per-op layers, from the traced ops; the counts are the same in
	// every op, so any op's do.
	var untracedMs, tracedMs, load, newMs, runNsJob, summ, allocB, allocs, gc []float64
	var counts opResult
	for _, s := range ops {
		if !s.traced {
			untracedMs = append(untracedMs, s.wallMs())
			continue
		}
		r := s.res
		counts = r
		jobs := float64(r.Submitted)
		tracedMs = append(tracedMs, s.wallMs())
		load = append(load, spanNs(r.Spans, "core.load")/1e6)
		newMs = append(newMs, spanNs(r.Spans, "fleet.new")/1e6)
		runNsJob = append(runNsJob, (spanNs(r.Spans, "fleet.run")+spanNs(r.Spans, "sweep.run"))/jobs)
		summ = append(summ, spanNs(r.Spans, "fleet.summary")/1e6)
		allocB = append(allocB, float64(r.AllocBytes)/jobs)
		allocs = append(allocs, float64(r.Allocs)/jobs)
		gc = append(gc, r.GCCPUFrac)
	}
	if len(tracedMs) == 0 {
		return nil, nil, fmt.Errorf("no traced op completed")
	}
	set("core.load_ms", median(load), "ms")
	set("fleet.new_ms", median(newMs), "ms")
	set("fleet.run_ns_per_job", median(runNsJob), "ns")
	set("fleet.summary_ms", median(summ), "ms")
	set("fleet.alloc_b_per_job", median(allocB), "B")
	set("fleet.allocs_per_job", median(allocs), "count")
	set("runtime.gc_cpu_frac", median(gc), "ratio")
	set("fleet.groups", float64(counts.Groups), "count")
	set("fleet.makespan_mcyc", counts.MakespanCycles/1e6, "Mcyc")
	set("fleet.cycle_groups", float64(counts.CycleGroups), "count")
	set("fleet.evictions", float64(counts.Evictions), "count")
	set("fleet.ilp_group_frac", ratio(counts.ILPGroups, counts.Groups), "ratio")
	set("sched.smra_moves", float64(counts.SMMoves), "count")
	set("sched.rungroup_calls", float64(counts.CycleGroups), "count")
	set("sweep.completed_per_submitted", ratio(counts.Completed, counts.Submitted), "ratio")
	set("sweep.rejected", float64(counts.Rejected), "count")
	set("sweep.abandoned", float64(counts.Abandoned), "count")
	set("sweep.retried", float64(counts.Retried), "count")
	set("sweep.chaos_evictions", float64(counts.ChaosEvictions), "count")
	set("trace.overhead_frac", median(tracedMs)/median(untracedMs)-1, "ratio")

	// sched: replay, cold, each distinct group the op simulated.
	rg, err := b.rungroupProbe(st, counts.Compositions)
	if err != nil {
		return nil, nil, err
	}
	rt := tail(rg)
	set("sched.rungroup_ms_p50", median(rg), "ms")
	set("sched.rungroup_ms_tail", rt.Value, "ms")

	// gpu: cold co-runs of every two-app composition on the Small device.
	mcps, err := b.gpuProbe(st.small)
	if err != nil {
		return nil, nil, err
	}
	set("gpu.group_mcycles_per_s", mcps, "Mcyc/s")

	// match: the ILP over windows of the op's own arrivals.
	solveUs, distinct, err := b.matchProbe(st)
	if err != nil {
		return nil, nil, err
	}
	mt := tail(solveUs)
	set("match.solve_us_p50", median(solveUs), "us")
	set("match.solve_us_tail", mt.Value, "us")
	set("match.solves", float64(len(solveUs)), "count")
	set("match.window_distinct_frac", ratio(distinct, len(solveUs)), "ratio")

	// fleet sharding: the fcfs-flood op at Shards 2 against Shards 1.
	speedup, err := b.shardProbe(st)
	if err != nil {
		return nil, nil, err
	}
	set("fleet.shard2_speedup", speedup, "x")

	// sweep: cells per second and the worker pool's speed-up.
	cellsPerS, pool := 0.0, 0.0
	if b.w.grid != nil {
		cellsPerS = float64(counts.Cells) / (median(untracedMs) / 1e3)
		if pool, err = b.poolProbe(st); err != nil {
			return nil, nil, err
		}
	}
	set("sweep.cells_per_s", cellsPerS, "1/s")
	set("sweep.pool_speedup", pool, "x")

	lines := []string{"per-layer metrics:"}
	for _, name := range sortedKeys(m) {
		lines = append(lines, fmt.Sprintf("  %-30s %16.6g %s", name, m[name].Value, m[name].Unit))
	}
	lines = append(lines,
		fmt.Sprintf("  (sched.rungroup_ms_tail: p%.1f of %d replays; match.solve_us_tail: p%.1f of %d solves)",
			rt.Percentile, rt.N, mt.Percentile, mt.N))
	lines = append(lines, b.predictions(m)...)
	return m, lines, nil
}

// predictions checks the bypass predictions README.md states for this
// workload and reports each as ok or VIOLATED.
func (b *benchRun) predictions(m map[string]metric) []string {
	type pred struct {
		what string
		ok   bool
	}
	v := func(n string) float64 { return m[n].Value }
	var ps []pred
	switch b.w.name {
	case "fcfs-flood":
		ps = []pred{
			{"sched.rungroup_calls == 0 (modeled op)", v("sched.rungroup_calls") == 0},
			{"fleet.ilp_group_frac == 0", v("fleet.ilp_group_frac") == 0},
		}
	case "ilp-backlog":
		ps = []pred{
			{"sched.rungroup_calls == 0 (modeled op)", v("sched.rungroup_calls") == 0},
			{"fleet.ilp_group_frac >= 0.9", v("fleet.ilp_group_frac") >= 0.9},
			{"fleet.evictions > 0", v("fleet.evictions") > 0},
		}
	case "cycle-smra":
		ps = []pred{{"sched.smra_moves > 0", v("sched.smra_moves") > 0}}
	case "sweep-control":
		ps = []pred{
			{"sched.rungroup_calls == 0 (modeled cells)", v("sched.rungroup_calls") == 0},
			{"sweep.rejected > 0", v("sweep.rejected") > 0},
			{"sweep.abandoned > 0", v("sweep.abandoned") > 0},
			{"sweep.chaos_evictions > 0", v("sweep.chaos_evictions") > 0},
		}
	}
	lines := []string{"bypass predictions:"}
	for _, p := range ps {
		verdict := "ok"
		if !p.ok {
			verdict = "VIOLATED"
		}
		lines = append(lines, fmt.Sprintf("  %-44s %s", p.what, verdict))
	}
	return lines
}

type initResult struct {
	initS, runallS, classifyMs, computeS float64
	coruns                               int
	soloCycles                           float64
}

// initProbe times the calls core.Pipeline.Init makes — solo profiles,
// classification, the interference campaign, the scheduler — on a fresh
// profiler for each device type, summed over both types.
func (b *benchRun) initProbe(st setupOut) (initResult, error) {
	var r initResult
	apps := testkit.Universe()
	for _, pipe := range []*core.Pipeline{st.small, st.big} {
		cfg := pipe.Config()
		root := b.tr.begin("core.init", 0)
		prof := profile.New(cfg)
		runall := b.tr.begin("profile.runall", root)
		profiles, err := prof.RunAll(apps, 0)
		b.tr.end(runall)
		if err != nil {
			b.tr.end(root)
			return r, err
		}
		cls := b.tr.begin("classify.calibrate", root)
		th := classify.CalibrateThresholds(cfg, profiles)
		classes := map[string]classify.Class{}
		for _, c := range classify.Table(th, profiles) {
			classes[c.Name] = c.Class
		}
		b.tr.end(cls)
		compute := b.tr.begin("interference.compute", root)
		mat, err := interference.Compute(cfg, prof, classes, apps)
		b.tr.end(compute)
		if err != nil {
			b.tr.end(root)
			return r, err
		}
		sp := b.tr.begin("sched.new", root)
		sched.New(cfg, prof, mat)
		b.tr.end(sp)
		b.tr.end(root)
		r.initS += b.tr.elapsed(root).Seconds()
		r.runallS += b.tr.elapsed(runall).Seconds()
		r.classifyMs += float64(b.tr.elapsed(cls)) / 1e6
		r.computeS += b.tr.elapsed(compute).Seconds()
		r.coruns += len(mat.Pairs)
		for _, p := range profiles {
			r.soloCycles += float64(p.Cycles)
		}
	}
	return r, nil
}

// rungroupProbe runs each composition through sched.RunGroup on a fresh
// scheduler (so its memo is cold) and returns the wall time of each call
// in milliseconds.
func (b *benchRun) rungroupProbe(st setupOut, comps []composition) ([]float64, error) {
	policy, err := sched.ParsePolicy(st.spec.Policy)
	if err != nil && len(comps) > 0 {
		return nil, err
	}
	var out []float64
	for _, c := range comps {
		pipe := st.small
		if c.Device == st.big.Config().Name {
			pipe = st.big
		}
		g, err := group(pipe, c.Apps)
		if err != nil {
			return nil, err
		}
		s := sched.New(pipe.Config(), pipe.Profiler(), pipe.Matrix())
		sp := b.tr.begin("sched.rungroup", 0)
		_, err = s.RunGroup(g, policy)
		b.tr.end(sp)
		if err != nil {
			return nil, err
		}
		out = append(out, float64(b.tr.elapsed(sp))/1e6)
	}
	return out, nil
}

// gpuProbe co-runs every two-application composition of the universe on
// a fresh scheduler under the even split (no run-time reallocation), so
// the time is the device simulation's, and returns simulated megacycles
// per host second.
func (b *benchRun) gpuProbe(pipe *core.Pipeline) (float64, error) {
	apps := testkit.Universe()
	cycles, secs := 0.0, 0.0
	for i := range apps {
		for j := i; j < len(apps); j++ {
			g, err := group(pipe, []string{apps[i].Name, apps[j].Name})
			if err != nil {
				return 0, err
			}
			s := sched.New(pipe.Config(), pipe.Profiler(), pipe.Matrix())
			sp := b.tr.begin("gpu.corun", 0)
			rep, err := s.RunGroup(g, sched.FCFS)
			b.tr.end(sp)
			if err != nil {
				return 0, err
			}
			secs += b.tr.elapsed(sp).Seconds()
			cycles += float64(rep.Cycles)
		}
	}
	return cycles / secs / 1e6, nil
}

// group builds a co-run group of the named applications.
func group(pipe *core.Pipeline, names []string) (sched.Group, error) {
	byName := map[string]kernel.Params{}
	for _, a := range pipe.Apps() {
		byName[a.Name] = a
	}
	var g sched.Group
	for i, n := range names {
		p, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown application %q", n)
		}
		g = append(g, sched.QueuedApp{Params: p, Class: pipe.Classes()[n], Arrival: i})
	}
	return g, nil
}

// matchProbe solves the matching ILP over class-count windows of width
// fleet.MaxWindow slid over the op's arrivals, once per device type the
// roster holds, with that type's classes and interference matrix. It
// returns each solve's wall time in microseconds and how many windows
// had a class-count vector not seen before.
func (b *benchRun) matchProbe(st setupOut) ([]float64, int, error) {
	arrivals := st.arrivals
	pipes := []*core.Pipeline{}
	if b.w.grid != nil {
		// A sweep generates its open-loop stream itself; regenerate the
		// one its bursty cells replay.
		g := st.spec.Grid
		acfg := fleet.ArrivalConfig{Kind: fleet.Bursty, Jobs: g.Jobs, Rate: g.Rate,
			LatencyFrac: g.LatencyFrac, Deadline: g.Deadline, Seed: rng.Hash2(g.Seed, uint64(fleet.Bursty)+1)}
		var err error
		if arrivals, err = acfg.Generate(universeNames()); err != nil {
			return nil, 0, err
		}
		pipes = append(pipes, st.small, st.big)
	} else {
		if b.w.small > 0 {
			pipes = append(pipes, st.small)
		}
		if b.w.big > 0 {
			pipes = append(pipes, st.big)
		}
	}
	var us []float64
	distinct := 0
	for _, pipe := range pipes {
		classes := make([]classify.Class, len(arrivals))
		for i, a := range arrivals {
			classes[i] = pipe.Classes()[a.Name]
		}
		seen := map[[classify.NumClasses]int]bool{}
		for _, counts := range matchWindows(classes) {
			if !seen[counts] {
				seen[counts] = true
				distinct++
			}
			sp := b.tr.begin("match.solve", 0)
			_, err := match.Solve(pipe.Matrix(), counts, 2)
			b.tr.end(sp)
			if err != nil {
				return nil, 0, err
			}
			us = append(us, float64(b.tr.elapsed(sp))/1e3)
		}
	}
	return us, distinct, nil
}

// matchWindows is the match probe's window set over one class stream:
// width fleet.MaxWindow, at the smallest stride that yields at most
// matchWindowsPerType windows.
func matchWindows(classes []classify.Class) [][classify.NumClasses]int {
	stride := (len(classes) - fleet.MaxWindow + matchWindowsPerType) / matchWindowsPerType
	return classWindows(classes, fleet.MaxWindow, stride)
}

// classWindows returns the per-class counts of every width-long window
// of classes, starting at 0 and advancing by stride (at least 1). A
// stream shorter than width yields one window over all of it.
func classWindows(classes []classify.Class, width, stride int) [][classify.NumClasses]int {
	if stride < 1 {
		stride = 1
	}
	if width > len(classes) {
		width = len(classes)
	}
	var out [][classify.NumClasses]int
	for start := 0; start+width <= len(classes); start += stride {
		var c [classify.NumClasses]int
		for _, cls := range classes[start : start+width] {
			c[cls]++
		}
		out = append(out, c)
		if width == 0 {
			break
		}
	}
	return out
}

// shardProbe runs the fcfs-flood op at this seed with one event loop and
// with two, alternating, and returns the one-loop median wall time over
// the two-loop one. Both sides are digest-checked.
func (b *benchRun) shardProbe(st setupOut) (float64, error) {
	flood, err := lookupWorkload("fcfs-flood")
	if err != nil {
		return 0, err
	}
	dir := filepath.Join(b.work, "shards")
	one := setupOut{small: st.small, big: st.big, spec: st.spec}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	if err := one.prepare(flood, b.seed, dir); err != nil {
		return 0, err
	}
	two := one.spec
	two.Shards = 2
	twoPath := filepath.Join(dir, "op-shards2.json")
	if err := writeSpec(twoPath, two); err != nil {
		return 0, err
	}
	return b.speedup(one.specPath, b.newGate("fcfs-flood"), twoPath, b.newGate("fcfs-flood@shards2"))
}

// poolProbe runs the sweep op with one worker and with NumCPU workers,
// alternating, and returns the one-worker median wall time over the
// NumCPU one.
func (b *benchRun) poolProbe(st setupOut) (float64, error) {
	single := st.spec
	single.Workers = 1
	path := filepath.Join(b.work, "op-workers1.json")
	if err := writeSpec(path, single); err != nil {
		return 0, err
	}
	// Both sides share one gate: the pool size must not change the output.
	g := b.newGate(b.w.name)
	return b.speedup(path, g, st.specPath, g)
}

// speedup alternates untraced ops of two specs and returns the median
// wall time of the first over that of the second.
func (b *benchRun) speedup(basePath string, baseGate *gate, fastPath string, fastGate *gate) (float64, error) {
	var base, fast []float64
	for i := 0; i < probeReps; i++ {
		if s, ok := b.op(basePath, baseGate, false); ok {
			base = append(base, s.wallMs())
		}
		if s, ok := b.op(fastPath, fastGate, false); ok {
			fast = append(fast, s.wallMs())
		}
	}
	if err := b.ctx.Err(); err != nil {
		return 0, err
	}
	if len(base) == 0 || len(fast) == 0 {
		return 0, fmt.Errorf("speed-up probe: every op on one side failed")
	}
	return median(base) / median(fast), nil
}

// spanNs sums the durations of the spans with the given name.
func spanNs(spans []span, name string) float64 {
	t := 0.0
	for _, s := range spans {
		if s.Name == name {
			t += float64(s.End - s.Start)
		}
	}
	return t
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
