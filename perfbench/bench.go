package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// outDir is where runs write their result files, span dumps and scratch
// inputs, relative to the directory the benchmark runs in.
const outDir = ".bench_out"

// setupReps is how many times an untraced run sets up; setup_s is the
// median, so one slow calibration does not move the metric.
const setupReps = 3

// opSample is one op as the parent process saw it: the child's report plus the
// process's wall time, the host's steal time over it, CPU time and peak
// RSS.
type opSample struct {
	res     opResult
	traced  bool
	start   time.Time
	end     time.Time
	stealMs float64
	cpuMs   float64
	rssMB   float64
}

// rawMs is the op's wall time, child start to exit.
func (s opSample) rawMs() float64 { return float64(s.end.Sub(s.start)) / 1e6 }

// wallMs is the op's wall time net of steal: time the hypervisor gave
// this machine's CPUs to other guests is not time the op spent.
func (s opSample) wallMs() float64 { return s.rawMs() - s.stealMs }

// runChild runs one op in a fresh process and waits for it to exit, so
// nothing cached in memory survives from one op to the next.
func runChild(ctx context.Context, exe, specPath string, id int, traced bool) (opSample, error) {
	flag := "0"
	if traced {
		flag = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "op", specPath, strconv.Itoa(id), flag)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	steal0 := stealMs()
	s := opSample{traced: traced, start: time.Now()}
	err := cmd.Run()
	s.end = time.Now()
	s.stealMs = stealMs() - steal0
	if ps := cmd.ProcessState; ps != nil {
		s.cpuMs = float64(ps.UserTime()+ps.SystemTime()) / 1e6
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			s.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		return s, fmt.Errorf("op %d: %w", id, err)
	}
	out := bytes.TrimSpace(stdout.Bytes())
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		out = out[i+1:]
	}
	if err := json.Unmarshal(out, &s.res); err != nil {
		return s, fmt.Errorf("op %d: decode report: %w", id, err)
	}
	return s, nil
}

// childSpans places an op's spans under a parent-process span covering the
// child process from start to exit; that span's self time is the cost of
// process start-up and shutdown.
func childSpans(s opSample, id int) []span {
	return append([]span{{Name: "bench.process", Op: id, ID: 1, Start: s.start.UnixNano(), End: s.end.UnixNano()}}, s.res.Spans...)
}

// benchRun is one invocation: a workload at a seed, traced or not.
type benchRun struct {
	// ctx ends when the run is interrupted; the running child is killed.
	ctx     context.Context
	w       workload
	seed    uint64
	seconds int
	traced  bool
	exe     string
	work    string
	tr      *tracer
	led     ledger
	// nextOp numbers ops across the op loop and the probes, so every
	// op's spans carry a distinct op id.
	nextOp int
	// gates are the output gates of the op shapes run, for the report.
	gates []*gate
}

// newGate returns the output gate of one op shape at the run's seed.
func (b *benchRun) newGate(name string) *gate {
	g := newGate(name, b.seed)
	b.gates = append(b.gates, g)
	return g
}

// op runs one child op against a spec and books it against g. It
// reports false when the op produced no output to measure; an op whose
// output failed the gate is booked as failed but still measured.
func (b *benchRun) op(specPath string, g *gate, traced bool) (opSample, bool) {
	b.nextOp++
	s, err := runChild(b.ctx, b.exe, specPath, b.nextOp, traced)
	if ferr := b.led.record(g, s.res, err); ferr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s op %d failed: %v\n", b.w.name, b.nextOp, ferr)
	}
	if err != nil {
		return s, false
	}
	if traced {
		b.tr.spans = append(b.tr.spans, childSpans(s, b.nextOp)...)
	}
	return s, true
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", defaultSeed, "workload seed; the inputs are generated from it")
	seconds := fs.Int("seconds", 15, "how long the op loop measures, in seconds")
	trace := fs.Int("trace", 0, "0 reports the end-to-end metrics; 1 runs traced and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		fs.Usage()
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// An interrupt kills the running op and still removes the scratch
	// directory below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	b := &benchRun{ctx: ctx, w: w, seed: *seed, seconds: *seconds, traced: *trace == 1, exe: exe,
		work: filepath.Join(outDir, fmt.Sprintf("work-%d", os.Getpid()))}
	b.tr = &tracer{on: b.traced}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(b.work)
	if err := b.run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func (b *benchRun) run() error {
	host := currentHost()
	reps := setupReps
	if b.traced {
		reps = 1
	}
	var setupS []float64
	var st setupOut
	for i := 0; i < reps; i++ {
		t0, steal0 := time.Now(), stealMs()
		var err error
		st, err = setup(b.w, b.seed, b.work, b.tr)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds()-(stealMs()-steal0)/1e3)
	}

	g := b.newGate(b.w.name)
	var ops []opSample
	deadline := time.Now().Add(time.Duration(b.seconds) * time.Second)
	for b.led.attempted == 0 || time.Now().Before(deadline) {
		if err := b.ctx.Err(); err != nil {
			return err
		}
		// A traced run alternates untraced and traced ops, so the two
		// see the same conditions and their difference is the tracing
		// overhead.
		traced := b.traced && len(ops)%2 == 1
		s, ok := b.op(st.specPath, g, traced)
		if ok {
			ops = append(ops, s)
		}
	}
	if len(ops) == 0 {
		return fmt.Errorf("all %d ops failed to run", b.led.attempted)
	}

	res := resultFile{Host: host, Workload: b.w.name, Seed: b.seed, Traced: b.traced, Seconds: b.seconds}
	var report []string
	if b.traced {
		m, lines, err := b.layerMetrics(st, ops)
		if err != nil {
			return err
		}
		res.Metrics, report = m, lines
		res.LayerSelfMs = map[string]float64{}
		for l, ns := range layerSelf(b.tr.spans) {
			res.LayerSelfMs[l] = float64(ns) / 1e6
		}
		spansPath := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-spans.json", b.w.name, b.seed))
		if err := writeJSON(spansPath, struct {
			Host  hostRecord `json:"host"`
			Spans []span     `json:"spans"`
		}{host, b.tr.spans}); err != nil {
			return err
		}
		report = append(report, selfReport(res.LayerSelfMs, spansPath)...)
	} else {
		res.Metrics, report = b.endToEnd(setupS, ops)
	}
	res.Attempted, res.Failed = b.led.attempted, b.led.failed
	resultPath := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", b.w.name, b.seed, boolInt(b.traced)))
	if err := writeJSON(resultPath, res); err != nil {
		return err
	}

	fmt.Printf("perfbench %s seed=%d traced=%v: %d ops attempted, %d failed (failed_frac %.4g)\n",
		b.w.name, b.seed, b.traced, b.led.attempted, b.led.failed, b.led.failedFrac())
	fmt.Printf("host: %s, NumCPU=%d, GOMAXPROCS=%d, %s, commit %s\n",
		host.CPUModel, host.NumCPU, host.GOMAXPROCS, host.GoVersion, host.Commit)
	for _, l := range report {
		fmt.Println(l)
	}
	printed := map[string]bool{}
	for _, g := range b.gates {
		if printed[g.name] {
			continue
		}
		printed[g.name] = true
		how := "first op's, this seed has none recorded"
		if g.recorded {
			how = "recorded"
		}
		fmt.Printf("output digest %s %d %s (%s)\n", g.name, b.seed, g.want, how)
	}
	fmt.Printf("result written to %s\n", resultPath)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.led.failed == 0, b.led.attempted, b.led.failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// endToEnd computes the end-to-end metrics of an untraced run.
func (b *benchRun) endToEnd(setupS []float64, ops []opSample) (map[string]metric, []string) {
	var wall, raw, steal, cpu, rss []float64
	completed := 0
	for _, s := range ops {
		wall = append(wall, s.wallMs())
		raw = append(raw, s.rawMs())
		steal = append(steal, s.stealMs)
		cpu = append(cpu, s.cpuMs)
		rss = append(rss, s.rssMB)
		completed += s.res.Completed
	}
	t := tail(wall)
	m := map[string]metric{
		"setup_s":       {median(setupS), "s"},
		"jobs_per_s":    {float64(completed) / (sum(wall) / 1e3), "1/s"},
		"op_ms_p50":     {median(wall), "ms"},
		"op_ms_tail":    {t.Value, "ms"},
		"cpu_ms_per_op": {median(cpu), "ms"},
		"peak_rss_mb":   {median(rss), "MB"},
		"ok_frac":       {1 - b.led.failedFrac(), "ratio"},
	}
	tailNote := fmt.Sprintf("p%.1f of %d ops, %d beyond", t.Percentile, t.N, t.Beyond)
	if t.Beyond == 0 {
		tailNote = fmt.Sprintf("max of %d ops: too few for %d beyond", t.N, tailBeyond)
	}
	lines := []string{
		fmt.Sprintf("  %-16s %14.4f s      (median of %d set-ups)", "setup_s", m["setup_s"].Value, len(setupS)),
		fmt.Sprintf("  %-16s %14.1f 1/s    (%d jobs completed)", "jobs_per_s", m["jobs_per_s"].Value, completed),
		fmt.Sprintf("  %-16s %14.3f ms     (raw wall %.3f ms, less a median %.3f ms of steal)",
			"op_ms_p50", m["op_ms_p50"].Value, median(raw), median(steal)),
		fmt.Sprintf("  %-16s %14.3f ms     (%s)", "op_ms_tail", t.Value, tailNote),
		fmt.Sprintf("  %-16s %14.3f ms", "cpu_ms_per_op", m["cpu_ms_per_op"].Value),
		fmt.Sprintf("  %-16s %14.2f MB", "peak_rss_mb", m["peak_rss_mb"].Value),
		fmt.Sprintf("  %-16s %14.4f        (failed/attempted; the JSON carries ok_frac = 1 - failed_frac)", "failed_frac", b.led.failedFrac()),
	}
	return m, lines
}

// selfReport lists each layer's self time, largest first.
func selfReport(self map[string]float64, spansPath string) []string {
	layers := make([]string, 0, len(self))
	total := 0.0
	for l, ms := range self {
		layers = append(layers, l)
		total += ms
	}
	sort.Slice(layers, func(i, j int) bool {
		return self[layers[i]] > self[layers[j]] || self[layers[i]] == self[layers[j]] && layers[i] < layers[j]
	})
	lines := []string{fmt.Sprintf("self time by layer (spans in %s):", spansPath)}
	for _, l := range layers {
		lines = append(lines, fmt.Sprintf("  %-14s %12.1f ms %6.1f%%", l, self[l], 100*self[l]/total))
	}
	return lines
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
