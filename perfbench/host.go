package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// hostRecord identifies the machine and build a result came from. The
// fleet sizes its Cycle worker pool and speculation from NumCPU, so
// GOMAXPROCS alone does not bound its threads: both are recorded.
type hostRecord struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentHost() hostRecord {
	return hostRecord{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

// stealMs reads the host's steal time — time a hypervisor ran other
// guests on this machine's CPUs — in milliseconds per CPU, from the
// cumulative counter in /proc/stat (USER_HZ ticks summed over CPUs). It
// reads 0 where there is no such counter. Wall times are reported net of
// it, so a busy neighbour on a shared host does not read as a slower
// program.
func stealMs() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks * 10 / float64(runtime.NumCPU())
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// where there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, as the go
// command stamped it; a build outside a repository has none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// sameHost reports why two results cannot be compared, or "" when they
// can: every field but the commit must match.
func sameHost(a, b hostRecord) string {
	var diffs []string
	if a.CPUModel != b.CPUModel {
		diffs = append(diffs, fmt.Sprintf("cpu %q vs %q", a.CPUModel, b.CPUModel))
	}
	if a.NumCPU != b.NumCPU {
		diffs = append(diffs, fmt.Sprintf("NumCPU %d vs %d", a.NumCPU, b.NumCPU))
	}
	if a.GOMAXPROCS != b.GOMAXPROCS {
		diffs = append(diffs, fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS))
	}
	if a.GoVersion != b.GoVersion {
		diffs = append(diffs, fmt.Sprintf("Go %s vs %s", a.GoVersion, b.GoVersion))
	}
	return strings.Join(diffs, ", ")
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultFile is what each run writes under .bench_out/.
type resultFile struct {
	Host      hostRecord        `json:"host"`
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Traced    bool              `json:"traced"`
	Seconds   int               `json:"seconds"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// LayerSelfMs is each layer's self time over the traced run.
	LayerSelfMs map[string]float64 `json:"layer_self_ms,omitempty"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (resultFile, error) {
	var r resultFile
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &r)
	}
	if err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareMain prints NEW against BASE metric by metric. Results from
// different hosts are marked not comparable instead of being diffed, so
// a host change never reads as a regression.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE.json NEW.json")
		return 2
	}
	base, err := readResult(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	cur, err := readResult(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	if base.Workload != cur.Workload || base.Traced != cur.Traced {
		fmt.Fprintf(os.Stderr, "perfbench compare: %s (traced=%v) vs %s (traced=%v) measure different things\n",
			base.Workload, base.Traced, cur.Workload, cur.Traced)
		return 1
	}
	fmt.Printf("workload %s: %s (%s) -> %s (%s)\n", cur.Workload, base.Host.Commit, args[0], cur.Host.Commit, args[1])
	why := sameHost(base.Host, cur.Host)
	names := make([]string, 0, len(cur.Metrics))
	for n := range cur.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := cur.Metrics[n]
		b, ok := base.Metrics[n]
		switch {
		case !ok:
			fmt.Printf("  %-32s %14s -> %14.6g %-6s (new metric)\n", n, "-", c.Value, c.Unit)
		case why != "":
			fmt.Printf("  %-32s %14.6g -> %14.6g %-6s not comparable\n", n, b.Value, c.Value, c.Unit)
		case b.Value == 0:
			fmt.Printf("  %-32s %14.6g -> %14.6g %-6s\n", n, b.Value, c.Value, c.Unit)
		default:
			fmt.Printf("  %-32s %14.6g -> %14.6g %-6s %+7.1f%%\n", n, b.Value, c.Value, c.Unit, 100*(c.Value/b.Value-1))
		}
	}
	if why != "" {
		fmt.Printf("not comparable: results come from different hosts (%s)\n", why)
	}
	return 0
}
