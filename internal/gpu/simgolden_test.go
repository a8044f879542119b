package gpu_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/interference"
	"repro/internal/kernel"
	"repro/internal/profile"
	"repro/internal/testkit"
)

// update rewrites the simulator golden. The golden pins the cycle
// simulator's observable bytes — end cycles, every per-application
// counter, the summed L1/L2/DRAM counters and the interference matrix —
// so an optimization of the memory path that changes any simulated
// event fails here. Regenerate with
//
//	go test ./internal/gpu -run SimulatorGolden -update
//
// only when the simulated behavior is meant to change.
var update = flag.Bool("update", false, "rewrite the simulator golden file")

// TestSimulatorGolden runs every testkit application solo on the whole
// device and every two-application pair on an even split (the
// interference campaign's layout), on the testkit device and on the
// GTX480, and compares the recorded counters with testdata.
func TestSimulatorGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-device campaign on two configurations")
	}
	var b strings.Builder
	for _, c := range []struct {
		name string
		cfg  config.GPUConfig
	}{{"testkit", testkit.Config()}, {"GTX480", config.GTX480()}} {
		fmt.Fprintf(&b, "## %s\n", c.name)
		writeCampaign(t, &b, c.cfg)
	}
	path := filepath.Join("testdata", "simulator.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("simulator output differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("simulator output differs from %s in length: got %d lines, want %d", path, len(gl), len(wl))
	}
}

// writeCampaign records every solo run, every even-split pair and the
// resulting class matrix on one configuration.
func writeCampaign(t *testing.T, b *strings.Builder, cfg config.GPUConfig) {
	t.Helper()
	apps := testkit.Universe()
	for _, a := range apps {
		// Solo: the profiler's layout (whole device, base address 0).
		writeRun(t, b, cfg, "solo "+a.Name, []kernel.Params{a}, [][]int{allSMs(cfg.NumSMs)}, false)
	}
	for i := range apps {
		for j := i + 1; j < len(apps); j++ {
			pair := []kernel.Params{apps[i], apps[j]}
			name := "pair " + apps[i].Name + "+" + apps[j].Name
			writeRun(t, b, cfg, name, pair, interference.EvenSplit(cfg.NumSMs, 2), true)
		}
	}
	classes := map[string]classify.Class{
		"miniM": classify.ClassM, "miniMC": classify.ClassMC,
		"miniC": classify.ClassC, "miniA": classify.ClassA,
	}
	m, err := interference.Compute(cfg, profile.New(cfg), classes, apps)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "matrix slowdown %v\n", m.Slowdown)
	fmt.Fprintf(b, "matrix samples %v\n", m.Samples)
	for _, p := range m.Pairs {
		fmt.Fprintf(b, "matrix pair %+v\n", p)
	}
}

// writeRun simulates kernels on the given SM sets to completion and
// records the end cycle and every counter. based mirrors
// interference.CoRun's disjoint per-application address spaces.
func writeRun(t *testing.T, b *strings.Builder, cfg config.GPUConfig, name string, kernels []kernel.Params, sets [][]int, based bool) {
	t.Helper()
	d := gpu.MustNew(cfg)
	for i, params := range kernels {
		k, err := kernel.New(params, cfg.L1.LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		if based {
			k.BaseAddr = uint64(i+1) << 40
		}
		if _, err := d.Launch(k, sets[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Run(interference.MaxCoRunCycles); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ds := d.DeviceStats()
	fmt.Fprintf(b, "%s: end %d thread-instrs %d\n", name, d.Cycle(), ds.ThreadInstructions)
	for i, st := range ds.Apps {
		fmt.Fprintf(b, "  app %d %+v\n", i, st)
		fmt.Fprintf(b, "  metrics %d %+v\n", i, st.Derive(cfg))
	}
	l1, l2, mc := gpu.MemStats(d)
	fmt.Fprintf(b, "  L1 %+v\n  L2 %+v\n  DRAM %+v\n", l1, l2, mc)
}

func allSMs(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}
