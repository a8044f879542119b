package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// snapshot builds a parsed snapshot from literal JSON.
func snapshot(t *testing.T, js string) (map[string]entry, []string) {
	t.Helper()
	s, err := parse([]byte(js), "test.json")
	if err != nil {
		t.Fatal(err)
	}
	return s.byName, s.order
}

func TestDiffReportsChangesAndDirection(t *testing.T) {
	base, baseOrder := snapshot(t, `[{"name":"BenchmarkA","metrics":{"ns/op":100,"allocs/op":8}}]`)
	cur, curOrder := snapshot(t, `[{"name":"BenchmarkA","metrics":{"ns/op":150,"allocs/op":8}}]`)
	var buf bytes.Buffer
	diff(base, baseOrder, cur, curOrder, &buf)
	out := buf.String()
	if !strings.Contains(out, "+50.0%") {
		t.Errorf("missing +50%% delta:\n%s", out)
	}
	if !strings.Contains(out, "+0.0%") {
		t.Errorf("missing flat allocs delta:\n%s", out)
	}
}

// TestDiffOneSidedBenchmarks locks the graceful handling of benchmarks
// present in only one snapshot: both directions are labeled, and their
// metric values still print (tagged new/gone) instead of fake deltas.
func TestDiffOneSidedBenchmarks(t *testing.T) {
	base, baseOrder := snapshot(t, `[
		{"name":"BenchmarkKept","metrics":{"ns/op":10}},
		{"name":"BenchmarkRemoved","metrics":{"ns/op":42,"B/op":1024}}]`)
	cur, curOrder := snapshot(t, `[
		{"name":"BenchmarkKept","metrics":{"ns/op":12}},
		{"name":"BenchmarkAdded","metrics":{"ns/op":7}}]`)
	var buf bytes.Buffer
	diff(base, baseOrder, cur, curOrder, &buf)
	out := buf.String()
	for _, want := range []string{
		"BenchmarkRemoved", "gone (was in baseline)",
		"BenchmarkRemoved ns/op", "-> gone", // removed benchmark's values still shown
		"BenchmarkAdded", "new benchmark",
		"(new)", // added benchmark's values tagged new
		"+20.0%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
	// The removed benchmark's B/op metric must appear exactly once, as
	// a gone line — not as a delta against zero.
	if strings.Count(out, "BenchmarkRemoved B/op") != 1 {
		t.Errorf("BenchmarkRemoved B/op misreported:\n%s", out)
	}
	// New-snapshot order first, baseline-only benchmarks after.
	if strings.Index(out, "BenchmarkAdded") > strings.Index(out, "BenchmarkRemoved") {
		t.Errorf("baseline-only benchmark printed before new-snapshot ones:\n%s", out)
	}
}

func TestDiffOneSidedMetrics(t *testing.T) {
	base, baseOrder := snapshot(t, `[{"name":"BenchmarkA","metrics":{"ns/op":100,"old":5}}]`)
	cur, curOrder := snapshot(t, `[{"name":"BenchmarkA","metrics":{"ns/op":90,"fresh":3}}]`)
	var buf bytes.Buffer
	diff(base, baseOrder, cur, curOrder, &buf)
	out := buf.String()
	for _, want := range []string{"-10.0%", "BenchmarkA old", "-> gone", "BenchmarkA fresh", "(new)"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
}

func TestParseDeduplicatesByName(t *testing.T) {
	m, order := snapshot(t, `[
		{"name":"BenchmarkA","metrics":{"ns/op":1}},
		{"name":"BenchmarkA","metrics":{"ns/op":2}}]`)
	if len(order) != 1 {
		t.Fatalf("order = %v, want one entry", order)
	}
	if m["BenchmarkA"].Metrics["ns/op"] != 2 {
		t.Fatalf("last entry should win: %v", m["BenchmarkA"].Metrics)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, js := range []string{"not json", `{"benchmarks":[]}`, `{"host":{"cpu":"x"},"benchmarks":7}`} {
		if _, err := parse([]byte(js), "x.json"); err == nil {
			t.Errorf("%s accepted", js)
		}
	}
}

// TestReportReadsBothFormats feeds report an old array snapshot and a
// new host-recording one: both parse, and a mix of the two prints
// deltas under an unknown-host warning.
func TestReportReadsBothFormats(t *testing.T) {
	old, err := parse([]byte(`[{"name":"BenchmarkA","iterations":3,"metrics":{"ns/op":100}}]`), "old.json")
	if err != nil {
		t.Fatal(err)
	}
	cur, err := parse([]byte(`{"host":{"cpu":"CPU X","gomaxprocs":4,"go":"go1.24.0","goos":"linux","goarch":"amd64"},
		"benchmarks":[{"name":"BenchmarkA","iterations":5,"metrics":{"ns/op":80}}]}`), "new.json")
	if err != nil {
		t.Fatal(err)
	}
	if old.host != nil || cur.host == nil || cur.host.GOMAXPROCS != 4 || cur.host.CPU != "CPU X" {
		t.Fatalf("hosts parsed as %+v and %+v", old.host, cur.host)
	}
	if cur.byName["BenchmarkA"].Iterations != 5 {
		t.Fatalf("object-form benchmarks = %+v", cur.byName)
	}
	var buf bytes.Buffer
	report(old, cur, &buf)
	out := buf.String()
	for _, want := range []string{"records no host", "-20.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestReportRefusesCrossHostDeltas: snapshots from different hosts
// print "not comparable" and both hosts, never a delta; the same host
// prints deltas without a warning.
func TestReportRefusesCrossHostDeltas(t *testing.T) {
	mk := func(cpu string, procs int, ns int) snap {
		s, err := parse([]byte(fmt.Sprintf(`{"host":{"cpu":%q,"gomaxprocs":%d,"go":"go1.24.0","goos":"linux","goarch":"amd64"},
			"benchmarks":[{"name":"BenchmarkA","metrics":{"ns/op":%d}}]}`, cpu, procs, ns)), "s.json")
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	var buf bytes.Buffer
	report(mk("CPU X", 2, 100), mk("CPU Y", 8, 50), &buf)
	out := buf.String()
	for _, want := range []string{"not comparable", "CPU:CPU X GOMAXPROCS:2", "CPU:CPU Y GOMAXPROCS:8"} {
		if !strings.Contains(out, want) {
			t.Errorf("cross-host report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "%") {
		t.Errorf("cross-host report printed a delta:\n%s", out)
	}
	buf.Reset()
	report(mk("CPU X", 2, 100), mk("CPU X", 2, 50), &buf)
	if out := buf.String(); !strings.Contains(out, "-50.0%") || strings.Contains(out, "warning") || strings.Contains(out, "not comparable") {
		t.Errorf("same-host report:\n%s", out)
	}
}
