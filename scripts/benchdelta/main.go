// Command benchdelta compares two BENCH_*.json snapshots produced by
// scripts/bench.sh and prints per-benchmark, per-metric deltas, so a
// bench run immediately shows how it moved against the last committed
// baseline.
//
// Usage:
//
//	go run ./scripts/benchdelta baseline.json new.json
//
// Output is one line per (benchmark, metric) present in either file:
// the baseline value, the new value and the relative change. Metrics or
// whole benchmarks present on one side only are marked new/gone — with
// their values still printed — rather than misreported as changes. For
// time-like and allocation metrics lower is better; benchdelta does not
// judge, it only reports.
//
// A snapshot is either the current object form, {"host": {...},
// "benchmarks": [...]}, whose host record names the CPU model,
// GOMAXPROCS, Go version, GOOS and GOARCH the numbers were taken on, or
// the older bare array of benchmarks, which carries no host. When both
// snapshots name their host and the hosts differ, the deltas would
// compare machines rather than code: benchdelta then prints "not
// comparable" and both host records instead. When either host is
// unknown it prints the deltas under a warning.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"sort"
)

type entry struct {
	Name       string             `json:"name"`
	Iterations int                `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// host is the machine and toolchain a snapshot was taken on.
type host struct {
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// snap is one parsed snapshot: benchmarks by name, their first-seen
// order, and the host (nil for the old array format).
type snap struct {
	byName map[string]entry
	order  []string
	host   *host
}

func load(path string) (snap, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return snap{}, err
	}
	return parse(data, path)
}

// parse decodes one snapshot in either format, keeping first-seen order
// and deduplicating by name (last entry wins, as bench.sh appends
// reruns).
func parse(data []byte, path string) (snap, error) {
	var doc struct {
		Host       *host   `json:"host"`
		Benchmarks []entry `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &doc.Benchmarks); err != nil {
		// Not the old bare array: the object form with a host record.
		doc.Benchmarks = nil
		if err := json.Unmarshal(data, &doc); err != nil {
			return snap{}, fmt.Errorf("%s: %w", path, err)
		}
		if doc.Host == nil {
			return snap{}, fmt.Errorf("%s: snapshot object has no host record", path)
		}
	}
	s := snap{byName: make(map[string]entry, len(doc.Benchmarks)), host: doc.Host}
	for _, e := range doc.Benchmarks {
		if _, dup := s.byName[e.Name]; !dup {
			s.order = append(s.order, e.Name)
		}
		s.byName[e.Name] = e
	}
	return s, nil
}

// report writes the comparison of two snapshots: deltas when they come
// from the same host (or a host is unknown, with a warning), and "not
// comparable" with both host records otherwise.
func report(base, cur snap, w io.Writer) {
	if base.host == nil || cur.host == nil {
		fmt.Fprintln(w, "  warning: a snapshot records no host; the deltas may compare different machines")
	} else if *base.host != *cur.host {
		fmt.Fprintln(w, "  not comparable: the snapshots come from different hosts")
		fmt.Fprintf(w, "    baseline %+v\n    new      %+v\n", *base.host, *cur.host)
		return
	}
	diff(base.byName, base.order, cur.byName, cur.order, w)
}

// metricNames is the union of both sides' metric names: the new side's
// sorted first, then baseline-only ones (also sorted).
func metricNames(b, c map[string]float64) []string {
	names := make([]string, 0, len(c))
	for k := range c {
		names = append(names, k)
	}
	sort.Strings(names)
	var gone []string
	for k := range b {
		if _, ok := c[k]; !ok {
			gone = append(gone, k)
		}
	}
	sort.Strings(gone)
	return append(names, gone...)
}

// diff writes the per-benchmark, per-metric comparison. Benchmarks in
// the new snapshot print in its order, baseline-only benchmarks follow;
// both one-sided benchmarks and one-sided metrics report their actual
// values tagged new/gone instead of a bogus delta.
func diff(base map[string]entry, baseOrder []string, cur map[string]entry, curOrder []string, w io.Writer) {
	names := append([]string(nil), curOrder...)
	for _, n := range baseOrder {
		if _, ok := cur[n]; !ok {
			names = append(names, n)
		}
	}
	for _, name := range names {
		b, hasBase := base[name]
		c, hasCur := cur[name]
		switch {
		case !hasCur:
			fmt.Fprintf(w, "  %-40s gone (was in baseline)\n", name)
		case !hasBase:
			fmt.Fprintf(w, "  %-40s new benchmark\n", name)
		}
		// Both one-sided cases still print their metrics below, so the
		// snapshot lines stay readable either way.
		for _, k := range metricNames(b.Metrics, c.Metrics) {
			nv, hasN := c.Metrics[k]
			ov, hasO := b.Metrics[k]
			label := fmt.Sprintf("%s %s", name, k)
			switch {
			case !hasN:
				fmt.Fprintf(w, "  %-56s %12.4g -> gone\n", label, ov)
			case !hasO:
				fmt.Fprintf(w, "  %-56s %12s -> %-12.4g (new)\n", label, "-", nv)
			default:
				delta := "n/a"
				if ov != 0 {
					d := 100 * (nv - ov) / math.Abs(ov)
					delta = fmt.Sprintf("%+.1f%%", d)
				}
				fmt.Fprintf(w, "  %-56s %12.4g -> %-12.4g %s\n", label, ov, nv, delta)
			}
		}
	}
}

func main() {
	log.SetFlags(0)
	if len(os.Args) != 3 {
		log.Fatal("usage: benchdelta baseline.json new.json")
	}
	base, err := load(os.Args[1])
	if err != nil {
		log.Fatal(err)
	}
	cur, err := load(os.Args[2])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("benchmark deltas (%s -> %s):\n", os.Args[1], os.Args[2])
	report(base, cur, os.Stdout)
}
