// Command perfbench is the repository's layered host-time benchmark. It
// runs one named workload against the simulator's public API for a
// fixed time and prints the end-to-end metrics, or, with --trace 1, the
// per-layer metrics of a traced run. Every op's output is digest-checked
// and an op whose simulated output changed counts as failed.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload fcfs-flood --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload cycle-smra --seed 1 --seconds 15 --trace 1
//	bash perfbench/run.sh compare .bench_out/A.json .bench_out/B.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md lists the workloads,
// every metric with its unit, and which layer metric should move which
// end-to-end metric.
package main

import "os"

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "op":
			os.Exit(opMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}
