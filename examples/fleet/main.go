// Fleet walkthrough: jobs arrive over simulated time to a small
// heterogeneous fleet of simulated GPUs, and the online dispatcher
// forms co-run groups from the live queue — the paper's machinery
// applied in an arrival-driven setting, across mixed hardware
// generations rather than on a single device model.
//
// The example calibrates two device types on the full workload suite
// (a big GTX480-class device and a small 8-SM one; calibration is
// disk-cached per config name), generates a deterministic Poisson
// arrival stream, runs the mixed roster under FCFS and under the
// placement-aware windowed-ILP policy, and prints both summaries plus
// a per-job latency trace for the ILP run. Note the per-device
// utilization labels: each device reports under its own config name,
// and the dispatcher scored each device's groups with that device
// type's interference matrix.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/sched"
	"repro/internal/workloads"
)

func main() {
	log.SetFlags(0)
	start := time.Now()
	var roster []fleet.DeviceSpec
	for _, cfg := range []config.GPUConfig{config.GTX480(), config.Small()} {
		log.Printf("calibrating %s ...", cfg.Name)
		pipe, err := core.LoadOrInit(cfg, workloads.All())
		if err != nil {
			log.Fatal(err)
		}
		roster = append(roster, fleet.DeviceSpec{Pipe: pipe, Count: 1})
	}
	log.Printf("roster ready in %v", time.Since(start).Round(time.Second))

	// 48 jobs drawn uniformly from the suite, Poisson arrivals at one
	// job per 1250 cycles — enough pressure that the 2-device mixed
	// fleet keeps a real queue.
	arrivals, err := fleet.ArrivalConfig{
		Kind: fleet.Poisson, Jobs: 48, Rate: 0.8, Seed: 2018,
	}.Generate(workloads.Names)
	if err != nil {
		log.Fatal(err)
	}

	for _, policy := range []sched.Policy{sched.FCFS, sched.ILPSMRA} {
		f, err := fleet.New(fleet.Config{Devices: roster, NC: 2, Policy: policy})
		if err != nil {
			log.Fatal(err)
		}
		res, err := f.Run(arrivals)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res.Summary())

		if policy == sched.ILPSMRA {
			fmt.Println("first jobs of the ILP-SMRA run:")
			for _, j := range res.Jobs[:8] {
				fmt.Printf("  job %2d %-5s (%v) dev%d[%s] arrive=%7d wait=%7d turnaround=%7d\n",
					j.ID, j.Name, j.Class, j.Device, res.DeviceConfig[j.Device], j.Arrival, j.Wait(), j.Turnaround())
			}
			fmt.Println()
		}
	}

	// SLO classes: the same traffic shape, but 30% of the jobs are
	// latency-class with a deadline of twice the slowest device type's
	// mean solo duration (a latency job may land on either generation,
	// so the deadline must be meetable on the small one). Latency jobs
	// queue ahead of batch work, the ILP ages pattern efficiencies by
	// member wait, and the dispatcher may evict a running all-batch
	// group (checkpointing its progress) when a waiting latency job
	// would miss its deadline. The summary grows per-class percentiles,
	// the deadline-miss rate and the eviction count.
	meanSolo := uint64(0)
	for _, spec := range roster {
		sum := uint64(0)
		for _, r := range spec.Pipe.Profiles() {
			sum += r.Cycles
		}
		if mean := sum / uint64(len(spec.Pipe.Profiles())); mean > meanSolo {
			meanSolo = mean
		}
	}
	sloArrivals, err := fleet.ArrivalConfig{
		Kind: fleet.Poisson, Jobs: 48, Rate: 0.8, Seed: 2018,
		LatencyFrac: 0.3, Deadline: 2 * meanSolo,
	}.Generate(workloads.Names)
	if err != nil {
		log.Fatal(err)
	}
	f, err := fleet.New(fleet.Config{
		Devices: roster, NC: 2, Policy: sched.ILPSMRA, Aging: 1,
		SLO: fleet.SLOPreempt,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := f.Run(sloArrivals)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with SLO classes (deadline %d kcycles, preemption on):\n%s", 2*meanSolo/1000, res.Summary())
	if trace := res.EvictionTrace(); trace != "" {
		fmt.Printf("evictions:\n%s", trace)
	}
}
