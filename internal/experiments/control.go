package experiments

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/workloads"
)

// meanSoloCycles is the calibrated universe's mean solo duration — the
// natural cycle scale for deadlines, think times and admission bounds,
// so the control scenarios track the workload suite instead of magic
// constants.
func (s *Suite) meanSoloCycles() uint64 {
	profiles := s.P.Profiles()
	mean := uint64(0)
	for _, r := range profiles {
		mean += r.Cycles
	}
	return mean / uint64(len(profiles))
}

// FleetAdmission is the admission-control ablation under a flash
// crowd: a closed-loop client pool far larger than the fleet's service
// capacity submits latency-heavy traffic, and the same crowd is served
// with admission off, with over-bound submissions rejected (pricing the
// backlog by solo estimates and, in the modeled variant, by
// interference-inflated co-run estimates), and with them degraded to
// the batch class. Clients think between requests, so
// a rejection genuinely sheds load rather than returning instantly.
// The artifact reports what admission buys the latency class
// (deadline-miss rate, tail wait) and what it costs (rejections or
// degradations, completed work) on identical client behavior.
func (s *Suite) FleetAdmission() (Artifact, error) {
	const (
		devices  = 4
		nc       = 2
		clients  = 12
		requests = 6
	)
	meanSolo := s.meanSoloCycles()
	deadline := 2 * meanSolo
	maxWait := meanSolo
	closed := fleet.ClosedConfig{
		Clients: clients, Requests: requests,
		Think: float64(meanSolo), LatencyFrac: 0.5, Deadline: deadline,
		Seed: rng.Hash2(s.Seed, 0xad1), Universe: workloads.Names,
	}
	modes := []struct {
		name string
		adm  fleet.AdmissionConfig
	}{
		{"admission-off", fleet.AdmissionConfig{}},
		{"admission-reject", fleet.AdmissionConfig{MaxWait: maxWait}},
		{"admission-reject-modeled", fleet.AdmissionConfig{MaxWait: maxWait, Modeled: true}},
		{"admission-degrade", fleet.AdmissionConfig{MaxWait: maxWait, Degrade: true}},
	}
	a := Artifact{
		ID: "FleetAdmission",
		Title: fmt.Sprintf("admission control: %d devices, %d closed-loop clients x %d requests, 50%% latency-class, bound %d kcyc (beyond the paper)",
			devices, clients, requests, maxWait/1000),
	}
	for _, m := range modes {
		a.Columns = append(a.Columns, m.name)
	}
	var results []fleet.Result
	for _, m := range modes {
		f, err := fleet.NewHomogeneous(s.P, devices, fleet.Config{
			NC: nc, Policy: sched.ILPSMRA, Engine: fleet.Modeled,
			SLO: fleet.SLOPriority, Closed: closed, Admission: m.adm,
		})
		if err != nil {
			return Artifact{}, err
		}
		res, err := f.Run(nil)
		if err != nil {
			return Artifact{}, fmt.Errorf("fleet admission/%s: %w", m.name, err)
		}
		results = append(results, res)
	}
	a.Rows = fleetRows("", results, []fleetMetric{
		{"deadline-miss rate", fleet.Result.MissRate},
		{"latency p99 wait (kcyc)", func(r fleet.Result) float64 { return r.WaitSummaryFor(fleet.Latency).P99 }},
		{"completed jobs", completedJobs},
		{"rejected", func(r fleet.Result) float64 { return float64(r.Rejected) }},
		{"degraded", func(r fleet.Result) float64 { return float64(r.Degraded) }},
		{"throughput", fleet.Result.Throughput},
	})
	// Headline: the ablation's trade — misses bought down, paid in
	// rejections (or degradations, which keep the work).
	off := a.MustValue("deadline-miss rate", "admission-off")
	rej := a.MustValue("deadline-miss rate", "admission-reject")
	a.Notes = append(a.Notes, fmt.Sprintf("flash-crowd deadline-miss rate with admission: %.3f -> %.3f, at %.0f rejections",
		off, rej, a.MustValue("rejected", "admission-reject")))
	a.Notes = append(a.Notes, fmt.Sprintf("degrade mode: miss rate %.3f with 0 rejections and %.0f degradations (no work dropped)",
		a.MustValue("deadline-miss rate", "admission-degrade"), a.MustValue("degraded", "admission-degrade")))
	// A/B: the interference-aware predictor prices the backlog with
	// co-run (slowed-down) estimates instead of solo cycles, so the same
	// bound admits less optimistically.
	a.Notes = append(a.Notes, fmt.Sprintf("interference-aware predictor: miss rate %.3f at %.0f rejections (solo-estimate reject: %.3f at %.0f)",
		a.MustValue("deadline-miss rate", "admission-reject-modeled"), a.MustValue("rejected", "admission-reject-modeled"),
		rej, a.MustValue("rejected", "admission-reject")))
	return a, nil
}

// FleetElastic is the elastic-roster ablation under a diurnal load
// curve: long bursty ON/OFF phases (hours of the simulated day, on the
// suite's cycle scale) alternately load and idle the fleet, served
// once by the full fixed roster and once by the autoscaler breathing
// between a 2-device floor and the full 8. The artifact reports what
// elasticity saves (mean devices held active, integrated from the
// run's time series) against what it costs (wait and deadline tails
// while capacity catches up), with the roster churn itself —
// provisions and decommissions — alongside.
func (s *Suite) FleetElastic() (Artifact, error) {
	const (
		devices = 8
		nc      = 2
		jobs    = 96
	)
	meanSolo := s.meanSoloCycles()
	deadline := 4 * meanSolo
	acfg := fleet.ArrivalConfig{
		Kind: fleet.Bursty, Jobs: jobs, Rate: 0.15, BurstRate: 2.0,
		MeanOn: float64(4 * meanSolo), MeanOff: float64(12 * meanSolo),
		LatencyFrac: 0.25, Deadline: deadline,
		Seed: rng.Hash2(s.Seed, 0xe1a5),
	}
	arrivals, err := acfg.Generate(workloads.Names)
	if err != nil {
		return Artifact{}, err
	}
	modes := []struct {
		name  string
		scale fleet.AutoscaleConfig
	}{
		{"fixed-roster", fleet.AutoscaleConfig{}},
		{"autoscale-2:8", fleet.AutoscaleConfig{Min: 2, Max: devices, High: 1.0, Low: 0.25}},
	}
	a := Artifact{
		ID: "FleetElastic",
		Title: fmt.Sprintf("elastic roster: %d devices, %d diurnal bursty jobs, autoscale off vs 2:%d (beyond the paper)",
			devices, jobs, devices),
	}
	for _, m := range modes {
		a.Columns = append(a.Columns, m.name)
	}
	var results []fleet.Result
	for _, m := range modes {
		f, err := fleet.NewHomogeneous(s.P, devices, fleet.Config{
			NC: nc, Policy: sched.ILPSMRA, Engine: fleet.Modeled,
			SLO: fleet.SLOPriority, Autoscale: m.scale,
			SampleEvery: meanSolo / 4, ShardEpoch: meanSolo / 2,
		})
		if err != nil {
			return Artifact{}, err
		}
		res, err := f.Run(arrivals)
		if err != nil {
			return Artifact{}, fmt.Errorf("fleet elastic/%s: %w", m.name, err)
		}
		results = append(results, res)
	}
	a.Rows = fleetRows("", results, []fleetMetric{
		{"mean active devices", func(r fleet.Result) float64 { return meanActiveDevices(r, devices) }},
		{"deadline-miss rate", fleet.Result.MissRate},
		{"wait p95 (kcyc)", func(r fleet.Result) float64 { return r.WaitSummary().P95 }},
		{"throughput", fleet.Result.Throughput},
		{"provisions", func(r fleet.Result) float64 { return float64(r.Provisions) }},
		{"decommissions", func(r fleet.Result) float64 { return float64(r.Decommissions) }},
		{"makespan (Mcyc)", makespanMcyc},
	})
	fixedActive := a.MustValue("mean active devices", "fixed-roster")
	elasticActive := a.MustValue("mean active devices", "autoscale-2:8")
	a.Notes = append(a.Notes, fmt.Sprintf("diurnal curve: mean active devices %.2f -> %.2f (%.0f%% fewer device-cycles held) with %0.f provisions / %0.f decommissions; wait p95 %.1f -> %.1f kcyc",
		fixedActive, elasticActive, 100*(1-elasticActive/fixedActive),
		a.MustValue("provisions", "autoscale-2:8"), a.MustValue("decommissions", "autoscale-2:8"),
		a.MustValue("wait p95 (kcyc)", "fixed-roster"), a.MustValue("wait p95 (kcyc)", "autoscale-2:8")))
	return a, nil
}

// meanActiveDevices integrates the active-roster size over the run's
// time series — the device-cycles the operator actually held, per
// cycle of makespan. Without an autoscaler the series has no active
// column and the whole roster is held for the whole run.
func meanActiveDevices(res fleet.Result, devices int) float64 {
	if res.Series == nil || res.Series.Rows() == 0 {
		return float64(devices)
	}
	col := res.Series.Col("active_devices")
	if col < 0 {
		return float64(devices)
	}
	sum := 0.0
	for r := 0; r < res.Series.Rows(); r++ {
		sum += float64(res.Series.At(r, col))
	}
	return sum / float64(res.Series.Rows())
}
