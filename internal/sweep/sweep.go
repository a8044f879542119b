// Package sweep expands a scenario grid — dispatch policy × completion
// engine × roster × arrival process × SLO mode × admission × autoscale
// × shard count × chaos — into fleet runs, fans
// them over a bounded worker pool, and collects every cell's summary
// metrics into one tidy artifact (CSV or JSON) with the cell parameters
// as leading columns. It is the Go-native analogue of mgpusim's
// collect-stats/compare-stats scripting: one command produces the whole
// comparison table, and Delta diffs two such artifacts cell by cell.
//
// Determinism carries through: the grid expands in a fixed order, every
// arrival process is generated once per kind from a seed derived only
// from the grid seed, cells of the same arrival kind see the very same
// traffic (so differences between cells are pure configuration), and
// the artifact's cells appear in grid order regardless of which worker
// finished first — the same grid twice is byte-identical output.
package sweep

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/fleet"
	"repro/internal/sched"
	"repro/internal/stats"
)

// Grid is a sweep specification: the axes to cross plus the scalar
// parameters every cell shares. The JSON form is what cmd/sweep's
// -config flag reads.
type Grid struct {
	// Policies, Engines, Rosters, Arrivals and SLOs are the grid axes,
	// spelled exactly like the cmd/fleet flags (-policy, -engine,
	// -fleet, -arrivals, -slo). Empty axes default to a single entry:
	// ilp-smra, modeled, 4xGTX480, poisson, off.
	Policies []string `json:"policies"`
	Engines  []string `json:"engines"`
	Rosters  []string `json:"rosters"`
	Arrivals []string `json:"arrivals"`
	SLOs     []string `json:"slos"`
	// Admissions and Autoscales are the control-surface axes, spelled
	// like fleet.ParseAdmission / fleet.ParseAutoscale: "off",
	// "reject[-modeled]:MAXWAIT" or "degrade[-modeled]:MAXWAIT", and
	// "off" or "MIN:MAX". Empty axes default to off — existing grids are
	// unchanged.
	Admissions []string `json:"admissions"`
	Autoscales []string `json:"autoscales"`
	// Chaoses is the failure-injection axis, spelled like
	// fleet.ParseChaosSpec: "off", a "KIND@CYCLE:DEV,..." trace, or
	// "mtbf:MTBF:MTTR[:HORIZON]" for the generator (seeded from the grid
	// seed). Empty defaults to off.
	Chaoses []string `json:"chaoses"`
	// Shards is the event-loop shard axis (-shards); it only applies to
	// modeled-engine cells. Each count is deterministic (repeat sweeps
	// are byte-identical), and counts above 1 split the backlog K ways,
	// so the axis exposes the K-way partition's scheduling cost (the
	// shard loops run one after another, so there is no wall-time
	// win). Empty defaults to one unsharded event loop.
	Shards []int `json:"shards"`
	// NC, Jobs, Rate, LatencyFrac, Deadline, Aging and HybridWarm are
	// shared by every cell. Zero picks NC 2 and rate 0.5/kcycle (the
	// cmd/fleet defaults) and 32 jobs (the sweep's own default; cmd/fleet
	// defaults to 200).
	NC          int     `json:"nc"`
	Jobs        int     `json:"jobs"`
	Rate        float64 `json:"rate"`
	LatencyFrac float64 `json:"latency_frac"`
	Deadline    uint64  `json:"deadline"`
	Aging       float64 `json:"aging"`
	HybridWarm  int     `json:"hybrid_warm"`
	// Clients, Requests, Think, Timeout and Retries shape closed-loop
	// cells (a "closed" entry on the Arrivals axis): client-pool count,
	// requests per client, mean think time, per-request patience and the
	// retry budget. Zero picks 8 clients (the cmd/fleet default) and the
	// fleet defaults for the rest. Open-loop cells ignore them.
	Clients  int     `json:"clients"`
	Requests int     `json:"requests"`
	Think    float64 `json:"think"`
	Timeout  uint64  `json:"timeout"`
	Retries  int     `json:"retries"`
	// Seed seeds the arrival streams (one derived stream per arrival
	// kind, so every cell of a kind replays identical traffic).
	Seed uint64 `json:"seed"`
}

// withDefaults resolves empty axes and zero scalars.
func (g Grid) withDefaults() Grid {
	def := func(axis []string, v string) []string {
		if len(axis) == 0 {
			return []string{v}
		}
		return axis
	}
	g.Policies = def(g.Policies, "ilp-smra")
	g.Engines = def(g.Engines, "modeled")
	g.Rosters = def(g.Rosters, "4xGTX480")
	g.Arrivals = def(g.Arrivals, "poisson")
	g.SLOs = def(g.SLOs, "off")
	g.Admissions = def(g.Admissions, "off")
	g.Autoscales = def(g.Autoscales, "off")
	g.Chaoses = def(g.Chaoses, "off")
	if len(g.Shards) == 0 {
		g.Shards = []int{1}
	}
	if g.NC == 0 {
		g.NC = 2
	}
	if g.Clients == 0 {
		g.Clients = 8
	}
	if g.Jobs == 0 {
		g.Jobs = 32
	}
	if g.Rate == 0 {
		g.Rate = 0.5
	}
	if g.Seed == 0 {
		g.Seed = 1
	}
	return g
}

// Cell is one fully-resolved grid point.
type Cell struct {
	Policy        sched.Policy
	Engine        fleet.EngineMode
	Roster        string
	Arrival       fleet.ArrivalKind
	SLOName       string
	SLO           fleet.SLOMode
	AdmissionName string
	Admission     fleet.AdmissionConfig
	AutoscaleName string
	Autoscale     fleet.AutoscaleConfig
	ChaosName     string
	Chaos         fleet.ChaosConfig
	Shards        int
}

// ParamColumns names Cell.Params' entries, in order — the artifact's
// leading columns, and how Delta identifies the same cell across two
// artifacts.
var ParamColumns = []string{"policy", "engine", "roster", "arrivals", "slo", "admission", "autoscale", "shards", "chaos"}

// Params is the cell's identity as column values, in ParamColumns
// order. Policies use the CLI spelling (fcfs, ilp-smra) rather than the
// paper's display names (Even/FCFS), so an artifact's parameter columns
// feed straight back into a grid — and two artifacts key the same cell
// identically even when their grids used different aliases.
func (c Cell) Params() []string {
	return []string{
		policyName(c.Policy), c.Engine.String(), c.Roster, c.Arrival.String(),
		c.SLOName, c.AdmissionName, c.AutoscaleName, strconv.Itoa(c.Shards),
		c.ChaosName,
	}
}

// policyName is the canonical CLI spelling of a policy (Policy.String
// renders the paper's display names instead).
func policyName(p sched.Policy) string {
	switch p {
	case sched.Serial:
		return "serial"
	case sched.FCFS:
		return "fcfs"
	case sched.ProfileBased:
		return "profile"
	case sched.ILP:
		return "ilp"
	case sched.ILPSMRA:
		return "ilp-smra"
	default:
		return strings.ToLower(p.String())
	}
}

// Expand resolves the grid into its cells, validating every axis entry
// up front (a typo fails the whole sweep before any cell runs). The
// order is fixed — roster, then arrivals, then policy, then engine,
// then SLO mode, then admission, then autoscale, then shards, then
// chaos — so the artifact's rows are reproducible.
func (g Grid) Expand() ([]Cell, error) {
	g = g.withDefaults()
	policies := make([]sched.Policy, len(g.Policies))
	for i, s := range g.Policies {
		p, err := sched.ParsePolicy(s)
		if err != nil {
			return nil, err
		}
		policies[i] = p
	}
	engines := make([]fleet.EngineMode, len(g.Engines))
	for i, s := range g.Engines {
		e, err := fleet.ParseEngine(s)
		if err != nil {
			return nil, err
		}
		engines[i] = e
	}
	arrivals := make([]fleet.ArrivalKind, len(g.Arrivals))
	for i, s := range g.Arrivals {
		k, err := fleet.ParseArrivalKind(s)
		if err != nil {
			return nil, err
		}
		if k == fleet.Trace {
			return nil, fmt.Errorf("sweep: trace arrivals need per-entry data; grids sweep generated processes (poisson, bursty)")
		}
		arrivals[i] = k
	}
	slos := make([]fleet.SLOMode, len(g.SLOs))
	for i, s := range g.SLOs {
		cfg, err := fleet.ParseSLOMode(s)
		if err != nil {
			return nil, err
		}
		slos[i] = cfg
	}
	admissions := make([]fleet.AdmissionConfig, len(g.Admissions))
	for i, s := range g.Admissions {
		cfg, err := fleet.ParseAdmission(s)
		if err != nil {
			return nil, err
		}
		admissions[i] = cfg
	}
	autoscales := make([]fleet.AutoscaleConfig, len(g.Autoscales))
	for i, s := range g.Autoscales {
		cfg, err := fleet.ParseAutoscale(s)
		if err != nil {
			return nil, err
		}
		autoscales[i] = cfg
	}
	chaoses := make([]fleet.ChaosConfig, len(g.Chaoses))
	for i, s := range g.Chaoses {
		cfg, err := fleet.ParseChaosSpec(s)
		if err != nil {
			return nil, err
		}
		// Generator cells draw their failure schedule from the grid seed,
		// so repeat sweeps stay byte-identical.
		cfg.Seed = g.Seed
		chaoses[i] = cfg
	}
	for _, r := range g.Rosters {
		if r == "" {
			return nil, fmt.Errorf("sweep: empty roster entry")
		}
	}
	for _, s := range g.Shards {
		if s < 1 {
			return nil, fmt.Errorf("sweep: shard count %d must be at least 1", s)
		}
		if s > 1 {
			for _, e := range engines {
				if e != fleet.Modeled {
					return nil, fmt.Errorf("sweep: shards > 1 only applies to the modeled engine (grid includes %v)", e)
				}
			}
		}
	}
	var cells []Cell
	for _, roster := range g.Rosters {
		for _, arr := range arrivals {
			for _, pol := range policies {
				for _, eng := range engines {
					for si, slo := range slos {
						for ai, adm := range admissions {
							for oi, scale := range autoscales {
								for _, sh := range g.Shards {
									for ci, chaos := range chaoses {
										cells = append(cells, Cell{
											Policy:  pol,
											Engine:  eng,
											Roster:  roster,
											Arrival: arr,
											// Normalized spelling, so two artifacts key the
											// same cell identically whatever case the grid
											// used.
											SLOName:       controlName(g.SLOs[si]),
											SLO:           slo,
											AdmissionName: controlName(g.Admissions[ai]),
											Admission:     adm,
											AutoscaleName: controlName(g.Autoscales[oi]),
											Autoscale:     scale,
											ChaosName:     controlName(g.Chaoses[ci]),
											Chaos:         chaos,
											Shards:        sh,
										})
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return cells, nil
}

// controlName is the canonical artifact spelling of a control-axis
// entry: lower case, with the empty spelling named "off" like the zero
// value it parses to.
func controlName(s string) string {
	if s == "" {
		return "off"
	}
	return strings.ToLower(s)
}

// cellRun is one finished cell as the metric table reads it: the
// run's result plus the wait and turnaround summaries, computed once
// because six metrics share them (each summary sorts every job's
// sample).
type cellRun struct {
	fleet.Result
	wait, turn stats.Summary
}

// metrics is every cell's collected metric in column order: its name
// and its projection of the finished cell. Cycle-valued metrics are
// reported in kilocycles to match the summary's spelling. The control
// counters (submitted through decommissions) are zero on cells without
// a control surface — the submission ledger only runs when closed-loop
// traffic, admission control or the autoscaler is configured.
var metrics = []struct {
	name  string
	value func(*cellRun) float64
}{
	{"throughput", func(r *cellRun) float64 { return r.Throughput() }},
	{"makespan_kcyc", func(r *cellRun) float64 { return float64(r.Makespan) / 1000 }},
	{"mean_util", func(r *cellRun) float64 { return r.MeanUtilization() }},
	{"wait_p50_kcyc", func(r *cellRun) float64 { return r.wait.P50 }},
	{"wait_p95_kcyc", func(r *cellRun) float64 { return r.wait.P95 }},
	{"wait_p99_kcyc", func(r *cellRun) float64 { return r.wait.P99 }},
	{"turn_p50_kcyc", func(r *cellRun) float64 { return r.turn.P50 }},
	{"turn_p95_kcyc", func(r *cellRun) float64 { return r.turn.P95 }},
	{"turn_p99_kcyc", func(r *cellRun) float64 { return r.turn.P99 }},
	{"latency_jobs", func(r *cellRun) float64 { return float64(r.LatencyJobs()) }},
	{"misses", func(r *cellRun) float64 { return float64(r.DeadlineMisses()) }},
	{"miss_rate", func(r *cellRun) float64 { return r.MissRate() }},
	{"evictions", func(r *cellRun) float64 { return float64(len(r.Evictions)) }},
	{"wasted_kcyc", func(r *cellRun) float64 { return float64(r.WastedCycles()) / 1000 }},
	{"groups", func(r *cellRun) float64 { return float64(r.Groups) }},
	{"groups_ilp", func(r *cellRun) float64 { return float64(r.ILPGroups) }},
	{"groups_cycle", func(r *cellRun) float64 { return float64(r.CycleGroups) }},
	{"groups_modeled", func(r *cellRun) float64 { return float64(r.ModeledGroups) }},
	{"submitted", func(r *cellRun) float64 { return float64(r.Submitted) }},
	{"completed", func(r *cellRun) float64 { return float64(r.CompletedJobs()) }},
	{"rejected", func(r *cellRun) float64 { return float64(r.Rejected) }},
	{"degraded", func(r *cellRun) float64 { return float64(r.Degraded) }},
	{"abandoned", func(r *cellRun) float64 { return float64(r.Abandoned) }},
	{"retried", func(r *cellRun) float64 { return float64(r.Retried) }},
	{"provisions", func(r *cellRun) float64 { return float64(r.Provisions) }},
	{"decommissions", func(r *cellRun) float64 { return float64(r.Decommissions) }},
	{"failures", func(r *cellRun) float64 { return float64(r.Failures) }},
	{"drains", func(r *cellRun) float64 { return float64(r.Drains) }},
	{"restores", func(r *cellRun) float64 { return float64(r.Restores) }},
	{"chaos_evictions", func(r *cellRun) float64 { return float64(r.ChaosEvictions) }},
}

// MetricColumns names every cell's collected metrics, in artifact
// column order.
func MetricColumns() []string {
	names := make([]string, len(metrics))
	for i, m := range metrics {
		names[i] = m.name
	}
	return names
}

// Metrics projects one run's result onto MetricColumns.
func Metrics(res fleet.Result) []float64 {
	r := &cellRun{Result: res, wait: res.WaitSummary(), turn: res.TurnaroundSummary()}
	values := make([]float64, len(metrics))
	for i, m := range metrics {
		values[i] = m.value(r)
	}
	return values
}
