package fleet

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/rng"
)

// The chaos layer: deterministic device failure, drain and restore
// mid-run. A fleet serving real traffic does not get a permanently
// healthy roster, so the event loops accept an injected failure
// schedule and execute it on the same control-event heap that drives
// clients, admission and the autoscaler:
//
//   - fail kills a device outright. A group in flight is evicted
//     through the same EvictionRecord/checkpoint machinery preemption
//     uses (trigger "chaos", id -1): its jobs re-enter the queue with
//     checkpointed progress and the device leaves the idle heap.
//   - drain stops new dispatch: the device leaves the idle heap but a
//     group in flight retires normally.
//   - restore returns a failed or draining device to placement order.
//
// The schedule comes either from an explicit trace (ChaosConfig.Trace,
// the CLI's "fail@CYCLE:DEV,..." spelling) or from a generator that
// draws per-device exponential time-between-failure and time-to-repair
// variates from dedicated internal/rng streams. Either way the
// schedule is a pure function of the configuration — never of shard
// count, goroutine timing or host — so chaos runs keep the byte-
// identical determinism contract at every shard count.
//
// Failure is deliberately not decommissioning: a failed device stays
// "active" in the autoscaler's books but is subtracted from the
// effective (up) roster, so pressure rises, the Min/Max walk may
// provision a spare around the outage, and the admission predictor
// prices the dead capacity out of its wait estimate (control.go).

// ChaosKind is one chaos action.
type ChaosKind uint8

const (
	// ChaosFail kills the device: its in-flight group is evicted with
	// checkpointed progress and the device accepts no work.
	ChaosFail ChaosKind = iota
	// ChaosDrain stops new dispatch; an in-flight group retires
	// normally.
	ChaosDrain
	// ChaosRestore returns a failed or draining device to service.
	ChaosRestore
)

// String names the kind as the CLI spells it.
func (k ChaosKind) String() string {
	switch k {
	case ChaosFail:
		return "fail"
	case ChaosDrain:
		return "drain"
	case ChaosRestore:
		return "restore"
	default:
		return fmt.Sprintf("ChaosKind(%d)", int(k))
	}
}

// ParseChaosKind parses the CLI spelling.
func ParseChaosKind(s string) (ChaosKind, error) {
	switch strings.ToLower(s) {
	case "fail":
		return ChaosFail, nil
	case "drain":
		return ChaosDrain, nil
	case "restore":
		return ChaosRestore, nil
	default:
		return 0, fmt.Errorf("fleet: unknown chaos kind %q (fail, drain, restore)", s)
	}
}

// ChaosEvent is one scheduled chaos action on one device.
type ChaosEvent struct {
	// Cycle is when the action fires (fleet time).
	Cycle uint64
	// Device is the global device index the action targets.
	Device int
	// Kind is what happens to it.
	Kind ChaosKind
}

// ChaosConfig parameterizes failure injection (Config.Chaos). It is on
// when a trace or a generator rate is set, and then exactly one of
// Trace and the MTBF generator must be configured.
type ChaosConfig struct {
	// Trace is the explicit failure schedule. Events may be listed in
	// any order; they execute in (cycle, device) order, same-cycle
	// same-device events in list order.
	Trace []ChaosEvent
	// MTBF and MTTR select the generator instead of a trace: each
	// device independently alternates exponential up-times (mean MTBF
	// cycles) ending in a fail and exponential outages (mean MTTR
	// cycles) ending in a restore. Both must be positive together.
	MTBF float64
	MTTR float64
	// Horizon bounds the generator: only fail/restore pairs that both
	// land before it are scheduled, so a generated outage always ends
	// and a drained run cannot strand work on permanently dead devices
	// (0 selects DefaultChaosHorizon).
	Horizon uint64
	// Seed drives the generator's per-device draws; same seed, same
	// schedule at any shard count. Ignored with an explicit trace.
	Seed uint64
}

// DefaultChaosHorizon is the generator's schedule bound when the
// config leaves it zero: a few multiples of the suite's typical
// makespans, so default runs see whole outage windows.
const DefaultChaosHorizon = 2_000_000

// chaosSalt derives the generator's per-device streams from the seed
// (rng.Hash3(seed, device, chaosSalt)), disjoint from the client
// streams' salts in control.go.
const chaosSalt = 0xC4A05

// on reports whether anything is scheduled to fail.
func (c ChaosConfig) on() bool { return len(c.Trace) > 0 || c.generated() }

// generated reports whether the MTBF/MTTR generator is asked for.
func (c ChaosConfig) generated() bool { return c.MTBF != 0 || c.MTTR != 0 }

// withDefaults resolves zero fields.
func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.MTBF > 0 && c.Horizon == 0 {
		c.Horizon = DefaultChaosHorizon
	}
	return c
}

// validate rejects impossible chaos configurations against a roster of
// the given size.
func (c ChaosConfig) validate(devices int) error {
	if len(c.Trace) > 0 && c.generated() {
		return fmt.Errorf("fleet: chaos needs exactly one of an event trace or an MTBF/MTTR generator")
	}
	if c.generated() {
		if c.MTBF <= 0 || c.MTTR <= 0 {
			return fmt.Errorf("fleet: chaos generator needs positive MTBF and MTTR (got %g/%g)", c.MTBF, c.MTTR)
		}
		if c.Horizon == 0 {
			return fmt.Errorf("fleet: chaos generator needs a positive horizon")
		}
	}
	for i, ev := range c.Trace {
		if ev.Device < 0 || ev.Device >= devices {
			return fmt.Errorf("fleet: chaos event %d targets device %d outside the %d-device roster", i, ev.Device, devices)
		}
		switch ev.Kind {
		case ChaosFail, ChaosDrain, ChaosRestore:
		default:
			return fmt.Errorf("fleet: chaos event %d has unknown kind %v", i, ev.Kind)
		}
	}
	return nil
}

// resolveChaos materializes the run's chaos schedule in execution
// order: the sorted trace, or the generator's per-device draws. Each
// device's generator stream depends only on the seed and the device
// index, so the schedule is identical at any shard count.
func (f *Fleet) resolveChaos() []ChaosEvent {
	ch := &f.cfg.Chaos
	if !ch.on() {
		return nil
	}
	var out []ChaosEvent
	if len(ch.Trace) > 0 {
		out = append(out, ch.Trace...)
	} else {
		for d := range f.devType {
			stream := rng.NewStream(rng.Hash3(ch.Seed, uint64(d), chaosSalt))
			t := 0.0
			for {
				t += expo(stream) * ch.MTBF
				failAt := uint64(t)
				t += expo(stream) * ch.MTTR
				restoreAt := uint64(t)
				// Only whole outage windows inside the horizon are
				// scheduled: a fail whose repair lands past it would
				// strand the device (and possibly queued work) forever.
				if failAt >= ch.Horizon || restoreAt >= ch.Horizon {
					break
				}
				out = append(out,
					ChaosEvent{Cycle: failAt, Device: d, Kind: ChaosFail},
					ChaosEvent{Cycle: restoreAt, Device: d, Kind: ChaosRestore})
			}
		}
	}
	// One device sees at most one fail and one restore per cycle pair,
	// and the stable sort keeps a same-cycle same-device fail ahead of
	// its restore (list order), so execution order is a total order.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Cycle != out[j].Cycle {
			return out[i].Cycle < out[j].Cycle
		}
		return out[i].Device < out[j].Device
	})
	return out
}

// ParseChaos parses the CLI chaos trace spelling
// "fail@CYCLE:DEV,drain@CYCLE:DEV,restore@CYCLE:DEV" into events.
// Device indices are validated against the roster later (Config
// validation); here only the shape is checked.
func ParseChaos(s string) ([]ChaosEvent, error) {
	if s == "" {
		return nil, fmt.Errorf("fleet: empty chaos trace; want KIND@CYCLE:DEV,...")
	}
	var out []ChaosEvent
	for _, entry := range strings.Split(s, ",") {
		kindStr, rest, ok := strings.Cut(strings.TrimSpace(entry), "@")
		if !ok {
			return nil, fmt.Errorf("fleet: chaos event %q is not KIND@CYCLE:DEV", entry)
		}
		kind, err := ParseChaosKind(kindStr)
		if err != nil {
			return nil, fmt.Errorf("fleet: chaos event %q: %v", entry, err)
		}
		cycleStr, devStr, ok := strings.Cut(rest, ":")
		if !ok {
			return nil, fmt.Errorf("fleet: chaos event %q is not KIND@CYCLE:DEV", entry)
		}
		cycle, err := strconv.ParseUint(cycleStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fleet: chaos event %q cycle: %v", entry, err)
		}
		dev, err := strconv.Atoi(devStr)
		if err != nil || dev < 0 {
			return nil, fmt.Errorf("fleet: chaos event %q needs a non-negative device index", entry)
		}
		out = append(out, ChaosEvent{Cycle: cycle, Device: dev, Kind: kind})
	}
	return out, nil
}

// FormatChaos is the canonical rendering of a chaos trace — the fixed
// point ParseChaos round-trips through.
func FormatChaos(events []ChaosEvent) string {
	var b strings.Builder
	for i, ev := range events {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%v@%d:%d", ev.Kind, ev.Cycle, ev.Device)
	}
	return b.String()
}

// ParseChaosSpec parses the sweep axis / CLI spelling for a whole
// chaos configuration: "off" (or empty) disables it,
// "mtbf:MTBF:MTTR[:HORIZON]" selects the generator, anything else is a
// KIND@CYCLE:DEV trace.
func ParseChaosSpec(s string) (ChaosConfig, error) {
	if s == "" || strings.EqualFold(s, "off") {
		return ChaosConfig{}, nil
	}
	if rest, ok := strings.CutPrefix(strings.ToLower(s), "mtbf:"); ok {
		parts := strings.Split(rest, ":")
		if len(parts) != 2 && len(parts) != 3 {
			return ChaosConfig{}, fmt.Errorf("fleet: chaos generator %q is not mtbf:MTBF:MTTR[:HORIZON]", s)
		}
		mtbf, err := strconv.ParseFloat(parts[0], 64)
		if err != nil || mtbf <= 0 {
			return ChaosConfig{}, fmt.Errorf("fleet: chaos MTBF %q is not a positive cycle count", parts[0])
		}
		mttr, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || mttr <= 0 {
			return ChaosConfig{}, fmt.Errorf("fleet: chaos MTTR %q is not a positive cycle count", parts[1])
		}
		cfg := ChaosConfig{MTBF: mtbf, MTTR: mttr}
		if len(parts) == 3 {
			h, err := strconv.ParseUint(parts[2], 10, 64)
			if err != nil || h == 0 {
				return ChaosConfig{}, fmt.Errorf("fleet: chaos horizon %q is not a positive cycle count", parts[2])
			}
			cfg.Horizon = h
		}
		return cfg, nil
	}
	trace, err := ParseChaos(s)
	if err != nil {
		return ChaosConfig{}, err
	}
	return ChaosConfig{Trace: trace}, nil
}
