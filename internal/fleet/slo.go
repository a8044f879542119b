package fleet

import (
	"fmt"
	"strings"
)

// SLOClass is a job's service-level class. The dispatcher only ever
// distinguishes two: work that must meet a deadline and work that only
// cares about throughput.
type SLOClass int

const (
	// Batch jobs optimize throughput; they have no deadline and may be
	// evicted (with checkpointed progress) to protect latency work.
	Batch SLOClass = iota
	// Latency jobs carry a deadline. They are dispatched ahead of batch
	// work and are never evicted.
	Latency
)

// String names the class as the CLI and summaries spell it.
func (c SLOClass) String() string {
	switch c {
	case Batch:
		return "batch"
	case Latency:
		return "latency"
	default:
		return fmt.Sprintf("SLOClass(%d)", int(c))
	}
}

// ParseSLOClass parses the CLI spelling.
func ParseSLOClass(s string) (SLOClass, error) {
	switch strings.ToLower(s) {
	case "batch":
		return Batch, nil
	case "latency", "lat":
		return Latency, nil
	default:
		return 0, fmt.Errorf("fleet: unknown SLO class %q (batch, latency)", s)
	}
}

// SLOMode selects class-aware dispatch. The zero value, SLOOff, is the
// class-blind dispatcher of earlier revisions.
type SLOMode uint8

const (
	// SLOOff dispatches without regard to class.
	SLOOff SLOMode = iota
	// SLOPriority queues latency jobs ahead of batch jobs and lets them
	// seed group formation first.
	SLOPriority
	// SLOPreempt is SLOPriority plus eviction: the dispatcher may evict
	// a running batch-only group when a waiting latency job would miss
	// its deadline even if dispatched the instant the next device is
	// predicted to free (under the solo-progress model). Evicted jobs
	// re-enter the queue with their completed fraction checkpointed.
	SLOPreempt
)

// String names the mode as the CLI spells it.
func (m SLOMode) String() string {
	switch m {
	case SLOOff:
		return "off"
	case SLOPriority:
		return "priority"
	case SLOPreempt:
		return "preempt"
	default:
		return fmt.Sprintf("SLOMode(%d)", int(m))
	}
}

// ParseSLOMode parses the CLI's -slo spelling: "off" (or empty) is
// class-blind, "priority" queues latency jobs first, "preempt"
// additionally evicts running batch groups to save deadlines. Shared by
// cmd/fleet and the sweep grid so both spell the modes identically.
func ParseSLOMode(s string) (SLOMode, error) {
	switch strings.ToLower(s) {
	case "", "off":
		return SLOOff, nil
	case "priority":
		return SLOPriority, nil
	case "preempt":
		return SLOPreempt, nil
	default:
		return SLOOff, fmt.Errorf("fleet: unknown SLO mode %q (off, priority, preempt)", s)
	}
}

// The checkpoint model of an eviction. A re-dispatched job pays
// DefaultRestartFrac of its solo duration on the device that re-runs it
// (state re-materialization: reloading inputs and replaying the
// un-checkpointed tail), and at most DefaultMaxCheckpoint of a job
// survives an eviction: a job evicted arbitrarily late still re-runs at
// least a tenth of itself, because checkpoints come from the
// solo-profile progress model, not from simulator state.
const (
	DefaultRestartFrac   = 0.1
	DefaultMaxCheckpoint = 0.9
)

// EvictionRecord is one preemption event: which device was cleared at
// which cycle, which jobs went back to the queue, and how much progress
// each kept.
type EvictionRecord struct {
	// Cycle is when the eviction happened (= the dispatch cycle of the
	// latency job that triggered it).
	Cycle uint64
	// Device is the cleared device.
	Device int
	// TriggerJob is the waiting latency job the eviction protects, or
	// chaosTriggerID (-1) when a device failure forced the eviction.
	TriggerJob int
	// Jobs lists the evicted jobs' IDs in launch order.
	Jobs []int
	// Progress is each evicted job's checkpointed completed fraction
	// after this eviction, indexed like Jobs.
	Progress []float64
	// Wasted is the solo-equivalent work the fleet must re-do because of
	// this eviction, summed over the evicted members: each member's
	// attempt time not preserved by its checkpoint plus the restart tax
	// its re-dispatch will pay, in cycles. It is a job-side re-work
	// measure, not device occupancy — an NC-member group can waste up to
	// NC times the attempt's device time (which DeviceBusy accounts
	// once).
	Wasted uint64
}

// String renders the record as one deterministic trace line.
func (e EvictionRecord) String() string {
	var b strings.Builder
	if e.TriggerJob < 0 {
		fmt.Fprintf(&b, "@%d d%d trigger=chaos evict=[", e.Cycle, e.Device)
	} else {
		fmt.Fprintf(&b, "@%d d%d trigger=j%d evict=[", e.Cycle, e.Device, e.TriggerJob)
	}
	for i, id := range e.Jobs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "j%d:%.3f", id, e.Progress[i])
	}
	fmt.Fprintf(&b, "] wasted=%d", e.Wasted)
	return b.String()
}
