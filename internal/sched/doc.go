// Package sched executes queues of applications on the simulated GPU
// under the policies the paper evaluates:
//
//	Serial        — one application at a time on the whole device
//	FCFS (Even)   — NC applications co-run in arrival order, equal SM split
//	Profile-based — arrival order, SM partition sized from offline
//	                scalability profiles (Adriaens et al. [17])
//	ILP           — groups chosen by the contention-minimizing matcher,
//	                equal SM split (Section 3.2.3)
//	ILP+SMRA      — ILP groups plus run-time SM reallocation
//	                (Algorithm 1, Section 3.2.4)
//
// Groups run to completion before the next group launches, matching the
// paper's evaluation methodology; device throughput is total retired
// instructions over total makespan (Equation 1.1).
//
// # Entry points
//
// Scheduler.Run is the offline path: it forms all groups from the full
// queue up front (the ILP policies solve the matcher over the whole
// queue's class composition) and simulates them concurrently.
// Scheduler.RunGroup executes one already-formed group; it is the
// shared single-group path used both by Run and by the online fleet
// dispatcher (internal/fleet), safe for concurrent use.
//
// Group executions are deterministic, so RunGroup memoizes them: a
// group with the same members, SM partition and reallocation mode
// always produces the same GroupReport. Distribution queues repeat such
// groups across policies and figures, and the fleet layer's repeated
// dispatches of one composition simulate it once. SnapshotGroups/RestoreGroups persist the memo
// across processes (keyed externally by device config and workload
// fingerprint, see internal/core).
package sched
