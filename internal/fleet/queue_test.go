package fleet

import (
	"sort"
	"testing"

	"repro/internal/rng"
)

// TestJobQueueMatchesReference drives the head-indexed queue and a
// naive sorted-slice reference through the same randomized
// insert/remove script and demands identical contents at every step —
// the queue is the one data structure whose bugs would not crash but
// silently reorder dispatch.
func TestJobQueueMatchesReference(t *testing.T) {
	for _, slo := range []bool{false, true} {
		q := jobQueue{slo: slo}
		var ref []*job
		refInsert := func(j *job) {
			pos := len(ref)
			for i, r := range ref {
				if q.before(j, r) {
					pos = i
					break
				}
			}
			ref = append(ref, nil)
			copy(ref[pos+1:], ref[pos:])
			ref[pos] = j
		}
		check := func(step int) {
			t.Helper()
			if q.Len() != len(ref) {
				t.Fatalf("step %d: len %d, want %d", step, q.Len(), len(ref))
			}
			for i, r := range ref {
				if q.at(i) != r {
					t.Fatalf("step %d: slot %d holds j%d, want j%d", step, i, q.at(i).id, r.id)
				}
			}
		}
		stream := rng.NewStream(0xbeef)
		id := 0
		arrival := uint64(0)
		for step := 0; step < 2000; step++ {
			switch op := stream.Intn(10); {
			case op < 5 || len(ref) == 0:
				// In-order arrival (the common case: append position).
				arrival += uint64(stream.Intn(50))
				j := &job{id: id, arrival: arrival, slo: SLOClass(stream.Intn(2))}
				id++
				q.insert(j)
				refInsert(j)
			case op < 7:
				// Re-entry of an old (evicted) job: mid-queue insert.
				j := &job{id: id, arrival: arrival / 2, slo: SLOClass(stream.Intn(2))}
				id++
				q.insert(j)
				refInsert(j)
			case op < 9:
				// Window-prefix removal, like group formation.
				w := stream.Intn(MaxWindow) + 1
				if w > len(ref) {
					w = len(ref)
				}
				var taken []*job
				for i := 0; i < w; i++ {
					if stream.Intn(2) == 0 || len(taken) == 0 {
						taken = append(taken, ref[i])
					}
				}
				q.removeJobs(taken)
				out := ref[:0]
				for _, r := range ref {
					if !containsJob(taken, r) {
						out = append(out, r)
					}
				}
				ref = out
			default:
				// Prefix pop, like FCFS dispatch.
				n := stream.Intn(3) + 1
				if n > len(ref) {
					n = len(ref)
				}
				q.advance(n)
				ref = ref[n:]
			}
			check(step)
		}
	}
}

// TestJobQueueSLOInsertOrder checks the two-sided insert against a
// reference kept in order by sort.SliceStable over before. Each seed
// cycles through phases: a batch backlog builds up, a storm of latency
// arrivals lands ahead of it (using up the front headroom), a mixed
// phase adds evicted jobs re-entering at old arrival cycles, and a
// drain phase pops prefixes and removes window groups.
func TestJobQueueSLOInsertOrder(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		q := jobQueue{slo: true}
		var ref []*job
		stream := rng.NewStream(seed)
		id := 0
		arrival := uint64(0)
		add := func(class SLOClass, at uint64) {
			j := &job{id: id, arrival: at, slo: class}
			id++
			q.insert(j)
			ref = append(ref, j)
			sort.SliceStable(ref, func(a, b int) bool { return q.before(ref[a], ref[b]) })
		}
		arrive := func(latencyPct int) {
			arrival += uint64(stream.Intn(20))
			class := Batch
			if stream.Intn(100) < latencyPct {
				class = Latency
			}
			add(class, arrival)
		}
		for step := 0; step < 6000; step++ {
			op := stream.Intn(100)
			switch phase := step / 300 % 4; {
			case phase == 0 && op < 90, len(ref) == 0:
				arrive(5)
			case phase == 1 && op < 80:
				arrive(90)
			case phase == 2 && op < 40:
				arrive(30)
			case phase == 2 && op < 60:
				// An evicted job re-enters at its old arrival cycle.
				add(SLOClass(stream.Intn(2)), uint64(stream.Intn(int(arrival)+1)))
			case op < 60:
				w := min(stream.Intn(MaxWindow)+1, len(ref))
				var taken []*job
				for i := 0; i < w; i++ {
					if stream.Intn(3) == 0 || len(taken) == 0 {
						taken = append(taken, ref[i])
					}
				}
				q.removeJobs(taken)
				out := ref[:0]
				for _, r := range ref {
					if !containsJob(taken, r) {
						out = append(out, r)
					}
				}
				ref = out
			default:
				n := min(stream.Intn(8)+1, len(ref))
				q.advance(n)
				ref = ref[n:]
			}
			if q.Len() != len(ref) {
				t.Fatalf("seed %d step %d: len %d, want %d", seed, step, q.Len(), len(ref))
			}
			for i, r := range ref {
				if q.at(i) != r {
					t.Fatalf("seed %d step %d: slot %d holds j%d, want j%d", seed, step, i, q.at(i).id, r.id)
				}
			}
			for k := 0; k < q.head; k++ {
				if q.buf[k] != nil {
					t.Fatalf("seed %d step %d: headroom slot %d pins job j%d", seed, step, k, q.buf[k].id)
				}
			}
		}
	}
}
