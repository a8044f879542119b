package fleet

import "sort"

// jobQueue is the live dispatch queue: jobs that have arrived and are
// not (currently) dispatched, in dispatch-priority order. It is
// head-indexed so the two operations the event loop performs per
// dispatch stay cheap at warehouse scale:
//
//   - insert: binary search for the position (latency class before
//     batch when SLO-aware, then arrival cycle, then arrival index),
//     then shift whichever side of the position is shorter. Without
//     SLO ordering, arrivals are admitted in cycle order, so the
//     position is the tail and insertion is an O(1) append. With it,
//     a latency arrival lands behind the (short) latency segment and
//     ahead of the whole batch backlog, so it shifts the latency
//     segment one slot into the free headroom in front of head
//     rather than copying the backlog. Only an evicted job re-entering
//     mid-backlog moves more, and never more than half the queue.
//   - removeJobs: group formation only ever draws members from the
//     queue's window prefix (at most MaxWindow deep, or the FCFS/Serial
//     head), so removal compacts the surviving prefix entries onto the
//     freed slots and advances the head — O(window), independent of the
//     backlog depth behind it.
//
// A 100k-job bursty backlog would make the old []*job representation
// (full-slice filter per dispatch, full-slice copy per mid-queue
// insert) quadratic; this keeps the queue out of the event core's
// O(log n) budget.
type jobQueue struct {
	buf  []*job
	head int
	// slo selects SLO-aware ordering (latency before batch).
	slo bool
	// latency counts waiting Latency-class jobs, maintained by the
	// mutators below so the observability sampler reads the queue's class
	// split in O(1) instead of walking the backlog every interval.
	latency int
	// work sums the waiting jobs' mean solo cycles (job.soloEst),
	// maintained alongside latency so the admission predictor reads the
	// backlog's service demand in O(1). cowork sums the
	// interference-inflated estimates (job.coEst) the modeled predictor
	// reads instead; both are two integer ops per mutation, so they are
	// kept unconditionally.
	work   uint64
	cowork uint64
}

// Len is the number of waiting jobs.
func (q *jobQueue) Len() int { return len(q.buf) - q.head }

// view is the waiting jobs in dispatch-priority order. The slice
// aliases the queue; callers must not hold it across mutations.
func (q *jobQueue) view() []*job { return q.buf[q.head:] }

// at returns the i-th waiting job (0 = next to dispatch).
func (q *jobQueue) at(i int) *job { return q.buf[q.head+i] }

// before is the dispatch-priority order: latency class before batch
// when SLO-aware dispatch is on, then arrival cycle, then arrival
// index. With SLO dispatch off every job has equal priority, so
// admission order (arrival order) is preserved exactly; with it on,
// evicted batch jobs re-enter among the batch segment at their
// arrival-order position — ahead of younger waiting batch work, behind
// every latency job.
func (q *jobQueue) before(a, b *job) bool {
	if q.slo && a.slo != b.slo {
		return a.slo == Latency
	}
	if a.arrival != b.arrival {
		return a.arrival < b.arrival
	}
	return a.id < b.id
}

// insert places j at its priority position.
func (q *jobQueue) insert(j *job) {
	if j.slo == Latency {
		q.latency++
	}
	q.work += j.soloEst
	q.cowork += j.coEst
	j.state = jsWaiting
	v := q.view()
	pos := sort.Search(len(v), func(i int) bool { return q.before(j, v[i]) })
	if pos < len(v)-pos {
		// Fewer jobs ahead of j than behind it: slide the front part
		// one slot into the headroom.
		if q.head == 0 {
			q.openFront()
		}
		q.head--
		copy(q.buf[q.head:], q.buf[q.head+1:q.head+1+pos])
		q.buf[q.head+pos] = j
		return
	}
	q.buf = append(q.buf, j)
	if pos == len(v) {
		return
	}
	at := q.head + pos
	copy(q.buf[at+1:], q.buf[at:])
	q.buf[at] = j
}

// openFront moves the waiting jobs back to leave free slots in front of
// head, for inserts nearer the front than the back. It leaves room for
// a quarter of the backlog (at least a window), so its copy is
// amortized O(1) over the front inserts that use the room.
func (q *jobQueue) openFront() {
	n := q.Len()
	room := max(MaxWindow, n/4)
	if cap(q.buf) < room+n {
		buf := make([]*job, room+n, 2*(room+n))
		copy(buf[room:], q.view())
		q.buf = buf
	} else {
		q.buf = q.buf[:room+n]
		copy(q.buf[room:], q.buf[q.head:q.head+n])
		clear(q.buf[:room])
	}
	q.head = room
}

// advance pops the first n waiting jobs (the FCFS/Serial paths, whose
// groups are exactly the queue prefix).
func (q *jobQueue) advance(n int) {
	for k := q.head; k < q.head+n; k++ {
		if q.buf[k].slo == Latency {
			q.latency--
		}
		q.work -= q.buf[k].soloEst
		q.cowork -= q.buf[k].coEst
		q.buf[k] = nil
	}
	q.head += n
	q.compact()
}

// removeJobs removes the given jobs (a just-formed group, at most NC
// entries) from the queue, preserving the order of the survivors.
// Every member must lie in the queue prefix group formation scanned
// (the dispatch window); the scan stops as soon as all of them are
// found, so the cost is O(window · NC + survivors in the prefix),
// never O(backlog), and — unlike the taken-map predecessor — it
// allocates nothing.
func (q *jobQueue) removeJobs(members []*job) {
	if len(members) == 0 {
		return
	}
	found := 0
	// kept collects prefix survivors; bounded by the dispatch window,
	// so the stack buffer almost always suffices.
	var keptBuf [MaxWindow]*job
	kept := keptBuf[:0]
	i := q.head
	for ; i < len(q.buf) && found < len(members); i++ {
		if containsJob(members, q.buf[i]) {
			found++
			if q.buf[i].slo == Latency {
				q.latency--
			}
			q.work -= q.buf[i].soloEst
			q.cowork -= q.buf[i].coEst
		} else {
			kept = append(kept, q.buf[i])
		}
	}
	newHead := i - len(kept)
	copy(q.buf[newHead:i], kept)
	// Nil out the freed slots so completed jobs do not pin the arrays
	// they reference for the queue's lifetime.
	for k := q.head; k < newHead; k++ {
		q.buf[k] = nil
	}
	q.head = newHead
	q.compact()
}

// compact slides the live suffix back towards the front once the dead
// prefix dominates the buffer, leaving one window of headroom in front
// of head for front inserts. Without it the head-indexed buffer only
// ever grows (inserts append at the tail while the head advances), so
// a long run reallocates forever and holds O(total jobs) slots; with
// it the buffer stays within about twice the live backlog and
// steady-state dispatch stays allocation-free. The copy is amortized
// O(1) per removed job: each compaction moves at most as many entries
// as were consumed since the last one.
func (q *jobQueue) compact() {
	if q.head < 2*MaxWindow || q.head*2 < len(q.buf) {
		return
	}
	n := copy(q.buf[MaxWindow:], q.buf[q.head:])
	clear(q.buf[MaxWindow+n:])
	q.buf = q.buf[:MaxWindow+n]
	q.head = MaxWindow
}
