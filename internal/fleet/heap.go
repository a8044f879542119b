package fleet

import "slices"

// The event core's indexed structures, all one binary min-heap
// (minHeap) under a strict total order, so the pop sequence is a pure
// function of the pushed elements:
//
//   - resolved flights keyed by (completion, device): the provably-next
//     completion is the root;
//   - unresolved flights keyed by (earliest bound, dispatch sequence):
//     the flight the loop may have to block on is the root, and the
//     first-dispatched flight wins a tie;
//   - idle devices keyed by placement position, so the dispatch pass
//     pops the fastest idle device;
//   - control events keyed by (cycle, push sequence) (control.go).
//
// Flights leave their heaps lazily: eviction and resolution mark the
// flight's state and peek/pop discard stale roots, so removal never
// needs an index into the heap. Only the autoscaler and chaos remove an
// idle device from the middle of its heap.
//
// Heap traffic is per flight, never per job: a modeled dispatch commits
// the whole group as one resolved entry (commitModeled), so an NC-member
// completion costs one push and one pop, not NC of each — the batching
// half of the steady-state zero-allocation dispatch contract.

// minHeap is a binary min-heap of v under the strict order less.
type minHeap[T any] struct {
	less func(a, b T) bool
	v    []T
}

func (h *minHeap[T]) push(x T) {
	h.v = append(h.v, x)
	h.up(len(h.v) - 1)
}

// removeAt deletes and returns the element at index i (the minimum at
// i = 0). The hole is filled by the last element and re-sifted both
// ways, since swap-with-last can violate either direction.
func (h *minHeap[T]) removeAt(i int) T {
	x := h.v[i]
	n := len(h.v) - 1
	h.v[i] = h.v[n]
	var zero T
	h.v[n] = zero
	h.v = h.v[:n]
	if i < n && !h.down(i) {
		h.up(i)
	}
	return x
}

// up sifts the element at i towards the root.
func (h *minHeap[T]) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.v[i], h.v[p]) {
			return
		}
		h.v[i], h.v[p] = h.v[p], h.v[i]
		i = p
	}
}

// down sifts the element at i towards the leaves and reports whether it
// moved.
func (h *minHeap[T]) down(i int) bool {
	n, start := len(h.v), i
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.less(h.v[l], h.v[m]) {
			m = l
		}
		if r < n && h.less(h.v[r], h.v[m]) {
			m = r
		}
		if m == i {
			return i > start
		}
		h.v[i], h.v[m] = h.v[m], h.v[i]
		i = m
	}
}

// flightState tracks which heap (if any) a flight is live in.
type flightState int

const (
	// flightPending: simulation outstanding, live in the unresolved heap.
	flightPending flightState = iota
	// flightResolved: completion known, live in the resolved heap.
	flightResolved
	// flightEvicted: preempted; stale in whichever heap it was in.
	flightEvicted
	// flightRetired: completed and accounted; stale in the resolved heap.
	flightRetired
)

// flightHeap is a heap of in-flight groups with lazy deletion driven by
// the live state.
type flightHeap struct {
	minHeap[*inflight]
	live flightState
}

// peek returns the minimum live flight, discarding stale roots (evicted
// or state-transitioned flights), or nil when empty.
func (h *flightHeap) peek() *inflight {
	for len(h.v) > 0 {
		if h.v[0].state == h.live {
			return h.v[0]
		}
		h.removeAt(0)
	}
	return nil
}

// pop removes and returns the minimum live flight (nil when empty).
func (h *flightHeap) pop() *inflight {
	fl := h.peek()
	if fl != nil {
		h.removeAt(0)
	}
	return fl
}

// deviceHeap is a heap of idle device indices keyed by placement
// position (Fleet.orderPos), so pop yields the idle device first in
// placement order.
type deviceHeap struct{ minHeap[int] }

func newDeviceHeap(pos []int) deviceHeap {
	return deviceHeap{minHeap[int]{less: func(a, b int) bool { return pos[a] < pos[b] }}}
}

// remove deletes device d from the heap, wherever it sits — the
// autoscaler and chaos take idle devices out of service, which by the
// loop invariant are always heap members. Returns false when d is not
// in the heap.
func (h *deviceHeap) remove(d int) bool {
	i := slices.Index(h.v, d)
	if i < 0 {
		return false
	}
	h.removeAt(i)
	return true
}

// pop removes and returns the idle device first in placement order, or
// -1 when no device is idle.
func (h *deviceHeap) pop() int {
	if len(h.v) == 0 {
		return -1
	}
	return h.removeAt(0)
}
