package fleet

import (
	"slices"
	"testing"

	"repro/internal/rng"
)

// checkHeap fails unless h satisfies the heap property and holds exactly
// the multiset ref (sorted).
func checkHeap(t *testing.T, h *minHeap[int], ref []int) {
	t.Helper()
	for i := 1; i < len(h.v); i++ {
		if p := (i - 1) / 2; h.v[i] < h.v[p] {
			t.Fatalf("heap property broken at %d: %d < parent %d (%v)", i, h.v[i], h.v[p], h.v)
		}
	}
	got := slices.Sorted(slices.Values(h.v))
	if !slices.Equal(got, ref) {
		t.Fatalf("heap holds %v, reference %v", got, ref)
	}
}

// TestMinHeapOracle drives minHeap with randomized push, pop and
// removeAt sequences against a sorted-slice reference, including the
// mid-heap removals whose refill must sift up (the path deviceHeap.remove
// takes when chaos or the autoscaler pulls an idle device).
func TestMinHeapOracle(t *testing.T) {
	siftUps := 0
	for trial := uint64(0); trial < 200; trial++ {
		s := rng.NewStream(rng.Hash2(0x4ea9, trial))
		h := &minHeap[int]{less: func(a, b int) bool { return a < b }}
		var ref []int
		for op := 0; op < 300; op++ {
			switch r := s.Intn(10); {
			case r < 5 || len(h.v) == 0:
				x := s.Intn(64)
				h.push(x)
				i, _ := slices.BinarySearch(ref, x)
				ref = slices.Insert(ref, i, x)
			case r < 7:
				if got := h.removeAt(0); got != ref[0] {
					t.Fatalf("trial %d op %d: pop %d, want %d", trial, op, got, ref[0])
				}
				ref = ref[1:]
			default:
				i := s.Intn(len(h.v))
				want, last := h.v[i], h.v[len(h.v)-1]
				if i > 0 && last < h.v[(i-1)/2] {
					siftUps++
				}
				if got := h.removeAt(i); got != want {
					t.Fatalf("trial %d op %d: removeAt(%d) = %d, want %d", trial, op, i, got, want)
				}
				k, _ := slices.BinarySearch(ref, want)
				ref = slices.Delete(ref, k, k+1)
			}
			checkHeap(t, h, ref)
		}
		for len(ref) > 0 {
			if got := h.removeAt(0); got != ref[0] {
				t.Fatalf("trial %d drain: pop %d, want %d", trial, got, ref[0])
			}
			ref = ref[1:]
			checkHeap(t, h, ref)
		}
	}
	if siftUps == 0 {
		t.Fatal("no removal exercised the sift-up refill")
	}
}

// TestDeviceHeapRemove checks that the idle-device heap pops in
// placement order around removals, and that removing a device that is
// not idle reports false and leaves the heap alone.
func TestDeviceHeapRemove(t *testing.T) {
	// Device d sits at placement position pos[d].
	pos := []int{5, 2, 7, 0, 6, 1, 4, 3}
	h := newDeviceHeap(pos)
	for d := range pos {
		h.push(d)
	}
	if h.remove(len(pos)) {
		t.Fatal("removed a device that was never pushed")
	}
	for _, d := range []int{6, 0, 3} {
		if !h.remove(d) {
			t.Fatalf("remove(%d) = false for an idle device", d)
		}
	}
	if h.remove(0) {
		t.Fatal("removed device 0 twice")
	}
	// Remaining devices by position: 5 (1), 1 (2), 7 (3), 4 (6), 2 (7).
	var got []int
	for d := h.pop(); d >= 0; d = h.pop() {
		got = append(got, d)
	}
	if want := []int{5, 1, 7, 4, 2}; !slices.Equal(got, want) {
		t.Fatalf("pop order %v, want %v", got, want)
	}
}
