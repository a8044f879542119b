package cache

import (
	"testing"

	"repro/internal/config"
	"repro/internal/rng"
)

// probeState is everything a capacity pre-check can read from a cache
// for one probe set: per line, whether it needs a new MSHR and whether
// it can merge, plus the free MSHR count.
type probeState struct {
	miss, merge []bool
	free        int
}

func snapshot(c *Cache, lines []uint64) probeState {
	s := probeState{miss: make([]bool, len(lines)), merge: make([]bool, len(lines)), free: c.MSHRFree()}
	for i, ln := range lines {
		s.miss[i] = c.ProbeMiss(ln)
		s.merge[i] = c.CanMerge(ln)
	}
	return s
}

func (s probeState) equal(o probeState) bool {
	if s.free != o.free {
		return false
	}
	for i := range s.miss {
		if s.miss[i] != o.miss[i] || s.merge[i] != o.merge[i] {
			return false
		}
	}
	return true
}

// TestMutationCounterCoversProbes is the soundness property behind the
// SM's replay memo: over random Access/Fill/InvalidateAll/MarkDirty
// sequences, whenever ProbeMiss, CanMerge or MSHRFree changes for any
// line of the probe set, Mutations must have changed too.
func TestMutationCounterCoversProbes(t *testing.T) {
	for ci, cfg := range []config.CacheConfig{testConfig(), writeBackConfig()} {
		for seed := uint64(1); seed <= 20; seed++ {
			c := MustNew(cfg)
			s := rng.NewStream(seed*31 + uint64(ci))
			// A universe a few times the cache's capacity, so sets
			// conflict, MSHRs fill up and merge slots run out.
			universe := make([]uint64, 3*cfg.SizeBytes/cfg.LineBytes)
			for i := range universe {
				universe[i] = lineAt(i)
			}
			before := snapshot(c, universe)
			changes := 0
			for step := 0; step < 3000; step++ {
				mut := c.Mutations()
				ln := universe[s.Intn(len(universe))]
				op := s.Intn(20)
				switch {
				case op < 12:
					c.Access(ln, op < 3, uint64(step), int16(s.Intn(3)))
				case op < 18:
					c.Fill(ln, int16(s.Intn(3)), op == 17)
				case op < 19:
					c.MarkDirty(ln, 1)
				default:
					c.InvalidateAll()
				}
				after := snapshot(c, universe)
				if !after.equal(before) {
					changes++
					if c.Mutations() == mut {
						t.Fatalf("config %d seed %d step %d (op %d, line %#x): probe state changed but Mutations stayed %d",
							ci, seed, step, op, ln, mut)
					}
				}
				before = after
			}
			if changes == 0 {
				t.Fatalf("config %d seed %d: the sequence never changed the probe state", ci, seed)
			}
		}
	}
}
