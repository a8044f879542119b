package gpu

import (
	"repro/internal/cache"
	"repro/internal/dram"
)

// MemStats sums the L1, L2 and DRAM controller counters over every SM
// and memory partition of d, for the external golden tests.
func MemStats(d *Device) (l1, l2 cache.Stats, mc dram.Stats) {
	for _, sm := range d.sms {
		addCache(&l1, sm.L1().Stats())
	}
	for _, p := range d.parts {
		addCache(&l2, p.l2.Stats())
		s := p.mc.Stats()
		mc.Reads += s.Reads
		mc.Writes += s.Writes
		mc.RowHits += s.RowHits
		mc.RowMisses += s.RowMisses
		mc.BusyCycles += s.BusyCycles
	}
	return l1, l2, mc
}

func addCache(dst *cache.Stats, s cache.Stats) {
	dst.Accesses += s.Accesses
	dst.Hits += s.Hits
	dst.Misses += s.Misses
	dst.Merged += s.Merged
	dst.Stalls += s.Stalls
	dst.Fills += s.Fills
	dst.Evicts += s.Evicts
}
