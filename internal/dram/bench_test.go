package dram

import (
	"testing"

	"repro/internal/config"
	"repro/internal/memreq"
	"repro/internal/rng"
)

// BenchmarkDRAMTick measures one FR-FCFS controller cycle with the read
// queue kept full: every Tick is followed by refilling the queue to its
// limit, so each pick scans a full queue. The address ring mixes row
// locality — half the requests walk consecutive lines (row hits), half
// land on random lines of a 64 MB footprint (row misses across banks).
func BenchmarkDRAMTick(b *testing.B) {
	cfg := config.GTX480()
	c := MustNew(cfg.DRAM, cfg.L2.LineBytes)
	line := uint64(cfg.L2.LineBytes)
	const ringSize = 1 << 12
	ring := make([]uint64, ringSize)
	s := rng.NewStream(0xD7A4)
	next := uint64(0)
	for i := range ring {
		if i%2 == 0 {
			next += line
			ring[i] = next
		} else {
			ring[i] = uint64(s.Intn(64<<20/int(line))) * line
		}
	}
	pos := 0
	fill := func(now uint64) {
		for c.Enqueue(memreq.Request{Kind: memreq.Read, Line: ring[pos], App: int16(pos & 1)}, now) {
			pos = (pos + 1) & (ringSize - 1)
		}
	}
	now := uint64(1)
	for ; now < 4096; now++ { // warm up to steady-state slice capacities
		fill(now)
		c.Tick(now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill(now)
		c.Tick(now)
		now++
	}
}
