package dram

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/memreq"
	"repro/internal/rng"
)

// refController is a reference model of Controller written for reading,
// not speed: the queues hold plain requests, and every scheduling
// decision and horizon query rescans them, decoding each request's bank
// and row again. The real controller decodes once at enqueue and keeps
// per-bank queue counts; the oracle test below checks that those
// shortcuts never change an outcome.
type refController struct {
	cfg        config.DRAMConfig
	lineBytes  uint64
	banks      []bank
	reads      []memreq.Request
	writes     []memreq.Request
	writeDrain bool
	inflight   []inflight
	busBusy    uint64
	lastNow    uint64
	stats      Stats
	perApp     map[int16]uint64
}

func newRef(cfg config.DRAMConfig, lineBytes int) *refController {
	return &refController{cfg: cfg, lineBytes: uint64(lineBytes), banks: make([]bank, cfg.Banks), perApp: map[int16]uint64{}}
}

func (r *refController) decode(line uint64) (int, uint64) {
	rowID := line / uint64(r.cfg.RowBytes)
	banks := uint64(r.cfg.Banks)
	row := rowID / banks
	return int((rowID ^ row ^ (row >> 3)) % banks), row
}

func (r *refController) enqueue(req memreq.Request, forced bool) bool {
	if req.Kind == memreq.Write {
		if !forced && len(r.writes) >= 2*r.cfg.QueueSize {
			return false
		}
		r.writes = append(r.writes, req)
		return true
	}
	if !forced && len(r.reads) >= r.cfg.QueueSize {
		return false
	}
	r.reads = append(r.reads, req)
	return true
}

// pick is the FR-FCFS/FCFS rule spelled out: scan the whole queue.
func (r *refController) pick(q []memreq.Request, now uint64) int {
	if len(q) == 0 {
		return -1
	}
	if r.cfg.Sched == config.MemFCFS {
		if b, _ := r.decode(q[0].Line); r.banks[b].busyUntil <= now {
			return 0
		}
		return -1
	}
	for i := range q { // oldest row hit in a ready bank
		b, row := r.decode(q[i].Line)
		if r.banks[b].busyUntil <= now && r.banks[b].hasOpen && r.banks[b].openRow == row {
			return i
		}
	}
	for i := range q { // else the oldest request in a ready bank
		if b, _ := r.decode(q[i].Line); r.banks[b].busyUntil <= now {
			return i
		}
	}
	return -1
}

func (r *refController) serve(q *[]memreq.Request, i int, now uint64) {
	req := (*q)[i]
	*q = append((*q)[:i], (*q)[i+1:]...)
	bi, row := r.decode(req.Line)
	b := &r.banks[bi]
	lat := uint64(r.cfg.RowMissLatency())
	occupancy := lat + uint64(r.cfg.BurstCycles)
	if b.hasOpen && b.openRow == row {
		lat, occupancy = uint64(r.cfg.CASLatency), uint64(r.cfg.BurstCycles)
		r.stats.RowHits++
	} else {
		r.stats.RowMisses++
	}
	b.openRow, b.hasOpen = row, true
	start := max(now+lat, r.busBusy)
	done := start + uint64(r.cfg.BurstCycles)
	r.busBusy = done
	b.busyUntil = now + occupancy
	if done > b.busyUntil {
		b.busyUntil = done - lat + occupancy
	}
	r.inflight = append(r.inflight, inflight{req: req, done: done})
	if req.Kind == memreq.Read {
		r.stats.Reads++
	} else {
		r.stats.Writes++
	}
	if req.App >= 0 {
		r.perApp[req.App] += r.lineBytes
	}
}

func (r *refController) tick(now uint64) []memreq.Request {
	// Bus-busy cycles: count every cycle since the last tick on which a
	// transfer was still under way.
	for t := r.lastNow + 1; t < now; t++ {
		if r.busBusy > t {
			r.stats.BusyCycles++
		}
	}
	r.lastNow = now
	var done []memreq.Request
	for i := 0; i < len(r.inflight); {
		if r.inflight[i].done <= now {
			if r.inflight[i].req.Kind == memreq.Read {
				done = append(done, r.inflight[i].req)
			}
			r.inflight[i] = r.inflight[len(r.inflight)-1]
			r.inflight = r.inflight[:len(r.inflight)-1]
		} else {
			i++
		}
	}
	if r.busBusy > now {
		r.stats.BusyCycles++
	}
	if !r.writeDrain && len(r.writes) >= 3*r.cfg.QueueSize/2 {
		r.writeDrain = true
	}
	if r.writeDrain && len(r.writes) <= r.cfg.QueueSize/4 {
		r.writeDrain = false
	}
	if !r.writeDrain {
		if i := r.pick(r.reads, now); i >= 0 {
			r.serve(&r.reads, i, now)
			return done
		}
	}
	if i := r.pick(r.writes, now); i >= 0 {
		r.serve(&r.writes, i, now)
	} else if r.writeDrain {
		if i := r.pick(r.reads, now); i >= 0 {
			r.serve(&r.reads, i, now)
		}
	}
	return done
}

// nextEvent: the earliest completion, or the earliest cycle at which a
// request the scheduler could pick finds its bank free.
func (r *refController) nextEvent(now uint64) uint64 {
	next := uint64(NoEvent)
	for _, f := range r.inflight {
		next = min(next, max(f.done, now+1))
	}
	for _, q := range [][]memreq.Request{r.reads, r.writes} {
		cands := q
		if r.cfg.Sched == config.MemFCFS && len(q) > 0 {
			cands = q[:1]
		}
		for _, req := range cands {
			b, _ := r.decode(req.Line)
			next = min(next, max(r.banks[b].busyUntil, now+1))
		}
	}
	return next
}

// TestControllerMatchesReference drives the controller and the reference
// with the same random read/write streams — bursts that overflow the
// queues, forced write-backs past the limit, write-drain hysteresis,
// and horizon jumps that skip ticks — and demands identical
// completions, counters, horizons and per-application bytes after every
// tick.
func TestControllerMatchesReference(t *testing.T) {
	gtx := config.GTX480().DRAM
	var total coverage
	for _, sched := range []config.MemSchedPolicy{config.MemFRFCFS, config.MemFCFS} {
		for ci, cfg := range []config.DRAMConfig{testCfg(), gtx} {
			cfg.Sched = sched
			for seed := uint64(1); seed <= 6; seed++ {
				t.Run(fmt.Sprintf("sched%d/cfg%d/seed%d", sched, ci, seed), func(t *testing.T) {
					cov := compareWithRef(t, cfg, seed)
					total.refused += cov.refused
					total.drains += cov.drains
					total.overLimit += cov.overLimit
					total.skips += cov.skips
				})
			}
		}
	}
	t.Logf("coverage over all streams: %+v", total)
	if total.refused == 0 || total.drains == 0 || total.overLimit == 0 || total.skips == 0 {
		t.Fatalf("streams too narrow to exercise every path: %+v", total)
	}
}

// coverage counts how often a stream hit the paths the oracle test
// exists for: refused enqueues, write-drain phases, cycles with forced
// write-backs past the queue limit, and horizon jumps.
type coverage struct{ refused, drains, overLimit, skips int }

func compareWithRef(t *testing.T, cfg config.DRAMConfig, seed uint64) coverage {
	const lineBytes = 128
	c := MustNew(cfg, lineBytes)
	ref := newRef(cfg, lineBytes)
	s := rng.NewStream(seed)
	// A few streams with their own cursors give row locality; the rest
	// of the traffic is scattered over a small footprint so banks and
	// rows collide often.
	cursors := []uint64{0, 1 << 20, 7 << 20}
	lineFor := func() uint64 {
		if s.Intn(2) == 0 {
			i := s.Intn(len(cursors))
			cursors[i] += lineBytes
			return cursors[i]
		}
		return uint64(s.Intn(1<<14)) * lineBytes
	}
	now := uint64(1)
	var cov coverage
	for step := 0; step < 6000; step++ {
		// Bursty offered load: quiet phases let the queues drain, so
		// the write buffer crosses both hysteresis watermarks.
		burst := 0
		if (step/250)%2 == 0 {
			burst = s.Intn(4)
		} else if s.Intn(16) == 0 {
			burst = 1
		}
		for k := 0; k < burst; k++ {
			kind := memreq.Read
			if s.Intn(3) == 0 {
				kind = memreq.Write
			}
			req := memreq.Request{Kind: kind, Line: lineFor(), App: int16(s.Intn(4)) - 1, SM: int32(step), Warp: int32(k)}
			if kind == memreq.Write && s.Intn(8) == 0 {
				c.EnqueueForced(req, now)
				ref.enqueue(req, true)
				continue
			}
			got, want := c.Enqueue(req, now), ref.enqueue(req, false)
			if got != want {
				t.Fatalf("cycle %d: Enqueue = %v, reference %v", now, got, want)
			}
			if !got {
				cov.refused++
			}
		}
		if got, want := c.NextEvent(now-1), ref.nextEvent(now-1); got != want {
			t.Fatalf("cycle %d: NextEvent = %d, reference %d", now-1, got, want)
		}
		if len(ref.writes) > 2*cfg.QueueSize {
			cov.overLimit++
		}
		draining := ref.writeDrain
		got := append([]memreq.Request(nil), c.Tick(now)...)
		want := ref.tick(now)
		if ref.writeDrain && !draining {
			cov.drains++
		}
		if len(got) != 0 || len(want) != 0 {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cycle %d: completed %v, reference %v", now, got, want)
			}
		}
		if c.Stats() != ref.stats {
			t.Fatalf("cycle %d: stats %+v, reference %+v", now, c.Stats(), ref.stats)
		}
		if c.Pending() != len(ref.reads)+len(ref.writes)+len(ref.inflight) || c.QueueLen() != len(ref.reads)+len(ref.writes) {
			t.Fatalf("cycle %d: pending %d queued %d, reference %d/%d", now, c.Pending(), c.QueueLen(),
				len(ref.reads)+len(ref.writes)+len(ref.inflight), len(ref.reads)+len(ref.writes))
		}
		for app := int16(-1); app < 3; app++ {
			want := uint64(0)
			if app >= 0 {
				want = ref.perApp[app]
			}
			if got := c.AppBytes(app); got != want {
				t.Fatalf("cycle %d: app %d bytes %d, reference %d", now, app, got, want)
			}
		}
		// Sometimes jump straight to the horizon, as the device's
		// fast-forward does: the skipped ticks must be no-ops.
		next := now + 1
		if s.Intn(3) == 0 {
			if h := c.NextEvent(now); h != NoEvent && h > next {
				next = h
				cov.skips++
			}
		}
		now = next
	}
	if ref.stats.RowHits == 0 || ref.stats.RowMisses == 0 {
		t.Fatalf("stream never mixed row hits and misses: %+v", ref.stats)
	}
	return cov
}
