package main

import (
	"time"

	"thermostat/internal/addr"
	"thermostat/internal/cache"
	"thermostat/internal/pagetable"
	"thermostat/internal/sim"
	"thermostat/internal/tlb"
)

// replayReps is how many timed passes each component replay makes; each
// reports its median pass.
const replayReps = 5

// sink keeps replay results live so the compiler cannot drop the calls.
var sink uint64

// replayResult is the access-path component replay of one traced op.
type replayResult struct {
	n       int // timed requests: the last quarter of the mapped ones
	warm    int // warming requests: the rest
	dropped int // captured requests whose page was freed before the run ended
	// Median host ns per call, at the captured stream's locality.
	tlbNs, walkNs, cacheNs, accessNs float64
	// footprintNs is one whole-machine footprint scan.
	footprintNs float64
	walks       int
	tlb         tlb.Stats
	llc         cache.Stats
}

// replay runs the captured request window through fresh copies of the
// run's translation and cache structures, and then through the run's own
// machine. Each pass warms on the window's first three quarters untimed and
// times the last quarter, so the timed requests meet the state the requests
// before them left, as in the run. It runs after the op's digest is taken: walks
// set Accessed/Dirty bits and machine accesses advance the finished run's
// counters, neither of which the benchmark reads again.
func replay(m *sim.Machine, window []sim.Req, batched bool) replayResult {
	cfg := m.Config()
	pt := m.PageTable()
	vpid := m.VPID()
	reqs := make([]sim.Req, 0, len(window))
	var frames []addr.Phys
	var levels []pagetable.Level
	var pas []addr.Phys
	for _, r := range window {
		e, lvl, ok := pt.Lookup(r.V)
		if !ok {
			continue
		}
		pa := e.Frame + addr.Phys(r.V.Offset4K())
		if lvl == pagetable.Level2M {
			pa = e.Frame + addr.Phys(r.V.Offset2M())
		}
		reqs = append(reqs, r)
		frames = append(frames, e.Frame)
		levels = append(levels, lvl)
		pas = append(pas, pa)
	}
	warm := len(reqs) * 3 / 4
	out := replayResult{n: len(reqs) - warm, warm: warm, dropped: len(window) - len(reqs)}
	if out.n == 0 {
		return out
	}

	var misses []sim.Req
	tlbPass := func(tl *tlb.TLB, lo, hi int, collect bool) {
		for i := lo; i < hi; i++ {
			r := reqs[i]
			if _, ok := tl.Lookup(r.V, vpid); !ok {
				tl.Insert(r.V, levels[i], frames[i], vpid)
				if collect {
					misses = append(misses, r)
				}
			}
		}
	}
	out.tlbNs = timedReps(out.n, func(rep int) func() {
		tl := tlb.New(cfg.TLB)
		tlbPass(tl, 0, warm, false)
		tl.ResetStats()
		return func() {
			tlbPass(tl, warm, len(reqs), rep == 0)
			if rep == 0 {
				out.tlb = tl.Stats()
			}
		}
	})

	// Walk what the TLB missed; if it missed too little to time, walk
	// every timed request.
	walks := misses
	if len(walks) < 1024 {
		walks = reqs[warm:]
	}
	out.walks = len(walks)
	out.walkNs = timedReps(len(walks), func(int) func() {
		return func() {
			for _, r := range walks {
				if pt.Walk(r.V, r.Write).Found {
					sink++
				}
			}
		}
	})

	cachePass := func(c *cache.Cache, pas []addr.Phys) {
		for _, pa := range pas {
			if c.Access(pa) {
				sink++
			}
		}
	}
	out.cacheNs = timedReps(out.n, func(rep int) func() {
		c := cache.New(cfg.LLC)
		cachePass(c, pas[:warm])
		c.ResetStats()
		return func() {
			cachePass(c, pas[warm:])
			if rep == 0 {
				out.llc = c.Stats()
			}
		}
	})

	// The machine's own access path, per-op or batched as the run used it.
	lats := make([]int64, len(reqs))
	access := func(lo, hi int) {
		if !batched {
			for _, r := range reqs[lo:hi] {
				if _, err := m.Access(r.V, r.Write); err != nil {
					sink++
				}
			}
			return
		}
		for ; lo < hi; lo += 2048 {
			end := min(lo+2048, hi)
			if m.AccessBatch(reqs[lo:end], 0, lats[lo:end], nil) != nil {
				sink++
			}
		}
	}
	out.accessNs = timedReps(out.n, func(int) func() {
		access(0, warm)
		return func() { access(warm, len(reqs)) }
	})

	out.footprintNs = timedReps(1, func(int) func() {
		return func() { sink += sim.ScanFootprint(m, nil).Cold() }
	})
	return out
}

// timedReps runs replayReps passes and returns the median pass's host ns
// per item. setup prepares pass rep untimed and returns the pass to time.
func timedReps(items int, setup func(rep int) func()) float64 {
	per := make([]float64, replayReps)
	for rep := range per {
		pass := setup(rep)
		t0 := time.Now()
		pass()
		per[rep] = float64(time.Since(t0).Nanoseconds()) / float64(items)
	}
	return median(per)
}
