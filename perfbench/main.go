// Command perfbench is the simulator's benchmark. It runs one named workload
// for a given number of host seconds and prints, as its last line, one JSON
// object with the run's correctness verdict and metrics: end-to-end metrics
// by default, per-layer metrics from a traced run with -trace 1.
//
//	bash perfbench/run.sh --workload redis-tiny --seed 1 --seconds 8 --trace 0
//
// See RATIONALE.md for the workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed choosing the order the panel's simulations run in")
	seconds := flag.Int("seconds", 8, "host seconds to measure for (whole panel passes)")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	pinPath := flag.String("pin", "", "re-pin every workload's panel digests into this file and exit")
	flag.Parse()

	if *pinPath != "" {
		if err := pin(*pinPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var def *workloadDef
	for _, w := range workloads() {
		if w.name == *name {
			def = &w
		}
	}
	if def == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	digests, err := pinned()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if len(digests[def.name]) != def.panel {
		fmt.Fprintf(os.Stderr, "perfbench: digests.json has %d digests for %s, want %d\n",
			len(digests[def.name]), def.name, def.panel)
		return 1
	}
	b, err := json.Marshal(provenance(def.name, *seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("provenance %s\n", b)

	s := &session{def: def, pinned: digests[def.name], seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	var res result
	if *trace == 1 {
		res, err = s.traced()
	} else {
		res, err = s.timed()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func workloadNames() []string {
	var n []string
	for _, w := range workloads() {
		n = append(n, w.name)
	}
	return n
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// session runs one invocation's ops and checks each against its pin.
type session struct {
	def       *workloadDef
	pinned    []Digest
	seed      int64
	seconds   time.Duration
	attempted int
	failed    int
}

// order is the panel's simulation seeds in the order this invocation runs
// them: a rotation chosen by -seed.
func (s *session) order() []uint64 {
	k := int64(s.def.panel)
	off := ((s.seed % k) + k) % k
	seeds := make([]uint64, k)
	for i := range seeds {
		seeds[i] = uint64((off+int64(i))%k) + 1
	}
	return seeds
}

// hostCost is an op's Go heap activity.
type hostCost struct {
	allocBytes uint64
	// gcCycles counts collections during the op; gcPauseNs also includes
	// the collection that reclaims the op's garbage right after it.
	gcCycles  uint32
	gcPauseNs uint64
}

// op runs one op between two full collections, so every op starts from the
// same heap, and checks its digest. It returns nil for a failed op.
func (s *session) op(seed uint64, tr *tracer) (*opResult, hostCost) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := s.def.run(seed, tr, 0)
	runtime.GC()
	runtime.ReadMemStats(&after)
	s.attempted++
	switch {
	case err != nil:
		fmt.Printf("FAIL %s seed %d: %v\n", s.def.name, seed, err)
	case r.digest != s.pinned[seed-1]:
		fmt.Printf("FAIL %s seed %d: digest %+v, pinned %+v\n", s.def.name, seed, r.digest, s.pinned[seed-1])
	default:
		return r, hostCost{
			allocBytes: after.TotalAlloc - before.TotalAlloc,
			gcCycles:   after.NumGC - before.NumGC - 1,
			gcPauseNs:  after.PauseTotalNs - before.PauseTotalNs,
		}
	}
	s.failed++
	return nil, hostCost{}
}

// passes runs whole panel passes until the measuring time is spent.
func (s *session) passes(each func(seed uint64)) {
	start := time.Now()
	for time.Since(start) < s.seconds {
		for _, seed := range s.order() {
			each(seed)
		}
	}
}

// setups measures set-up on its own: ops stopped after their first access,
// cycling the panel until setupBudget has passed and at least minSetups
// have run. Set-up is short, so it gets many samples. A 64 MiB ballast,
// allocated but never touched, raises the collector's heap goal so the
// scavenger keeps the previous set-up's freed pages resident: otherwise
// whether a set-up faults fresh pages in from the OS decides its time
// (bimodally, 1.6 or 2.6 ms on scan-dense-16g, against 0.75 ms without
// faults).
func (s *session) setups() ([]float64, error) {
	const minSetups, setupBudget = 10, time.Second
	ballast := make([]byte, 64<<20)
	defer runtime.KeepAlive(ballast)
	var v []float64
	start := time.Now()
	for len(v) < minSetups || time.Since(start) < setupBudget {
		for _, seed := range s.order() {
			runtime.GC()
			r, err := s.def.run(seed, nil, 1)
			if err != nil {
				return nil, fmt.Errorf("set-up seed %d: %w", seed, err)
			}
			v = append(v, r.setupCPU())
		}
	}
	return v, nil
}

// timed is the untraced run: the end-to-end metrics. Host metrics are
// medians over every op; simulated metrics are means over the panel.
func (s *session) timed() (result, error) {
	setup, err := s.setups()
	if err != nil {
		return result{}, err
	}
	base := map[uint64]float64{}
	if s.def.baseline != nil {
		for _, seed := range s.order() {
			thr, err := s.def.baseline(seed)
			if err != nil {
				return result{}, fmt.Errorf("all-DRAM baseline seed %d: %w", seed, err)
			}
			base[seed] = thr
		}
	}
	var aps, alloc []float64
	panel := map[uint64]*opResult{}
	s.passes(func(seed uint64) {
		r, cost := s.op(seed, nil)
		if r == nil {
			return
		}
		aps = append(aps, r.accessesPerSec())
		alloc = append(alloc, float64(cost.allocBytes)/(1<<20))
		if panel[seed] == nil {
			panel[seed] = r
		}
		fmt.Printf("op %s seed %d: %.0f accesses/CPU-s (%.0f /wall-s), loop %.3f CPU-s (%.3f wall-s), alloc %.1f MiB\n",
			s.def.name, seed, r.accessesPerSec(), r.wallAccessesPerSec(), r.loopCPU(),
			float64(r.loopNs())/1e9, float64(cost.allocBytes)/(1<<20))
	})
	var state, cold, slow []float64
	for seed, r := range panel {
		state = append(state, float64(r.stateBytes())/1024)
		cold = append(cold, 100*r.coldFrac)
		sd := r.slowdownPct
		if math.IsNaN(sd) {
			sd = 100 * (base[seed]/r.throughput - 1)
		}
		slow = append(slow, sd)
	}
	fmt.Printf("ops %d (%d failed), panel of %d simulation seeds, %d set-ups\n",
		s.attempted, s.failed, s.def.panel, len(setup))
	return s.result(map[string]metric{
		"accesses_per_s": {median(aps), "1/s"},
		"setup_s":        {median(setup), "s"},
		"alloc_mb":       {median(alloc), "MiB"},
		"state_kb":       {mean(state), "KiB"},
		"cold_frac_pct":  {mean(cold), "%"},
		"slowdown_pct":   {mean(slow), "%"},
	}), nil
}

// traced runs each panel seed untraced and then traced, requires the two
// digests to agree, and reports per-layer metrics as medians over the
// traced ops.
func (s *session) traced() (result, error) {
	var plainAPS, tracedAPS []float64
	layers := map[string][]float64{}
	units := map[string]string{}
	s.passes(func(seed uint64) {
		plain, _ := s.op(seed, nil)
		if plain == nil {
			return
		}
		// Only the rate outlives the untraced op, so its machine is
		// garbage before the traced op runs.
		aps := plain.accessesPerSec()
		tr := newTracer()
		r, cost := s.op(seed, tr)
		if r == nil {
			return
		}
		plainAPS = append(plainAPS, aps)
		tracedAPS = append(tracedAPS, r.accessesPerSec())
		for k, m := range layerMetrics(s.def.name, seed, r, tr, cost) {
			layers[k] = append(layers[k], m.Value)
			units[k] = m.Unit
		}
	})
	out := map[string]metric{}
	for k, v := range layers {
		out[k] = metric{median(v), units[k]}
	}
	if len(plainAPS) > 0 {
		oh := 100 * (median(plainAPS)/median(tracedAPS) - 1)
		out["trace.overhead_pct"] = metric{oh, "%"}
		fmt.Printf("tracing overhead: untraced %.0f vs traced %.0f accesses/s (%.1f%%)\n",
			median(plainAPS), median(tracedAPS), oh)
	}
	return s.result(out), nil
}

func (s *session) result(m map[string]metric) result {
	return result{Correct: s.failed == 0 && s.attempted > 0, Attempted: s.attempted, Failed: s.failed, Metrics: m}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
