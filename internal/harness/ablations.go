package harness

import (
	"fmt"
	"math"
	"sort"

	"thermostat/internal/addr"
	"thermostat/internal/cgroup"
	"thermostat/internal/core"
	"thermostat/internal/counter"
	"thermostat/internal/pool"
	"thermostat/internal/report"
	"thermostat/internal/sim"
	"thermostat/internal/workload"
)

// AblationRow is one configuration's outcome in a design-choice sweep.
type AblationRow struct {
	Config       string
	ColdFraction float64
	Slowdown     float64
	PoisonFaults uint64
	Promotions   uint64
}

func ablationTable(title string, rows []AblationRow) *report.Table {
	t := report.NewTable(title,
		"config", "cold_fraction_pct", "slowdown_pct", "poison_faults", "corrections")
	for _, r := range rows {
		t.AddF(r.Config, r.ColdFraction*100, r.Slowdown*100, r.PoisonFaults, r.Promotions)
	}
	return t
}

// ablationArm is one configuration of a design-choice sweep.
type ablationArm struct {
	config    string
	cfgMutate func(*sim.Config)
	engMutate func(*cgroup.Group, *core.Engine)
}

// runAblationGrid runs the sweep's all-DRAM reference plus every arm as one
// pooled grid: the arms are independent Thermostat runs, so they fan out
// across opt.Workers goroutines, and the rows merge back in arm order. Row
// assembly (which needs the shared baseline) happens after the barrier.
func runAblationGrid(title string, spec workload.Spec, opt Options, arms []ablationArm) ([]AblationRow, *report.Table, error) {
	sc := opt.Scale
	tasks := make([]pool.Task[*Outcome], 0, len(arms)+1)
	tasks = append(tasks, pool.Task[*Outcome]{
		Label: title + "/baseline",
		Run:   func() (*Outcome, error) { return RunBaseline(spec, sc) },
	})
	for _, arm := range arms {
		arm := arm
		tasks = append(tasks, pool.Task[*Outcome]{
			Label: title + "/" + arm.config,
			Run: func() (*Outcome, error) {
				return Run(RunSpec{Spec: spec, Scale: sc, PolicyName: "thermostat", SlowdownPct: 3,
					ConfigHook: arm.cfgMutate, EngineHook: arm.engMutate})
			},
		})
	}
	outs, err := pool.Map(opt.Workers, tasks)
	if err != nil {
		return nil, nil, err
	}
	base := outs[0]
	rows := make([]AblationRow, len(arms))
	for i, arm := range arms {
		out := outs[i+1]
		rows[i] = AblationRow{
			Config:       arm.config,
			ColdFraction: out.Result.MeanColdFraction(sc.WarmupNs),
			Slowdown:     sim.Slowdown(base.Result, out.Result),
			PoisonFaults: out.Result.Metrics.PoisonFaults,
			Promotions:   out.Engine.Stats().Promotions,
		}
	}
	return rows, ablationTable(title, rows), nil
}

// AblationPoisonBudget sweeps K, the per-huge-page poison budget (§3.2's
// "at most 50"): small K is cheap but noisy, large K costs more faults for
// little extra accuracy.
func AblationPoisonBudget(spec workload.Spec, opt Options) ([]AblationRow, *report.Table, error) {
	opt = opt.withDefaults()
	var arms []ablationArm
	for _, k := range []int{10, 25, 50, 100} {
		k := k
		arms = append(arms, ablationArm{
			config: fmt.Sprintf("K=%d", k),
			engMutate: func(g *cgroup.Group, _ *core.Engine) {
				p := g.Params()
				p.MaxPoisonPerHuge = k
				if err := g.Update(p); err != nil {
					panic(err)
				}
			},
		})
	}
	return runAblationGrid(
		"Ablation: poison budget K per sampled huge page ("+spec.Name+")", spec, opt, arms)
}

// AblationSampleFraction sweeps the fraction of huge pages sampled per
// interval (§3.2's 5%): more sampling reacts faster but costs more splits
// and faults.
func AblationSampleFraction(spec workload.Spec, opt Options) ([]AblationRow, *report.Table, error) {
	opt = opt.withDefaults()
	var arms []ablationArm
	for _, f := range []float64{0.01, 0.05, 0.20} {
		f := f
		arms = append(arms, ablationArm{
			config: fmt.Sprintf("f=%.0f%%", f*100),
			engMutate: func(g *cgroup.Group, _ *core.Engine) {
				p := g.Params()
				p.SampleFraction = f
				if err := g.Update(p); err != nil {
					panic(err)
				}
			},
		})
	}
	return runAblationGrid(
		"Ablation: sample fraction per scan interval ("+spec.Name+")", spec, opt, arms)
}

// AblationPrefilter compares the §3.2 two-step refinement (poison only
// accessed children) against naive uniform child selection.
func AblationPrefilter(spec workload.Spec, opt Options) ([]AblationRow, *report.Table, error) {
	opt = opt.withDefaults()
	var arms []ablationArm
	for _, on := range []bool{true, false} {
		on := on
		config := "accessed-bit prefilter"
		if !on {
			config = "uniform children (naive)"
		}
		arms = append(arms, ablationArm{
			config:    config,
			engMutate: func(_ *cgroup.Group, e *core.Engine) { e.SetPrefilter(on) },
		})
	}
	return runAblationGrid(
		"Ablation: Accessed-bit pre-filter before poisoning ("+spec.Name+")", spec, opt, arms)
}

// rotatorSpec is a working-set-change workload: two equal regions swap hot
// and cold roles periodically, so yesterday's cold pages become today's
// working set.
func rotatorSpec(periodNs int64) workload.Spec {
	return workload.Spec{
		Name:      "rotator",
		ComputeNs: 2500,
		Segments: []workload.SegmentSpec{
			{Name: "a", Bytes: 4 << 30, Weight: 0.999, Picker: workload.Uniform{}, WriteFrac: 0.1},
			{Name: "b", Bytes: 4 << 30, Weight: 0.001, Picker: workload.Uniform{}},
		},
		Rotate: &workload.RotateSpec{PeriodNs: periodNs, SegmentA: "a", SegmentB: "b"},
	}
}

// AblationCorrection shows what the §3.5 corrector is worth: under a
// rotating working set, disabling it leaves newly-hot pages stranded in
// slow memory and the slowdown blows through the target.
func AblationCorrection(opt Options) ([]AblationRow, *report.Table, error) {
	opt = opt.withDefaults()
	// Rotate every third of the run (period expressed directly in
	// simulated time; rotation is not compressed like growth is).
	spec := rotatorSpec(opt.Scale.DurationNs / 3)

	var arms []ablationArm
	for _, on := range []bool{true, false} {
		on := on
		config := "corrector on"
		if !on {
			config = "corrector off"
		}
		arms = append(arms, ablationArm{
			config:    config,
			engMutate: func(_ *cgroup.Group, e *core.Engine) { e.SetCorrection(on) },
		})
	}
	return runAblationGrid(
		"Ablation: §3.5 mis-classification correction under working-set rotation", spec, opt, arms)
}

// AblationTrapPlacement compares BadgerTrap in the guest (the paper's
// choice) against the host, where every poison fault costs a vmexit (§4.2).
func AblationTrapPlacement(spec workload.Spec, opt Options) ([]AblationRow, *report.Table, error) {
	opt = opt.withDefaults()
	var arms []ablationArm
	for _, inHost := range []bool{false, true} {
		inHost := inHost
		config := "trap in guest"
		if inHost {
			config = "trap in host (vmexit per fault)"
		}
		arms = append(arms, ablationArm{
			config:    config,
			cfgMutate: func(cfg *sim.Config) { cfg.VM.TrapInHost = inHost },
		})
	}
	return runAblationGrid(
		"Ablation: BadgerTrap placement ("+spec.Name+")", spec, opt, arms)
}

// AblationSlowMemMode compares the paper's fault-based slow-memory
// emulation against a device-latency model of real slow memory.
func AblationSlowMemMode(spec workload.Spec, opt Options) ([]AblationRow, *report.Table, error) {
	opt = opt.withDefaults()
	var arms []ablationArm
	for _, mode := range []sim.SlowMemMode{sim.EmulatedFault, sim.Device} {
		mode := mode
		arms = append(arms, ablationArm{
			config:    mode.String(),
			cfgMutate: func(cfg *sim.Config) { cfg.Mode = mode },
		})
	}
	return runAblationGrid(
		"Ablation: slow-memory model ("+spec.Name+")", spec, opt, arms)
}

// CounterRow compares one §6.1 access-counting backend against ground
// truth.
type CounterRow struct {
	Backend string
	// MeanRelErr is the mean relative error of per-page count estimates
	// against true LLC misses, over pages with non-trivial traffic.
	MeanRelErr float64
	// Slowdown is the measured overhead of the counting mechanism itself.
	Slowdown float64
}

// AblationCounters runs the §6.1 head-to-head: BadgerTrap (TLB-miss proxy,
// ~1us/event) vs the proposed CM-bit (exact, cheap) vs PEBS sampling
// (cheap, resolution-limited).
func AblationCounters(opt Options) ([]CounterRow, *report.Table, error) {
	opt = opt.withDefaults()
	spec := workload.Redis()
	sc := opt.Scale

	type setup struct {
		name string
		mk   func(m *sim.Machine) counter.Backend
	}
	setups := []setup{
		{"badgertrap", func(m *sim.Machine) counter.Backend { return counter.NewBadgerTrap(m) }},
		{"cm-bit", func(m *sim.Machine) counter.Backend { return counter.NewCMBit(m) }},
		{"pebs", func(m *sim.Machine) counter.Backend { return counter.NewPEBS(m, 0) }},
	}

	run := func(mk func(m *sim.Machine) counter.Backend) (float64, float64, error) {
		m, err := sim.New(sc.MachineConfig(spec, true))
		if err != nil {
			return 0, 0, err
		}
		m.EnablePageCounts()
		app, err := sc.NewApp(spec, sc.Seed)
		if err != nil {
			return 0, 0, err
		}
		if err := app.Init(m); err != nil {
			return 0, 0, err
		}
		// Arm every 8th huge page of the keyspace.
		var armed []addr.Virt
		var b counter.Backend
		if mk != nil {
			b = mk(m)
			ks := app.SegmentRegions("keyspace")[0]
			i := 0
			ks.Each2M(func(base addr.Virt) {
				if i%8 == 0 {
					if err := b.Arm(base); err != nil {
						panic(err)
					}
					armed = append(armed, base)
				}
				i++
			})
		}
		start := m.Clock()
		var ops uint64
		for m.Clock()-start < sc.DurationNs/3 {
			v, w := app.Next()
			if _, err := m.Access(v, w); err != nil {
				return 0, 0, err
			}
			m.AdvanceClock(app.ComputeNs())
			ops++
		}
		thr := float64(ops) * 1e9 / float64(m.Clock()-start)
		if b == nil {
			return 0, thr, nil
		}
		// Accuracy vs ground truth on armed pages with real traffic.
		truth := m.PageCounts()
		var errs []float64
		for _, base := range armed {
			tr := float64(truth[base])
			if tr < 50 {
				continue // too little traffic for a meaningful ratio
			}
			est := float64(b.Count(base))
			errs = append(errs, math.Abs(est-tr)/tr)
		}
		sort.Float64s(errs)
		mean := 0.0
		for _, e := range errs {
			mean += e
		}
		if len(errs) > 0 {
			mean /= float64(len(errs))
		}
		return mean, thr, nil
	}

	// The uninstrumented reference and the three backends are independent
	// measurement runs; fan all four out and assemble rows after the merge.
	type measurement struct{ relErr, thr float64 }
	tasks := []pool.Task[measurement]{{
		Label: "ablation-counters/baseline",
		Run: func() (measurement, error) {
			_, thr, err := run(nil)
			return measurement{thr: thr}, err
		},
	}}
	for _, s := range setups {
		s := s
		tasks = append(tasks, pool.Task[measurement]{
			Label: "ablation-counters/" + s.name,
			Run: func() (measurement, error) {
				relErr, thr, err := run(s.mk)
				if err != nil {
					return measurement{}, fmt.Errorf("counters %s: %w", s.name, err)
				}
				return measurement{relErr: relErr, thr: thr}, nil
			},
		})
	}
	ms, err := pool.Map(opt.Workers, tasks)
	if err != nil {
		return nil, nil, err
	}
	baseThr := ms[0].thr
	var rows []CounterRow
	for i, s := range setups {
		rows = append(rows, CounterRow{
			Backend:    s.name,
			MeanRelErr: ms[i+1].relErr,
			Slowdown:   baseThr/ms[i+1].thr - 1,
		})
	}
	t := report.NewTable("Ablation: §6.1 access-counting mechanisms (redis, 1/8 of pages armed)",
		"backend", "mean_rel_error", "overhead_pct")
	for _, r := range rows {
		t.AddF(r.Backend, r.MeanRelErr, r.Slowdown*100)
	}
	return rows, t, nil
}
