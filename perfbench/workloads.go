package main

import (
	"fmt"
	"math"
	"time"

	"thermostat/internal/cgroup"
	"thermostat/internal/core"
	"thermostat/internal/fleet"
	"thermostat/internal/harness"
	"thermostat/internal/sim"
	"thermostat/internal/workload"
)

// slowdownTargetPct is the tolerable slowdown every Thermostat engine in
// the benchmark runs with (the paper's headline 3%).
const slowdownTargetPct = 3

// engineSeedDelta offsets the engine's rng stream from the app's, exactly as
// the harness entry points seed it.
const engineSeedDelta = 0x7e

// workloadDef is one named benchmark workload. An op is one whole seeded
// simulation; a pass runs the op once for each of the panel's simulation
// seeds 1..panel, whose digests are pinned in digests.json.
type workloadDef struct {
	name  string
	panel int
	// run executes one op at simulation seed seed, traced when tr != nil;
	// maxOps > 0 stops it after that many accesses (0 runs it whole).
	run func(seed uint64, tr *tracer, maxOps uint64) (*opResult, error)
	// baseline returns the all-DRAM throughput the op's slowdown is taken
	// against; nil when the op reports its slowdown itself (the fleet).
	baseline func(seed uint64) (float64, error)
	// reference runs seed through the harness entry point the workload
	// mirrors and returns the fields it exposes, for -pin.
	reference func(seed uint64) (reference, error)
}

// opResult is what one op reports to the benchmark.
type opResult struct {
	digest Digest
	// start, first and end bracket the op in wall time, and the cpu fields
	// in process CPU time: first is when the first access was generated,
	// so first-start is set-up (sim.New, App.Init, Policy.Attach) and
	// end-first the simulation loop.
	start, first, end          time.Time
	startCPU, firstCPU, endCPU time.Duration
	machine                    *sim.Machine
	metrics                    sim.Metrics
	stats                      core.Stats
	engineState                uint64
	coldFrac                   float64
	// throughput is post-warmup simulated ops per virtual second.
	throughput float64
	// slowdownPct is the op's own slowdown figure, when it has one
	// (the fleet's worst resident tenant); NaN otherwise.
	slowdownPct float64
	windows     int
	periods     uint64
	rejected    int
}

func (r *opResult) setupNs() int64 { return r.first.Sub(r.start).Nanoseconds() }
func (r *opResult) loopNs() int64  { return r.end.Sub(r.first).Nanoseconds() }

// setupCPU and loopCPU are set-up and loop in host CPU seconds.
func (r *opResult) setupCPU() float64 { return (r.firstCPU - r.startCPU).Seconds() }
func (r *opResult) loopCPU() float64  { return (r.endCPU - r.firstCPU).Seconds() }

// stateBytes is the simulator state the scaling benchmark counts: machine
// plus engine metadata.
func (r *opResult) stateBytes() uint64 { return r.machine.StateBytes() + r.engineState }

// accessesPerSec is simulated accesses per host CPU second of the loop.
func (r *opResult) accessesPerSec() float64 {
	return float64(r.metrics.Accesses) / r.loopCPU()
}

// wallAccessesPerSec is the same over wall time.
func (r *opResult) wallAccessesPerSec() float64 {
	return float64(r.metrics.Accesses) / (float64(r.loopNs()) / 1e9)
}

// reference is what a harness entry point exposes about a run, compared
// field by field against the benchmark's own assembly when pinning.
type reference struct {
	digest *Digest // nil when the entry point returns only the fields below
	ops    uint64
	state  uint64
	// regions and spans are the page table's, -1 when not exposed.
	regions, spans int
}

func workloads() []workloadDef {
	return []workloadDef{
		singleWorkload("redis-tiny", 4, workload.Redis(), harness.Tiny(), 1, nil),
		singleWorkload("scan-dense-16g", 2, scaleSpec(16<<30), harness.ScaleBenchProfile(), 1,
			func(seed uint64) (reference, error) { return scalePointRef(seed, 16<<30, false, 1) }),
		singleWorkload("sparse-1t", 4, scaleSpec(1<<40), sparse(harness.ScaleBenchProfile()), 2,
			func(seed uint64) (reference, error) { return scalePointRef(seed, 1<<40, true, 2) }),
		{name: "fleet-night", panel: 5, run: runFleet, reference: fleetRef},
	}
}

func sparse(sc harness.Scale) harness.Scale {
	sc.Sparse = true
	return sc
}

// singleWorkload is a one-app, one-engine run assembled as
// harness.RunThermostat assembles it. ref defaults to RunThermostat itself.
func singleWorkload(name string, panel int, spec workload.Spec, sc harness.Scale, shards int,
	ref func(uint64) (reference, error)) workloadDef {
	sc.ShardWorkers = shards
	at := func(seed uint64) harness.Scale {
		s := sc
		s.Seed = seed
		return s
	}
	if ref == nil {
		ref = func(seed uint64) (reference, error) {
			out, err := harness.RunThermostat(spec, at(seed), slowdownTargetPct)
			if err != nil {
				return reference{}, err
			}
			d := digestOf(out.Result, out.Engine.Stats())
			return reference{digest: &d, regions: -1, spans: -1}, nil
		}
	}
	return workloadDef{
		name:  name,
		panel: panel,
		run: func(seed uint64, tr *tracer, maxOps uint64) (*opResult, error) {
			return runSingle(spec, at(seed), tr, maxOps)
		},
		baseline: func(seed uint64) (float64, error) {
			out, err := harness.RunBaseline(spec, at(seed))
			if err != nil {
				return 0, err
			}
			return out.Result.Throughput, nil
		},
		reference: ref,
	}
}

// runSingle is harness.RunThermostat with the app and policy behind the
// benchmark's wrappers: untraced, they only stamp the first generated
// access; traced, the engine is composed from timing wrappers around the
// same poison tracker and threshold policy NewEngine builds.
func runSingle(spec workload.Spec, sc harness.Scale, tr *tracer, maxOps uint64) (*opResult, error) {
	start, startCPU := time.Now(), cpuNow()
	m, err := sim.New(sc.MachineConfig(spec, true))
	if err != nil {
		return nil, err
	}
	app, err := sc.NewApp(spec, sc.Seed)
	if err != nil {
		return nil, err
	}
	g, err := sc.Group(slowdownTargetPct)
	if err != nil {
		return nil, err
	}
	a := &benchApp{App: app, tr: tr}
	var eng *core.Engine
	var pol sim.Policy
	if tr == nil {
		eng = core.NewEngine(g, sc.Seed+engineSeedDelta)
		pol = eng
	} else {
		eng = tracedEngine(g, sc.Seed+engineSeedDelta, tr)
		pol = &tracedSimPolicy{Engine: eng, tr: tr}
	}
	if sc.ShardWorkers > 1 {
		eng.SetSharding(sc.ShardWorkers, sc.ShardWorkers)
	}
	res, err := sim.Run(m, a, pol, sim.RunConfig{
		DurationNs: sc.DurationNs, WarmupNs: sc.WarmupNs, WindowNs: sc.PeriodNs, MaxOps: maxOps,
	})
	end, endCPU := time.Now(), cpuNow()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	st := eng.Stats()
	return &opResult{
		digest: digestOf(res, st), start: start, first: a.first, end: end,
		startCPU: startCPU, firstCPU: a.firstCPU, endCPU: endCPU, machine: m, metrics: res.Metrics, stats: st, engineState: eng.StateBytes(),
		coldFrac: res.MeanColdFraction(sc.WarmupNs), throughput: res.Throughput,
		slowdownPct: math.NaN(), windows: len(res.Cold2M.Values),
	}, nil
}

func tracedEngine(g *cgroup.Group, seed uint64, tr *tracer) *core.Engine {
	return core.Compose(g,
		&tracedTracker{PoisonTracker: core.NewPoisonTracker(g, seed), tr: tr},
		&tracedPolicy{ThresholdPolicy: core.NewThresholdPolicy(), tr: tr})
}

// scaleSpec is the scaling sweep's workload at footprint bytes: the 1 GiB
// synthetic spec with only its cold reserve stretched (as the harness's
// RunScalePoint builds it; -pin checks the two agree).
func scaleSpec(footprint uint64) workload.Spec {
	spec := workload.ScaleSynthetic()
	var rest uint64
	cold := -1
	for i := range spec.Segments {
		if spec.Segments[i].Name == "cold" {
			cold = i
		} else {
			rest += spec.Segments[i].Bytes
		}
	}
	if cold >= 0 && footprint > rest+spec.Segments[cold].Bytes {
		spec.Segments[cold].Bytes = footprint - rest
	}
	return spec
}

func scalePointRef(seed, footprint uint64, sparse bool, shards int) (reference, error) {
	sc := harness.ScaleBenchProfile()
	sc.Seed = seed
	p, err := harness.RunScalePoint(sc, footprint, sparse, shards)
	if err != nil {
		return reference{}, err
	}
	return reference{ops: p.Ops, state: p.StateBytes, regions: p.Regions, spans: p.Spans}, nil
}

// fleetNight is the datacenter-night scenario harness.FleetNight runs: the
// FleetNightTenants cast at Tiny scale on a DRAM pool sized to the initial
// population plus ~8% headroom, with per-tenant floors at 10% of footprint,
// and with the per-tenant all-DRAM baselines switched off.
func fleetNight(seed uint64) harness.FleetOptions {
	sc := harness.Tiny()
	sc.Seed = seed
	tens := harness.FleetNightTenants(sc)
	var pool uint64
	for i := range tens {
		est := estBytes(tens[i].Spec, sc)
		tens[i].FloorBytes = est / 10
		if tens[i].ArriveNs == 0 {
			pool += est
		}
	}
	pool += pool / 12
	return harness.FleetOptions{Scale: sc, Tenants: tens, FastBytes: pool, Workers: 1}
}

// estBytes is a tenant's expected footprint under sc: committed bytes
// divided down plus per-segment huge-page rounding slop.
func estBytes(spec workload.Spec, sc harness.Scale) uint64 {
	var fp uint64
	for _, seg := range spec.Segments {
		fp += seg.Bytes
	}
	if g := spec.Growth; g != nil {
		fp += g.ChunkBytes * uint64(g.MaxChunks)
	}
	return fp/sc.Div + uint64(len(spec.Segments)+1)*(2<<20)
}

func fleetRef(seed uint64) (reference, error) {
	fo, err := harness.FleetRun(fleetNight(seed))
	if err != nil {
		return reference{}, err
	}
	d := digestOf(fo.Result.Global, sumStats(fo.Result.Tenants))
	return reference{digest: &d, regions: -1, spans: -1}, nil
}

// runFleet assembles the fleet-night members directly on fleet.Run, the
// way harness.FleetRun wires them, so the traced run can put its wrappers
// around every tenant's app, tracker and policy.
func runFleet(seed uint64, tr *tracer, maxOps uint64) (*opResult, error) {
	opt := fleetNight(seed)
	sc := opt.Scale
	start, startCPU := time.Now(), cpuNow()
	cfg := sc.MachineConfig(opt.Tenants[0].Spec, true)
	for _, t := range opt.Tenants[1:] {
		extra := sc.MachineConfig(t.Spec, true)
		cfg.SlowSpec.Capacity += extra.SlowSpec.Capacity
	}
	cfg.FastSpec.Capacity = opt.FastBytes
	m, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	rootParams := cgroup.Default()
	rootParams.SamplePeriodNs = sc.PeriodNs
	rootParams.SlowMemLatencyNs = 1000 * sc.TimeDilate
	root, err := cgroup.NewGroup("fleet", rootParams)
	if err != nil {
		return nil, err
	}
	var members []fleet.Member
	var engines []*core.Engine
	var apps []*benchApp
	for i, t := range opt.Tenants {
		// harness.FleetTenant defaults: tenant i draws seed delta
		// i·0x9e3779b97f4a7c15 and priority and share at least 1.
		delta := uint64(i) * 0x9e3779b97f4a7c15
		p := cgroup.Default()
		p.TolerableSlowdownPct = t.SLOPct
		p.SamplePeriodNs = sc.PeriodNs
		p.SlowMemLatencyNs = 1000 * sc.TimeDilate
		g, err := root.NewChild(t.Name, p)
		if err != nil {
			return nil, err
		}
		app, err := sc.NewApp(t.Spec, sc.Seed+delta)
		if err != nil {
			return nil, err
		}
		var eng *core.Engine
		if tr == nil {
			eng, err = core.ComposeByName(g, "poison", "threshold", sc.Seed+delta+engineSeedDelta)
			if err != nil {
				return nil, err
			}
		} else {
			eng = tracedEngine(g, sc.Seed+delta+engineSeedDelta, tr)
		}
		a := &benchApp{App: app, tr: tr}
		ten := core.NewTenant(t.Name, a, g, eng)
		ten.SLOPct = t.SLOPct
		ten.Priority = max(t.Priority, 1)
		ten.Share = max(t.Share, 1)
		ten.FloorBytes = t.FloorBytes
		members = append(members, fleet.Member{
			Tenant: ten, ArriveNs: t.ArriveNs, DepartNs: t.DepartNs,
			EstBytes: estBytes(t.Spec, sc),
		})
		engines = append(engines, eng)
		apps = append(apps, a)
	}
	res, err := fleet.Run(m, fleet.Config{
		Root: root, DurationNs: sc.DurationNs, WarmupNs: sc.WarmupNs,
		WindowNs: sc.PeriodNs, ArbiterPeriodNs: sc.PeriodNs, MaxOps: maxOps,
	}, members)
	end, endCPU := time.Now(), cpuNow()
	if err != nil {
		return nil, fmt.Errorf("fleet-night: %w", err)
	}
	first, firstCPU := end, endCPU
	var state uint64
	for i, a := range apps {
		if !a.first.IsZero() && a.first.Before(first) {
			first, firstCPU = a.first, a.firstCPU
		}
		state += engines[i].StateBytes()
	}
	out := &opResult{
		digest: digestOf(res.Global, sumStats(res.Tenants)), start: start, first: first, end: end,
		startCPU: startCPU, firstCPU: firstCPU, endCPU: endCPU, machine: m, metrics: res.Global.Metrics, stats: sumStats(res.Tenants), engineState: state,
		coldFrac: res.Global.MeanColdFraction(sc.WarmupNs), throughput: res.Global.Throughput,
		windows: len(res.Global.Cold2M.Values), periods: res.Periods,
	}
	// The SLO figure is the worst tenant still resident at the end.
	for _, t := range res.Tenants {
		if t.Rejected {
			out.rejected++
		} else if t.DepartedNs == 0 && t.MeanSlowdownPct > out.slowdownPct {
			out.slowdownPct = t.MeanSlowdownPct
		}
	}
	return out, nil
}

func sumStats(ts []fleet.TenantResult) core.Stats {
	var s core.Stats
	for _, t := range ts {
		s.Periods += t.Stats.Periods
		s.Sampled += t.Stats.Sampled
		s.Demotions += t.Stats.Demotions
		s.Promotions += t.Stats.Promotions
		s.Sinks += t.Stats.Sinks
		s.DemoteFailures += t.Stats.DemoteFailures
		s.PromoteFailures += t.Stats.PromoteFailures
		s.Retries += t.Stats.Retries
		s.Quarantined += t.Stats.Quarantined
	}
	return s
}
