// Package harness assembles scaled, reproducible experiments: it builds
// machines whose TLB/LLC reach scales with the footprint divisor, applies
// the time-dilation transform that keeps classification fractions and
// slowdowns invariant while shrinking simulated access counts, and provides
// the runners each table and figure regeneration uses.
//
// Scaling model (see DESIGN.md): with footprint divisor D and time dilation
// F, footprints, TLB entries and LLC capacity divide by D (preserving the
// footprint:reach ratio that drives TLB-miss behaviour), while slow-memory
// latency multiplies by F and per-op compute multiplies by F (preserving
// slowdown percentages and the cold-set budget fractions: the target rate
// x/(100·ts) divides by F exactly as the workload's absolute access rates
// do). Reported rates convert back to paper units by multiplying by F.
package harness

import (
	"fmt"

	"thermostat/internal/cgroup"
	"thermostat/internal/chaos"
	"thermostat/internal/core"
	"thermostat/internal/mem"
	"thermostat/internal/sim"
	"thermostat/internal/telemetry"
	"thermostat/internal/workload"
)

// Scale fixes the size/time transform and run schedule for an experiment.
type Scale struct {
	// Name labels the profile in reports.
	Name string
	// Div divides footprints, TLB entries, and LLC capacity.
	Div uint64
	// TimeDilate is F: multiplies slow-memory latency and per-op compute.
	TimeDilate int64
	// PeriodNs is the (compressed) scan interval.
	PeriodNs int64
	// DurationNs and WarmupNs schedule each run.
	DurationNs int64
	WarmupNs   int64
	// Seed drives all randomness.
	Seed uint64
	// Sparse enables region-grain (span) page state on the machines the
	// profile builds. Off by default: dense tables are the pinned-golden
	// configuration.
	Sparse bool
	// ShardWorkers > 1 shards the engine's tracker scans across that many
	// contiguous region-sequence chunks collected on as many goroutines.
	// Any value — including the 0 serial default — produces bit-identical
	// runs (the shard merge is order-preserving and all rng draws happen
	// after it), so this is purely a wall-clock knob.
	ShardWorkers int
}

// Validate rejects degenerate profiles.
func (s Scale) Validate() error {
	if s.Div == 0 || s.TimeDilate <= 0 || s.PeriodNs <= 0 || s.DurationNs <= 0 {
		return fmt.Errorf("harness: invalid scale %+v", s)
	}
	if s.WarmupNs < 0 || s.WarmupNs >= s.DurationNs {
		return fmt.Errorf("harness: warmup %d outside run %d", s.WarmupNs, s.DurationNs)
	}
	if s.ShardWorkers < 0 {
		return fmt.Errorf("harness: negative shard workers %d", s.ShardWorkers)
	}
	return nil
}

// applyEngineScale applies the profile's engine-level knobs (intra-run scan
// sharding) to a freshly composed engine.
func (s Scale) applyEngineScale(eng *core.Engine) {
	if s.ShardWorkers > 1 {
		eng.SetSharding(s.ShardWorkers, s.ShardWorkers)
	}
}

// Repro is the full-fidelity profile cmd/repro uses: 1/16 footprints, 4x
// time dilation, 2s scan intervals over a 100s run (the equivalent of a 30s
// interval over a 1500s run at paper scale).
func Repro() Scale {
	return Scale{
		Name: "repro", Div: 16, TimeDilate: 4,
		PeriodNs: 2e9, DurationNs: 100e9, WarmupNs: 20e9, Seed: 1,
	}
}

// Bench is the profile bench_test.go uses: smaller, faster, same shapes.
func Bench() Scale {
	return Scale{
		Name: "bench", Div: 64, TimeDilate: 8,
		PeriodNs: 1e9, DurationNs: 30e9, WarmupNs: 6e9, Seed: 1,
	}
}

// Tiny is the unit-test profile.
func Tiny() Scale {
	return Scale{
		Name: "tiny", Div: 256, TimeDilate: 8,
		PeriodNs: 400e6, DurationNs: 8e9, WarmupNs: 2e9, Seed: 1,
	}
}

// ScaleByName returns the named profile (tiny, bench or repro). A positive
// durationS overrides its run length in simulated seconds; the warm-up
// shrinks to a fifth of the run when it would no longer fit.
func ScaleByName(name string, durationS float64) (Scale, error) {
	var sc Scale
	switch name {
	case "tiny":
		sc = Tiny()
	case "bench":
		sc = Bench()
	case "repro":
		sc = Repro()
	default:
		return Scale{}, fmt.Errorf("unknown scale %q (tiny, bench, repro)", name)
	}
	if durationS > 0 {
		sc.DurationNs = int64(durationS * 1e9)
		if sc.WarmupNs >= sc.DurationNs {
			sc.WarmupNs = sc.DurationNs / 5
		}
	}
	return sc, nil
}

// PaperRate converts a measured rate (per second of dilated time) back to
// paper units.
func (s Scale) PaperRate(measured float64) float64 {
	return measured * float64(s.TimeDilate)
}

// PeriodCompression is the ratio between the paper's 30s scan interval and
// this profile's, used to convert migration bandwidths to paper units.
func (s Scale) PeriodCompression() float64 {
	return 30e9 / float64(s.PeriodNs)
}

// MachineConfig builds a machine sized for the spec's footprint under this
// scale. fourKHost selects 4KB host mappings (the THP-off configuration).
func (s Scale) MachineConfig(spec workload.Spec, hugeHost bool) sim.Config {
	var footprint uint64
	for _, seg := range spec.Segments {
		footprint += seg.Bytes
	}
	if g := spec.Growth; g != nil {
		footprint += g.ChunkBytes * uint64(g.MaxChunks)
	}
	footprint /= s.Div
	// Headroom for rounding each segment up to a huge page.
	headroom := uint64(len(spec.Segments)+8) * (2 << 20)
	fast := footprint + footprint/4 + headroom
	slow := footprint + headroom

	cfg := sim.DefaultConfig(fast, slow)
	cfg.TLB.L1Entries = intMax(2, int(64/s.Div))
	cfg.TLB.L2Entries = intMax(8, int(1024/s.Div))
	cfg.LLC.SizeBytes = maxU64(1<<20, (45<<20)/s.Div)
	cfg.FaultLatencyNs = 1000 * s.TimeDilate
	cfg.SlowSpec.ReadLatency = 1000 * s.TimeDilate
	cfg.SlowSpec.WriteLatency = 1000 * s.TimeDilate
	cfg.VM.HostHugePages = hugeHost
	cfg.Sparse = s.Sparse
	return cfg
}

func intMax(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// NewApp instantiates spec under this scale: footprint divided, compute
// dilated, growth periods compressed like the scan interval.
func (s Scale) NewApp(spec workload.Spec, seed uint64) (*workload.App, error) {
	spec.ComputeNs *= s.TimeDilate
	if spec.Growth != nil {
		g := *spec.Growth
		g.PeriodNs = int64(float64(g.PeriodNs) / s.PeriodCompression())
		spec.Growth = &g
	}
	// Rescale sweep dwells so background-revisit periods survive the
	// footprint divisor, and dilate picker rotation periods with the
	// workload's rates.
	spec = spec.WithDwell(int(s.Div))
	spec = spec.WithTimeDilation(s.TimeDilate)
	return workload.NewApp(spec, s.Div, seed)
}

// Group builds the Thermostat cgroup for this scale and slowdown target.
func (s Scale) Group(slowdownPct float64) (*cgroup.Group, error) {
	p := cgroup.Default()
	p.TolerableSlowdownPct = slowdownPct
	p.SamplePeriodNs = s.PeriodNs
	p.SlowMemLatencyNs = 1000 * s.TimeDilate
	return cgroup.NewGroup("thermostat", p)
}

// Outcome bundles one policy run with everything analyses need.
type Outcome struct {
	Spec    workload.Spec
	Scale   Scale
	Machine *sim.Machine
	App     *workload.App
	Engine  *core.Engine // nil for non-Thermostat policies
	Result  *sim.RunResult
	// Telemetry is the run's collector when the experiment enabled
	// telemetry (nil otherwise).
	Telemetry *telemetry.Collector
	// Faults summarizes chaos fault handling over the whole run: all
	// zeros unless the machine config installed an injector. Thermostat
	// runs report through the engine (adding retry/quarantine counts);
	// other policies report the machine-level injector view.
	Faults chaos.Report
}

// EngineSeedDelta offsets every engine's RNG seed from its workload seed,
// so the engine's sampling stream never coincides with the workload's.
const EngineSeedDelta = 0x7e

// RunSpec describes one single-machine run: the workload and scale, the
// memory hierarchy, the placement arm, and the hooks that instrument or
// perturb it. Run and Assemble are the one place such a run is built.
type RunSpec struct {
	Spec  workload.Spec
	Scale Scale
	// Tiers, when non-empty, runs on this device hierarchy (at least two
	// tiers, sized by TieredMachineConfig) instead of the paper's two-tier
	// machine. The engine's demote/promote mechanics are tier-relative, so
	// only the machine changes.
	Tiers []mem.Spec
	// PolicyName selects the arm: "thermostat" (the paper's engine),
	// "all-dram" (nothing ever leaves fast memory), or a placement policy
	// from core.PolicyNames composed with Tracker (default "poison").
	// SlowdownPct is the engine arms' tolerable-slowdown target.
	PolicyName  string
	Tracker     string
	SlowdownPct float64
	// Policy, when non-nil, replaces the named arm with an explicit policy
	// (idle-demote, static placements, measurement-only scanners).
	Policy sim.Policy
	// ConfigHook mutates the machine config before the machine is built
	// (telemetry recorder, chaos injection, ablation knobs).
	ConfigHook func(*sim.Config)
	// EngineHook runs on a named engine arm after composition and before
	// the run (group retuning, ablation switches, the live census).
	EngineHook func(*cgroup.Group, *core.Engine)
	// TickHook runs after every policy tick (see sim.RunConfig.TickHook).
	TickHook func(nowNs int64) error
}

// Assembly is a RunSpec built and ready to run. Callers that need the
// machine before the run starts (ground-truth page counts, guest page
// sizes) or the live engine and group during it (the daemon) hold one;
// everyone else calls Run.
type Assembly struct {
	RunSpec
	Machine *sim.Machine
	App     *workload.App
	// Group and Engine are nil unless the arm is a named engine.
	Group  *cgroup.Group
	Engine *core.Engine
	policy sim.Policy
}

// Run assembles and runs rs.
func Run(rs RunSpec) (*Outcome, error) {
	a, err := rs.Assemble()
	if err != nil {
		return nil, err
	}
	return a.Run()
}

// RunThermostat runs spec under Thermostat at the given slowdown target.
func RunThermostat(spec workload.Spec, sc Scale, slowdownPct float64) (*Outcome, error) {
	return Run(RunSpec{Spec: spec, Scale: sc, PolicyName: "thermostat", SlowdownPct: slowdownPct})
}

// RunBaseline runs spec with everything in fast memory (all-DRAM).
func RunBaseline(spec workload.Spec, sc Scale) (*Outcome, error) {
	return Run(RunSpec{Spec: spec, Scale: sc, PolicyName: "all-dram"})
}

// Assemble builds the machine, app, and policy rs describes, in the fixed
// order every run shares (machine, app, group, engine), so equal specs
// replay bit-identically.
func (rs RunSpec) Assemble() (*Assembly, error) {
	sc := rs.Scale
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	var cfg sim.Config
	if len(rs.Tiers) > 0 {
		if len(rs.Tiers) < 2 {
			return nil, fmt.Errorf("harness: N-tier run needs at least two tiers, got %d", len(rs.Tiers))
		}
		cfg = sc.TieredMachineConfig(rs.Spec, rs.Tiers)
	} else {
		cfg = sc.MachineConfig(rs.Spec, true)
	}
	if rs.ConfigHook != nil {
		rs.ConfigHook(&cfg)
	}
	m, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	app, err := sc.NewApp(rs.Spec, sc.Seed)
	if err != nil {
		return nil, err
	}
	a := &Assembly{RunSpec: rs, Machine: m, App: app, policy: rs.Policy}
	switch {
	case a.policy != nil:
		return a, nil
	case rs.PolicyName == "all-dram":
		a.policy = sim.NullPolicy{Interval: sc.PeriodNs}
		return a, nil
	}
	g, err := sc.Group(rs.SlowdownPct)
	if err != nil {
		return nil, err
	}
	var eng *core.Engine
	if rs.PolicyName == "thermostat" {
		eng = core.NewEngine(g, sc.Seed+EngineSeedDelta)
	} else {
		tracker := rs.Tracker
		if tracker == "" {
			tracker = "poison"
		}
		if eng, err = core.ComposeByName(g, tracker, rs.PolicyName, sc.Seed+EngineSeedDelta); err != nil {
			return nil, err
		}
	}
	sc.applyEngineScale(eng)
	if rs.EngineHook != nil {
		rs.EngineHook(g, eng)
	}
	a.Group, a.Engine, a.policy = g, eng, eng
	return a, nil
}

// Run executes the assembled run over the scale's schedule.
func (a *Assembly) Run() (*Outcome, error) {
	sc := a.Scale
	res, err := sim.Run(a.Machine, a.App, a.policy, sim.RunConfig{
		DurationNs: sc.DurationNs, WarmupNs: sc.WarmupNs, WindowNs: sc.PeriodNs,
		TickHook: a.TickHook,
	})
	if err != nil {
		return nil, fmt.Errorf("harness: %s under %s: %w", a.Spec.Name, a.policy.Name(), err)
	}
	out := &Outcome{Spec: a.Spec, Scale: sc, Machine: a.Machine, App: a.App,
		Engine: a.Engine, Result: res, Faults: a.Machine.FaultReport()}
	if a.Engine != nil {
		out.Faults = a.Engine.FaultReport()
	}
	return out, nil
}
