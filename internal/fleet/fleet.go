package fleet

import (
	"fmt"

	"thermostat/internal/cgroup"
	"thermostat/internal/core"
	"thermostat/internal/sim"
	"thermostat/internal/stats"
	"thermostat/internal/telemetry"
)

// Member is one tenant's fleet-run entry: the tenant plus its churn
// schedule. Times are relative to run start in virtual nanoseconds.
type Member struct {
	Tenant *core.Tenant
	// ArriveNs is when the tenant arrives (0 = present from the start).
	ArriveNs int64
	// DepartNs is when the tenant departs (0 = stays to the end).
	DepartNs int64
	// EstBytes is the expected initial footprint, used for admission
	// control on mid-run arrivals: the fleet squeezes incumbents to make
	// room and rejects the arrival if the fast tier still cannot hold it.
	// 0 skips the check (the arrival then fails the run on a real OOM).
	EstBytes uint64
}

// Config controls a fleet run.
type Config struct {
	// PoolBytes is the DRAM budget arbitrated among tenants (default: the
	// fast tier's capacity).
	PoolBytes uint64
	// Root, when non-nil, is the cgroup parent of every tenant group; its
	// limit is set to PoolBytes so hierarchical accounting caps the fleet.
	Root *cgroup.Group
	// DurationNs is the virtual run length; WindowNs the metric window
	// (default: the arbiter period); WarmupNs the span excluded from
	// summary statistics; MaxOps a safety valve — all as sim.RunConfig.
	DurationNs int64
	WindowNs   int64
	WarmupNs   int64
	MaxOps     uint64
	// ArbiterPeriodNs is the grant-revision period (default: the largest
	// tenant engine interval).
	ArbiterPeriodNs int64
}

// TenantResult summarizes one tenant's run.
type TenantResult struct {
	Name     string
	Priority int
	Share    int
	SLOPct   float64

	// Ops is the tenant's access count; Throughput its post-warmup
	// ops/sec over its resident span.
	Ops        uint64
	Throughput float64
	// Stats is the tenant engine's counters at departure or run end.
	Stats core.Stats
	// MeanSlowdownPct averages the engine's own slowdown estimate over the
	// tenant's post-warmup arbiter periods — the number to hold against
	// SLOPct.
	MeanSlowdownPct float64
	// GrantBytes is the final DRAM grant; FastBytes and FootprintBytes the
	// final residency (zero after departure).
	GrantBytes     uint64
	FastBytes      uint64
	FootprintBytes uint64

	// ArrivedNs and DepartedNs are absolute virtual times; DepartedNs is 0
	// while resident. Rejected marks an arrival the pool could not admit.
	ArrivedNs  int64
	DepartedNs int64
	Rejected   bool
}

// Result is a fleet run's full outcome.
type Result struct {
	// Global carries the machine-wide series and counters in sim.Run's
	// exact shape (PolicyName "fleet"); for a single-tenant fleet it is
	// bit-identical to the solo sim.Run result.
	Global *sim.RunResult
	// Tenants holds per-tenant summaries in member order.
	Tenants []TenantResult
	// Series holds per-tenant snapshots, one per resident tenant per
	// arbiter period, period-major in member order.
	Series []telemetry.TenantSnapshot
	// PoolBytes echoes the arbitrated budget; Periods counts completed
	// arbiter rounds.
	PoolBytes uint64
	Periods   uint64
}

// tenantState is the runner's per-member bookkeeping.
type tenantState struct {
	mem Member
	t   *core.Tenant

	arrived  bool
	active   bool
	rejected bool

	ops       uint64
	warmupOps uint64
	grant     uint64
	interval  int64
	computeNs int64
	nextTick  int64
	wrr       int

	arrivedAt   int64
	departedAt  int64
	slowdownSum float64
	slowdownN   int

	finalStats     core.Stats
	finalFast      uint64
	finalFootprint uint64
}

type runner struct {
	m      *sim.Machine
	cfg    Config
	pool   uint64
	states []tenantState

	start       int64
	warmupClock int64
	totalShare  int
	periods     uint64
	series      []telemetry.TenantSnapshot
}

// Run executes the members' workloads concurrently on one machine under
// fleet arbitration. The loop replicates sim.Run's serial ordering exactly
// — access, clock advance, window drain, then boundary drain — with the
// tenant interleave chosen by smooth weighted round-robin over Share and
// the arbiter riding the boundary drain at its own period. One tenant with
// the full pool and no churn reduces to sim.Run verbatim.
func Run(m *sim.Machine, cfg Config, members []Member) (*Result, error) {
	if cfg.DurationNs <= 0 {
		return nil, fmt.Errorf("fleet: non-positive duration %d", cfg.DurationNs)
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("fleet: no members")
	}
	pool := cfg.PoolBytes
	if pool == 0 {
		pool = m.Memory().Tier(0).Capacity()
	}
	r := &runner{m: m, cfg: cfg, pool: pool, states: make([]tenantState, len(members))}
	maxInterval := int64(0)
	for i, mb := range members {
		if mb.Tenant == nil {
			return nil, fmt.Errorf("fleet: member %d has no tenant", i)
		}
		if err := mb.Tenant.Validate(); err != nil {
			return nil, err
		}
		iv := mb.Tenant.Engine.IntervalNs()
		if iv <= 0 {
			return nil, fmt.Errorf("fleet: tenant %q interval %d <= 0", mb.Tenant.Name, iv)
		}
		if iv > maxInterval {
			maxInterval = iv
		}
		r.states[i] = tenantState{
			mem: mb, t: mb.Tenant,
			interval:  iv,
			computeNs: mb.Tenant.App.ComputeNs(),
		}
	}
	arb := cfg.ArbiterPeriodNs
	if arb <= 0 {
		arb = maxInterval
	}
	window := cfg.WindowNs
	if window <= 0 {
		window = arb
	}
	if cfg.Root != nil {
		cfg.Root.SetLimit(pool)
	}

	r.start = m.Clock()
	end := r.start + cfg.DurationNs
	r.warmupClock = r.start + cfg.WarmupNs

	// Admit the initial population in member order, then assign initial
	// grants silently (no telemetry: tenants present at start are part of
	// the run's shape, not churn events).
	for i := range r.states {
		st := &r.states[i]
		if st.mem.ArriveNs <= 0 {
			if err := r.attach(st, r.start); err != nil {
				return nil, err
			}
		}
	}
	if r.totalShare == 0 && !r.anyPendingArrival() {
		return nil, fmt.Errorf("fleet: no tenant ever present")
	}
	if _, _, err := r.grantRound(r.start); err != nil {
		return nil, err
	}

	// A single-tenant no-churn fleet is the degenerate case the
	// differential tests pin against sim.Run: bind the epoch tracker to
	// that tenant's engine so per-epoch confusion and fault columns match
	// the solo run. With real multi-tenancy no single policy owns the
	// machine and the tracker runs unbound.
	var et *sim.EpochTracker
	if len(r.states) == 1 && r.states[0].mem.ArriveNs <= 0 && r.states[0].mem.DepartNs == 0 {
		et = sim.NewEpochTracker(m, r.states[0].t.Engine)
	} else {
		et = sim.NewEpochTracker(m, nil)
	}

	res := &sim.RunResult{
		AppName:    r.fleetName(),
		PolicyName: "fleet",
		SlowRate:   stats.NewSeries("slow-access-rate"),
		Cold2M:     stats.NewSeries("cold-2M-bytes"),
		Cold4K:     stats.NewSeries("cold-4K-bytes"),
		Hot2M:      stats.NewSeries("hot-2M-bytes"),
		Hot4K:      stats.NewSeries("hot-4K-bytes"),
	}

	nextWindow := r.start + window
	nextArb := r.start + arb
	var windowStartSlow uint64
	var totalOps, warmupOps uint64

	for m.Clock() < end {
		if cfg.MaxOps > 0 && totalOps >= cfg.MaxOps {
			break
		}
		if pick := r.pickTenant(); pick >= 0 {
			st := &r.states[pick]
			st.wrr -= r.totalShare
			v, write := st.t.App.Next()
			if _, err := m.Access(v, write); err != nil {
				return nil, fmt.Errorf("fleet: %s op %d: %w", st.t.Name, st.ops, err)
			}
			if st.computeNs > 0 {
				m.AdvanceClock(st.computeNs)
			}
			st.ops++
			totalOps++
			if cfg.WarmupNs > 0 && m.Clock() <= r.warmupClock {
				warmupOps = totalOps
				st.warmupOps = st.ops
			}
		} else {
			// Nobody resident: idle forward to the next boundary or
			// arrival so churn-only stretches cannot spin.
			next := nextWindow
			if nextArb < next {
				next = nextArb
			}
			for i := range r.states {
				st := &r.states[i]
				if !st.arrived && !st.rejected {
					if at := r.start + st.mem.ArriveNs; at > m.Clock() && at < next {
						next = at
					}
				}
			}
			if end < next {
				next = end
			}
			if d := next - m.Clock(); d > 0 {
				m.AdvanceClock(d)
			}
		}

		now := m.Clock()
		// Window drain first, exactly as sim.Run: the metric series see
		// machine state before any boundary work at the same instant.
		for now >= nextWindow {
			slow := m.Metrics().SlowAccesses
			res.SlowRate.Append(nextWindow-r.start, stats.Rate(slow-windowStartSlow, window))
			windowStartSlow = slow
			fp := sim.ScanFootprint(m, nil)
			res.Cold2M.Append(nextWindow-r.start, float64(fp.Cold2M))
			res.Cold4K.Append(nextWindow-r.start, float64(fp.Cold4K))
			res.Hot2M.Append(nextWindow-r.start, float64(fp.Hot2M))
			res.Hot4K.Append(nextWindow-r.start, float64(fp.Hot4K))
			nextWindow += window
		}
		// Churn: due arrivals then due departures, member order.
		for i := range r.states {
			st := &r.states[i]
			if !st.arrived && !st.rejected && st.mem.ArriveNs > 0 && now >= r.start+st.mem.ArriveNs {
				if err := r.admit(st, now); err != nil {
					return nil, err
				}
			}
		}
		for i := range r.states {
			st := &r.states[i]
			if st.active && st.mem.DepartNs > 0 && now >= r.start+st.mem.DepartNs {
				if err := r.depart(st, now); err != nil {
					return nil, err
				}
			}
		}
		// Boundary drain: tenant ticks and arbiter rounds in time order,
		// ties to the tenant (matching sim.Run, where the policy tick runs
		// before the epoch roll at the same boundary).
		for {
			bi, bt := -1, int64(0)
			for i := range r.states {
				st := &r.states[i]
				if st.active && now >= st.nextTick && (bi == -1 || st.nextTick < bt) {
					bi, bt = i, st.nextTick
				}
			}
			if now >= nextArb && (bi == -1 || nextArb < bt) {
				if err := r.arbitrate(now); err != nil {
					return nil, err
				}
				r.periods++
				et.Roll(now)
				nextArb += arb
				continue
			}
			if bi == -1 {
				break
			}
			st := &r.states[bi]
			if err := st.t.App.Tick(m, now); err != nil {
				return nil, fmt.Errorf("fleet: %s tick: %w", st.t.Name, err)
			}
			if err := st.t.Engine.Tick(m, now); err != nil {
				return nil, fmt.Errorf("fleet: %s tick: %w", st.t.Name, err)
			}
			st.nextTick += st.interval
		}
	}
	et.End(m.Clock())

	res.Ops = totalOps
	res.DurationNs = m.Clock() - r.start
	span := res.DurationNs - cfg.WarmupNs
	if span <= 0 {
		span = res.DurationNs
		warmupOps = 0
	}
	res.Throughput = stats.Rate(totalOps-warmupOps, span)
	res.FinalFootprint = sim.ScanFootprint(m, nil)
	res.Metrics = m.Metrics()

	out := &Result{Global: res, PoolBytes: pool, Periods: r.periods, Series: r.series}
	for i := range r.states {
		st := &r.states[i]
		if st.active {
			st.finalStats = st.t.Engine.Stats()
			st.finalFast = st.t.FastBytes(m)
			st.finalFootprint = st.t.FootprintBytes(m)
		}
		tr := TenantResult{
			Name: st.t.Name, Priority: st.t.Priority, Share: st.t.Share,
			SLOPct: st.t.SLOPct, Ops: st.ops, Stats: st.finalStats,
			GrantBytes: st.grant, FastBytes: st.finalFast,
			FootprintBytes: st.finalFootprint,
			ArrivedNs:      st.arrivedAt, DepartedNs: st.departedAt,
			Rejected: st.rejected,
		}
		if st.slowdownN > 0 {
			tr.MeanSlowdownPct = st.slowdownSum / float64(st.slowdownN)
		}
		if st.arrived {
			from := st.arrivedAt
			if r.warmupClock > from {
				from = r.warmupClock
			}
			to := st.departedAt
			if to == 0 {
				to = m.Clock()
			}
			tspan := to - from
			tops := st.ops - st.warmupOps
			if tspan <= 0 {
				tspan = to - st.arrivedAt
				tops = st.ops
			}
			tr.Throughput = stats.Rate(tops, tspan)
		}
		out.Tenants = append(out.Tenants, tr)
	}
	return out, nil
}

// fleetName joins the member names for the global result.
func (r *runner) fleetName() string {
	name := ""
	for i := range r.states {
		if i > 0 {
			name += "+"
		}
		name += r.states[i].t.Name
	}
	return name
}

// pickTenant runs one step of smooth weighted round-robin over the resident
// tenants: bump every credit by its share, run the highest (first wins
// ties), debit it by the total. Deterministic, and with one tenant it
// degenerates to "always tenant 0".
func (r *runner) pickTenant() int {
	pick := -1
	for i := range r.states {
		st := &r.states[i]
		if !st.active {
			continue
		}
		st.wrr += st.t.Share
		if pick < 0 || st.wrr > r.states[pick].wrr {
			pick = i
		}
	}
	return pick
}

func (r *runner) anyPendingArrival() bool {
	for i := range r.states {
		if !r.states[i].arrived && r.states[i].mem.ArriveNs > 0 {
			return true
		}
	}
	return false
}

// attach initializes a tenant's workload and engine on the machine.
func (r *runner) attach(st *tenantState, now int64) error {
	if err := st.t.App.Init(r.m); err != nil {
		return fmt.Errorf("fleet: init %s: %w", st.t.Name, err)
	}
	if err := st.t.Engine.Attach(r.m); err != nil {
		return fmt.Errorf("fleet: attach %s: %w", st.t.Name, err)
	}
	st.arrived, st.active = true, true
	st.arrivedAt = now
	st.nextTick = now + st.interval
	r.totalShare += st.t.Share
	return nil
}

// admit handles one mid-run arrival: check floors, squeeze incumbents down
// to the post-arrival grants, verify the fast tier can hold the newcomer,
// then attach it. A rejected tenant never joins arbitration again.
func (r *runner) admit(st *tenantState, now int64) error {
	var floors uint64
	for i := range r.states {
		if r.states[i].active {
			floors += r.states[i].t.FloorBytes
		}
	}
	if floors+st.t.FloorBytes > r.pool {
		st.rejected = true
		return nil
	}
	// Provisional arbitration with the newcomer's estimate as its demand:
	// incumbents shrink to their post-arrival grants and squeeze out the
	// difference before the newcomer allocates.
	ds := make([]Demand, 0, len(r.states))
	idx := make([]int, 0, len(r.states))
	for i := range r.states {
		s := &r.states[i]
		if s.active {
			ds = append(ds, r.demandOf(s))
			idx = append(idx, i)
		}
	}
	ds = append(ds, Demand{Name: st.t.Name, Priority: st.t.Priority,
		FloorBytes: st.t.FloorBytes, DemandBytes: st.mem.EstBytes, SLOPct: st.t.SLOPct})
	grants, err := Arbitrate(r.pool, ds)
	if err != nil {
		st.rejected = true
		return nil
	}
	for k, i := range idx {
		if err := r.applyGrant(&r.states[i], grants[k], now); err != nil {
			return err
		}
	}
	if st.mem.EstBytes > 0 && r.m.Memory().Tier(0).Free() < st.mem.EstBytes {
		st.rejected = true
		return nil
	}
	if err := r.attach(st, now); err != nil {
		return err
	}
	if err := r.applyGrant(st, grants[len(grants)-1], now); err != nil {
		return err
	}
	r.syncUsage(st)
	if rec := r.m.Recorder(); rec != nil {
		rec.Event(telemetry.Event{Kind: telemetry.KindTenantArrived,
			TimeNs: now, Tenant: st.t.Name, Bytes: st.grant})
	}
	return nil
}

// depart tears one tenant down: release its memory wholesale, settle its
// accounting, and freeze its summary counters. The pages, TLB entries and
// trap state all vanish with FreeRegion, so nothing of the tenant outlives
// it on the machine — the fuzz battery holds the run to that.
func (r *runner) depart(st *tenantState, now int64) error {
	st.finalStats = st.t.Engine.Stats()
	var freed uint64
	for _, reg := range st.t.Regions() {
		perTier, err := r.m.FreeRegion(reg)
		if err != nil {
			return fmt.Errorf("fleet: depart %s: %w", st.t.Name, err)
		}
		for _, b := range perTier {
			freed += b
		}
	}
	st.t.Group.Uncharge(st.t.Group.Usage())
	st.t.Group.SetLimit(0)
	st.active = false
	st.departedAt = now
	r.totalShare -= st.t.Share
	if rec := r.m.Recorder(); rec != nil {
		rec.Event(telemetry.Event{Kind: telemetry.KindTenantDeparted,
			TimeNs: now, Tenant: st.t.Name, Bytes: freed})
	}
	return nil
}

func (r *runner) demandOf(st *tenantState) Demand {
	return Demand{
		Name:        st.t.Name,
		Priority:    st.t.Priority,
		FloorBytes:  st.t.FloorBytes,
		DemandBytes: st.t.FootprintBytes(r.m),
		SlowdownPct: st.t.Engine.EstimatedSlowdownPct(),
		SLOPct:      st.t.SLOPct,
	}
}

// applyGrant moves one tenant to a new grant: update its cgroup limit,
// emit the revision event, and squeeze its residency down when the new
// grant leaves it over limit. Unchanged grants are a strict no-op — that
// silence is what keeps the degenerate single-tenant fleet byte-identical
// to the solo run.
func (r *runner) applyGrant(st *tenantState, grant uint64, now int64) error {
	if grant != st.grant || st.t.Group.Limit() != grant {
		changed := st.grant != 0 && grant != st.grant
		st.grant = grant
		st.t.Group.SetLimit(grant)
		if changed {
			if rec := r.m.Recorder(); rec != nil {
				rec.Event(telemetry.Event{Kind: telemetry.KindGrantChanged,
					TimeNs: now, Tenant: st.t.Name, Bytes: grant})
			}
		}
	}
	r.syncUsage(st)
	if over := st.t.Group.OverLimit(); over > 0 {
		freed, err := st.t.Engine.Squeeze(over)
		if err != nil {
			return fmt.Errorf("fleet: squeeze %s: %w", st.t.Name, err)
		}
		if freed > 0 {
			r.syncUsage(st)
		}
	}
	return nil
}

// syncUsage mirrors the tenant's measured top-tier residency into its
// cgroup's usage (the simulator's stand-in for per-page charge/uncharge on
// the allocation and migration paths).
func (r *runner) syncUsage(st *tenantState) {
	measured := st.t.FastBytes(r.m)
	cur := st.t.Group.Usage()
	if measured > cur {
		st.t.Group.Charge(measured - cur)
	} else if cur > measured {
		st.t.Group.Uncharge(cur - measured)
	}
}

// grantRound runs one grant computation over the resident tenants and
// applies the results — the arbitration core, shared by the initial silent
// assignment and the periodic rounds. Returns the demands and member
// indexes it acted on.
func (r *runner) grantRound(now int64) ([]Demand, []int, error) {
	ds := make([]Demand, 0, len(r.states))
	idx := make([]int, 0, len(r.states))
	for i := range r.states {
		st := &r.states[i]
		if st.active {
			ds = append(ds, r.demandOf(st))
			idx = append(idx, i)
		}
	}
	if len(ds) == 0 {
		return nil, nil, nil
	}
	grants, err := Arbitrate(r.pool, ds)
	if err != nil {
		return nil, nil, err
	}
	for k, i := range idx {
		if err := r.applyGrant(&r.states[i], grants[k], now); err != nil {
			return nil, nil, err
		}
	}
	return ds, idx, nil
}

// arbitrate runs one grant-revision round over the resident tenants and
// records their period snapshots. With a lone tenant the grant equals the
// pool every round, so the whole pass reduces to bookkeeping with no
// machine or telemetry side effects.
func (r *runner) arbitrate(now int64) error {
	ds, idx, err := r.grantRound(now)
	if err != nil || len(ds) == 0 {
		return err
	}
	sink, _ := r.m.Recorder().(telemetry.TenantSink)
	for k, i := range idx {
		st := &r.states[i]
		sd := ds[k].SlowdownPct
		if now > r.warmupClock {
			st.slowdownSum += sd
			st.slowdownN++
		}
		snap := telemetry.TenantSnapshot{
			Epoch: r.periods + 1, EndNs: now, Tenant: st.t.Name,
			GrantBytes: st.grant, UsageBytes: st.t.Group.Usage(),
			FootprintBytes: ds[k].DemandBytes,
			SlowdownPct:    sd, SLOPct: st.t.SLOPct, Ops: st.ops,
			ColdPages:        st.t.Engine.ColdPages(),
			QuarantinedPages: st.t.Engine.QuarantinedPages(),
		}
		r.series = append(r.series, snap)
		// The live observability plane (an optional TenantSink recorder)
		// gets the same snapshot; the standard Collector is not a sink,
		// so plain runs are untouched.
		if sink != nil {
			sink.TenantSnapshot(snap)
		}
	}
	return nil
}
