// Package sim is the machine model: it composes the memory system, page
// table, TLB, LLC, page-walk model, virtualization layer, BadgerTrap and the
// migration engine into a single virtual-time simulator that workloads issue
// memory accesses against.
//
// The simulator is closed-loop: each access is charged its full latency
// (TLB, page walk, poison faults, cache, memory device) and the virtual
// clock advances by that latency divided by the thread count, so throughput
// degradation emerges from the latency model exactly as wall-clock slowdown
// does on the paper's testbed.
package sim

import (
	"fmt"

	"thermostat/internal/addr"
	"thermostat/internal/badgertrap"
	"thermostat/internal/cache"
	"thermostat/internal/chaos"
	"thermostat/internal/fault"
	"thermostat/internal/mem"
	"thermostat/internal/numa"
	"thermostat/internal/pagetable"
	"thermostat/internal/stats"
	"thermostat/internal/telemetry"
	"thermostat/internal/tlb"
	"thermostat/internal/vm"
	"thermostat/internal/walk"
)

// SlowMemMode selects how accesses to the slow tier are costed.
type SlowMemMode int

// Slow-memory costing modes.
const (
	// EmulatedFault is the paper's methodology (§4.2): slow-tier data
	// physically sits in DRAM-speed memory and the ~1us BadgerTrap poison
	// fault on each TLB miss to a cold page provides the slow-memory
	// latency. Accesses that hit a transient TLB entry see DRAM speed
	// (the documented under-estimation); faults fire even for
	// cache-resident lines (the documented over-estimation).
	EmulatedFault SlowMemMode = iota
	// Device charges the slow tier's device read/write latency on LLC
	// misses, modeling real slow memory. Poison faults (when the policy
	// poisons pages for monitoring) are charged separately.
	Device
)

// String names the mode.
func (m SlowMemMode) String() string {
	switch m {
	case EmulatedFault:
		return "emulated-fault"
	case Device:
		return "device"
	default:
		return fmt.Sprintf("mode%d", int(m))
	}
}

// Config assembles a machine.
type Config struct {
	// VM is the virtualization setup (default: nested, huge host pages).
	VM vm.Config
	// TLB sizes the translation caches.
	TLB tlb.Config
	// LLC sizes the last-level cache.
	LLC cache.Config
	// Walk parameterizes page-walk latency.
	Walk walk.Config
	// Tiers, when non-empty, is the ordered memory hierarchy (fastest
	// first, up to mem.MaxTiers entries); it takes precedence over
	// FastSpec/SlowSpec.
	Tiers []mem.Spec
	// FastSpec and SlowSpec size the two-tier (paper) configuration used
	// when Tiers is empty.
	FastSpec, SlowSpec mem.Spec
	// Mode selects slow-memory costing (default EmulatedFault).
	Mode SlowMemMode
	// Threads is the number of worker threads sharing the machine
	// (default 8, the paper's medium cloud instance).
	Threads int
	// TLBHitNs, LLCHitNs are hit latencies (defaults 1, 30).
	TLBHitNs int64
	LLCHitNs int64
	// FaultLatencyNs is the BadgerTrap poison-fault service time
	// (default 1000, the paper's ~1us).
	FaultLatencyNs int64
	// VirtBase is where region allocation starts (default 16TB mark).
	VirtBase addr.Virt
	// Recorder, when non-nil, receives telemetry events from every
	// instrumented component (machine, migrator, engine, daemons). Nil
	// (the default) compiles the instrumentation down to one nil check
	// per site.
	Recorder telemetry.Recorder
	// Chaos configures deterministic fault injection into the migration
	// and poisoning machinery. The zero value (all rates 0) installs no
	// injector at all, so default machines are bit-identical to pre-chaos
	// builds.
	Chaos chaos.Config
	// Sparse arms the hybrid span-compressed page-table representation:
	// huge regions allocate as Telescope-style region summaries and carve
	// to page grain on first page-grain touch (sampling, poisoning,
	// migration). Off by default — dense machines are byte-identical to
	// pre-sparse builds; see DESIGN.md "Scaling to terabytes".
	Sparse bool
}

// DefaultConfig returns the paper's evaluated machine: KVM guest with huge
// pages at both levels, 64/1024-entry TLBs, 45MB LLC, 8 threads, BadgerTrap
// slow-memory emulation.
func DefaultConfig(fastBytes, slowBytes uint64) Config {
	return Config{
		VM:       vm.DefaultConfig(),
		TLB:      tlb.DefaultConfig(),
		LLC:      cache.DefaultConfig(),
		Walk:     walk.DefaultConfig(),
		FastSpec: mem.DefaultDRAM(fastBytes),
		SlowSpec: mem.DefaultSlow(slowBytes),
		Mode:     EmulatedFault,
		Threads:  8,
	}
}

// DefaultTieredConfig returns the default machine over an arbitrary ordered
// memory hierarchy (fastest first), e.g. DRAM/CXL/NVM. In EmulatedFault
// mode every non-top tier is emulated with poison faults at the configured
// fault latency; Device mode charges each tier's own device latency.
func DefaultTieredConfig(tiers ...mem.Spec) Config {
	cfg := DefaultConfig(0, 0)
	cfg.Tiers = tiers
	return cfg
}

// TierSpecs returns the ordered hierarchy a config will build.
func (c Config) TierSpecs() []mem.Spec {
	if len(c.Tiers) > 0 {
		return c.Tiers
	}
	return []mem.Spec{c.FastSpec, c.SlowSpec}
}

// Metrics is a snapshot of machine-level counters.
type Metrics struct {
	Accesses uint64
	// SlowAccesses counts accesses served by any non-top tier.
	SlowAccesses uint64
	// TierAccesses counts accesses per tier, indexed by mem.TierID.
	TierAccesses []uint64
	PoisonFaults uint64
	TLB          tlb.Stats
	LLC          cache.Stats
	// AccessLatency aggregates per-access latency in nanoseconds.
	AccessLatency *stats.Histogram
	// ClockNs is the current virtual time.
	ClockNs int64
	// MigrationBytes is the total inter-tier traffic from the machine's
	// shared meter (all kinds, all tier pairs).
	MigrationBytes uint64
}

// Machine is the composed simulator.
type Machine struct {
	cfg Config

	sys   *mem.System
	pt    *pagetable.Table
	tl    *tlb.TLB
	llc   *cache.Cache
	wm    *walk.Model
	guest *vm.VM
	trap  *badgertrap.Trap
	reg   *fault.Registry
	mig   *numa.Migrator
	meter *mem.Meter

	// rec is the telemetry sink; nil (the default) means telemetry is off
	// and every instrumentation site reduces to one nil check.
	rec telemetry.Recorder

	// chaos is the fault injector; nil (the default) means chaos is off
	// and every injection site reduces to one nil check.
	chaos *chaos.Injector

	clock int64
	next  addr.Virt // bump pointer for region allocation

	// tierReadLat/tierWriteLat are the per-tier device latencies, indexed
	// by mem.TierID — precomputed at construction so the access path reads
	// one slice element instead of chasing Tier→Spec per miss. fastReadLat
	// caches the top tier's read latency for the EmulatedFault fill path.
	tierReadLat  []int64
	tierWriteLat []int64
	fastReadLat  int64
	// maxAccessLat is a lazily computed conservative upper bound on one
	// access's modeled latency (see MaxOpAdvanceNs).
	maxAccessLat int64
	// batchTierAcc is AccessBatch's scratch per-tier counter block.
	batchTierAcc []uint64

	accesses     stats.Counter
	slowAccesses stats.Counter
	tierAccesses []stats.Counter // indexed by mem.TierID
	latHist      *stats.Histogram

	// daemonNs accumulates policy CPU time (scans, sorting) which the
	// paper runs on spare cores; it is tracked but not charged to the
	// application's critical path.
	daemonNs int64

	// Ground-truth per-2MB-page access (LLC miss) counting — Figure 2's
	// y-axis, which no real x86 can observe but a simulator can. Counts
	// live in a dense slice indexed by 2MB region number above pcBase
	// (regions come from a 2MB-aligned bump allocator, so the space is
	// contiguous); pcLow catches the stray below-base address so the
	// map-based semantics are preserved exactly.
	pcEnabled bool
	pcBase    addr.Virt
	pcCounts  []uint64
	pcLow     map[addr.Virt]uint64

	// missHook, when set, observes every LLC miss and returns extra
	// latency to charge the access — the attachment point for the §6.1
	// hardware-assisted access counters (CM-bit, PEBS).
	missHook func(v addr.Virt, write bool) int64
}

// New validates cfg and builds a machine.
func New(cfg Config) (*Machine, error) {
	if cfg.Threads <= 0 {
		cfg.Threads = 8
	}
	if cfg.TLBHitNs <= 0 {
		cfg.TLBHitNs = 1
	}
	if cfg.LLCHitNs <= 0 {
		cfg.LLCHitNs = 30
	}
	if cfg.FaultLatencyNs <= 0 {
		cfg.FaultLatencyNs = badgertrap.DefaultFaultLatencyNs
	}
	if cfg.VirtBase == 0 {
		cfg.VirtBase = addr.Virt(1) << 40
	}
	if cfg.VirtBase.Base2M() != cfg.VirtBase {
		return nil, fmt.Errorf("sim: VirtBase %s not 2MB-aligned", cfg.VirtBase)
	}
	wm, err := walk.NewModel(cfg.Walk)
	if err != nil {
		return nil, err
	}
	vpid := tlb.VPID(1)
	if cfg.VM.Mode == vm.Native {
		vpid = tlb.HostVPID
	}
	guest, err := vm.New(cfg.VM, vpid)
	if err != nil {
		return nil, err
	}
	sys, err := mem.NewHierarchy(cfg.TierSpecs()...)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	pt := pagetable.New()
	if cfg.Sparse {
		pt.EnableSpans()
	}
	m := &Machine{
		cfg:          cfg,
		sys:          sys,
		pt:           pt,
		tl:           tlb.New(cfg.TLB),
		llc:          cache.New(cfg.LLC),
		wm:           wm,
		guest:        guest,
		next:         cfg.VirtBase,
		latHist:      stats.NewHistogram(),
		tierAccesses: make([]stats.Counter, sys.NumTiers()),
	}
	m.tierReadLat = make([]int64, sys.NumTiers())
	m.tierWriteLat = make([]int64, sys.NumTiers())
	m.batchTierAcc = make([]uint64, sys.NumTiers())
	for t := 0; t < sys.NumTiers(); t++ {
		spec := sys.Tier(mem.TierID(t)).Spec()
		m.tierReadLat[t] = spec.ReadLatency
		m.tierWriteLat[t] = spec.WriteLatency
	}
	m.fastReadLat = m.tierReadLat[mem.Fast]
	m.trap = badgertrap.New(m.pt, m.tl, cfg.FaultLatencyNs)
	m.reg = fault.NewRegistry()
	m.reg.Register(fault.Poison, m.trap)
	// The machine owns one traffic meter and shares it with the migrator,
	// so every migration — whoever initiates it — lands in the same
	// traffic matrix that Metrics and the N-tier reports read.
	m.meter = mem.NewMeter(0)
	m.mig = numa.NewMigrator(m.sys, m.pt, m.tl, m.meter)
	if inj := chaos.New(cfg.Chaos); inj != nil {
		m.chaos = inj
		m.mig.SetInjector(inj, func() int64 { return m.clock })
	}
	if cfg.Recorder != nil {
		m.SetRecorder(cfg.Recorder)
	}
	return m, nil
}

// Component accessors, used by policies and tests.

// PageTable returns the guest page table.
func (m *Machine) PageTable() *pagetable.Table { return m.pt }

// TLB returns the translation caches.
func (m *Machine) TLB() *tlb.TLB { return m.tl }

// LLC returns the last-level cache model.
func (m *Machine) LLC() *cache.Cache { return m.llc }

// Memory returns the tiered memory system.
func (m *Machine) Memory() *mem.System { return m.sys }

// Trap returns the BadgerTrap instance.
func (m *Machine) Trap() *badgertrap.Trap { return m.trap }

// Migrator returns the page migration engine.
func (m *Machine) Migrator() *numa.Migrator { return m.mig }

// Meter returns the machine's inter-tier traffic meter, shared with the
// migrator.
func (m *Machine) Meter() *mem.Meter { return m.meter }

// Recorder returns the telemetry sink (nil when telemetry is off). Policies
// and daemons emit their events through it, guarding with a nil check.
func (m *Machine) Recorder() telemetry.Recorder { return m.rec }

// SetRecorder installs (or, with nil, removes) the telemetry sink and hooks
// the migrator so every page move emits a Migrated event stamped with the
// machine's virtual clock.
func (m *Machine) SetRecorder(r telemetry.Recorder) {
	m.rec = r
	if r == nil {
		m.mig.SetObserver(nil)
		return
	}
	m.mig.SetObserver(func(v addr.Virt, src, dst mem.TierID, bytes uint64, kind mem.TrafficKind, costNs int64) {
		r.Event(telemetry.Event{
			Kind: telemetry.KindMigrated, TimeNs: m.clock, Page: v,
			FromTier: int8(src), ToTier: int8(dst), Bytes: bytes,
		})
	})
}

// Injector returns the chaos fault injector (nil when chaos is off).
func (m *Machine) Injector() *chaos.Injector { return m.chaos }

// FaultReport returns the machine-level chaos summary: injected-fault counts
// from the injector plus migration-transaction rollbacks from the migrator.
// Policy layers (core.Engine) add their retry/quarantine counts on top.
func (m *Machine) FaultReport() chaos.Report {
	r := m.chaos.Report()
	r.RolledBack = m.mig.Rollbacks()
	return r
}

// Guest returns the virtualization layer.
func (m *Machine) Guest() *vm.VM { return m.guest }

// VPID returns the guest's TLB tag.
func (m *Machine) VPID() tlb.VPID { return m.guest.VPID() }

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Mode returns the slow-memory costing mode.
func (m *Machine) Mode() SlowMemMode { return m.cfg.Mode }

// Clock returns the virtual time in nanoseconds.
func (m *Machine) Clock() int64 { return m.clock }

// AdvanceClock adds application compute time (divided across threads).
func (m *Machine) AdvanceClock(ns int64) {
	m.clock += ns / int64(m.cfg.Threads)
}

// ChargeDaemon accounts policy CPU time off the application critical path.
func (m *Machine) ChargeDaemon(ns int64) { m.daemonNs += ns }

// DaemonNs returns accumulated policy CPU time.
func (m *Machine) DaemonNs() int64 { return m.daemonNs }

// AllocRegion maps size bytes (rounded up to whole pages) of fresh virtual
// address space backed by the fast tier. With huge=true the region is backed
// by 2MB THP mappings; otherwise by 4KB mappings (THP disabled, or
// page-cache pages without hugetmpfs).
func (m *Machine) AllocRegion(size uint64, huge bool) (addr.Range, error) {
	if size == 0 {
		return addr.Range{}, fmt.Errorf("sim: AllocRegion of zero size")
	}
	// Round the region itself to 2MB so the bump pointer stays aligned.
	rounded := (size + addr.PageSize2M - 1) / addr.PageSize2M * addr.PageSize2M
	start := m.next
	r := addr.NewRange(start, size)
	fast := m.sys.Tier(mem.Fast)
	if huge && m.cfg.Sparse {
		// Sparse mode: the whole region is one span record over one
		// physically contiguous run — the same frames the per-page loop
		// below would hand out from a fresh tier, at O(1) state.
		pages := int(rounded / addr.PageSize2M)
		p, err := fast.AllocContig2M(pages)
		if err != nil {
			return addr.Range{}, fmt.Errorf("sim: AllocRegion: %w", err)
		}
		if err := m.pt.MapSpan(start, p, pages, pagetable.Writable); err != nil {
			return addr.Range{}, err
		}
	} else if huge {
		for v := start; v < start+addr.Virt(rounded); v += addr.Virt(addr.PageSize2M) {
			p, err := fast.Alloc2M()
			if err != nil {
				return addr.Range{}, fmt.Errorf("sim: AllocRegion: %w", err)
			}
			if err := m.pt.Map2M(v, p, pagetable.Writable); err != nil {
				return addr.Range{}, err
			}
		}
	} else {
		nPages := (size + addr.PageSize4K - 1) / addr.PageSize4K
		for i := uint64(0); i < nPages; i++ {
			v := start + addr.Virt(i*addr.PageSize4K)
			p, err := fast.Alloc4K()
			if err != nil {
				return addr.Range{}, fmt.Errorf("sim: AllocRegion: %w", err)
			}
			if err := m.pt.Map4K(v, p, pagetable.Writable); err != nil {
				return addr.Range{}, err
			}
		}
	}
	m.next = start + addr.Virt(rounded)
	return r, nil
}

// FreeRegion unmaps every leaf in r and returns its frames to their owning
// tiers — the munmap path a departing tenant takes. Poisoned leaves are
// disarmed, split huge pages are collapsed back to their 2MB allocation
// grain, the TLB range is shot down (including transient BadgerTrap
// translations), and the trap's per-page fault counts for the range are
// dropped. The LLC is deliberately not flushed: real kernels do not flush
// caches on munmap, and recycled frames genuinely keep their lines warm.
//
// Returns the freed bytes per tier, indexed by mem.TierID. Freed virtual
// addresses are never reused (the region allocator only bumps forward).
func (m *Machine) FreeRegion(r addr.Range) ([]uint64, error) {
	type leafInfo struct {
		base addr.Virt
		lvl  pagetable.Level
		poi  bool
		spl  bool
	}
	// Span-held pages first: whole cold runs return to their tier in bulk,
	// trimming any span that accretion merged across the range boundary.
	freed := make([]uint64, m.sys.NumTiers())
	for _, run := range m.pt.UnmapSpansRange(r) {
		tier := m.sys.TierOf(run.Pbase)
		for i := 0; i < run.Pages; i++ {
			m.sys.Tier(tier).Free2M(run.Pbase + addr.Phys(uint64(i)*addr.PageSize2M))
		}
		freed[tier] += uint64(run.Pages) * addr.PageSize2M
	}
	var leaves []leafInfo
	m.pt.ScanRange(r, func(base addr.Virt, e *pagetable.Entry, lvl pagetable.Level) {
		leaves = append(leaves, leafInfo{
			base: base, lvl: lvl,
			poi: e.Flags.Has(pagetable.Poisoned),
			spl: e.Flags.Has(pagetable.SplitSampled),
		})
	})
	// Disarm monitoring, then restore sampled pages to their 2MB allocation
	// grain so each Unmap returns exactly one allocator block.
	var collapse []addr.Virt
	for _, l := range leaves {
		if l.poi {
			if err := m.trap.Unpoison(l.base); err != nil {
				return nil, fmt.Errorf("sim: FreeRegion: %w", err)
			}
		}
		if hv := l.base.Base2M(); l.spl &&
			(len(collapse) == 0 || collapse[len(collapse)-1] != hv) {
			collapse = append(collapse, hv)
		}
	}
	for _, hv := range collapse {
		if err := m.pt.Collapse(hv); err != nil {
			return nil, fmt.Errorf("sim: FreeRegion: %w", err)
		}
	}
	// Re-scan (the leaf set changed shape), then unmap and free.
	var final []leafInfo
	m.pt.ScanRange(r, func(base addr.Virt, e *pagetable.Entry, lvl pagetable.Level) {
		final = append(final, leafInfo{base: base, lvl: lvl})
	})
	for _, l := range final {
		e, lvl, err := m.pt.Unmap(l.base)
		if err != nil {
			return nil, fmt.Errorf("sim: FreeRegion: %w", err)
		}
		tier := m.sys.TierOf(e.Frame)
		if lvl == pagetable.Level2M {
			m.sys.Tier(tier).Free2M(e.Frame)
			freed[tier] += addr.PageSize2M
		} else {
			m.sys.Tier(tier).Free4K(e.Frame)
			freed[tier] += addr.PageSize4K
		}
	}
	m.tl.InvalidateRange(r, m.VPID())
	m.trap.ForgetRange(r)
	return freed, nil
}

// Demote moves the 2MB region containing v one tier down the hierarchy and
// arms PMD-grain poisoning on it. The poison serves double duty: in
// EmulatedFault mode it is the slow-memory emulation itself (each TLB miss
// to the page costs a ~1us fault, per the paper's methodology), and in both
// modes its fault counts are the §3.5 access monitoring policies read. In
// the paper's two-tier configuration this is exactly fast→slow. Returns
// the migration cost in nanoseconds.
func (m *Machine) Demote(v addr.Virt) (int64, error) {
	src, err := m.mig.TierOfPage(v.Base2M())
	if err != nil {
		return 0, err
	}
	if src >= m.sys.Bottom() {
		return 0, fmt.Errorf("sim: %s already in the bottom (%s) tier", v.Base2M(), m.sys.Tier(src).Name())
	}
	// Whether monitoring must be armed is decided up front so an injected
	// poison failure strikes before any state changes (the demotion is then
	// a clean no-op, trivially transactional).
	needArm := !m.trap.IsPoisoned(v.Base2M())
	if needArm && m.chaos != nil {
		if f := m.chaos.Inject(chaos.PoisonArm, m.clock); f != nil {
			return 0, fmt.Errorf("sim: Demote %s: %w", v.Base2M(), f)
		}
	}
	cost, err := m.mig.MoveHuge(v, src+1, m.VPID(), mem.Demotion)
	if err != nil {
		return 0, err
	}
	if !needArm {
		// Already monitored (page was below the top tier before); the
		// poison carries over to the new frame's mapping unchanged.
		return cost, nil
	}
	if err := m.trap.Poison(v.Base2M(), m.VPID()); err != nil {
		return 0, err
	}
	return cost, nil
}

// Promote moves the 2MB region containing v one tier up the hierarchy. The
// poison is disarmed for the move and re-armed when the destination is
// still below the top tier (monitoring and slow-memory emulation continue
// there); a page reaching the fast tier stops being monitored. In the
// paper's two-tier configuration this is exactly slow→fast. Returns the
// migration cost in nanoseconds.
func (m *Machine) Promote(v addr.Virt) (int64, error) {
	base := v.Base2M()
	src, err := m.mig.TierOfPage(base)
	if err != nil {
		return 0, err
	}
	if src == mem.Fast {
		return 0, fmt.Errorf("sim: %s already in the top (%s) tier", base, m.sys.Tier(mem.Fast).Name())
	}
	armed := m.trap.IsPoisoned(base)
	if m.chaos != nil {
		// Both poison-site faults strike before any state changes, so a
		// failed promotion is a clean no-op.
		if armed {
			if f := m.chaos.Inject(chaos.PoisonDisarm, m.clock); f != nil {
				return 0, fmt.Errorf("sim: Promote %s: %w", base, f)
			}
		}
		if src-1 != mem.Fast {
			if f := m.chaos.Inject(chaos.PoisonArm, m.clock); f != nil {
				return 0, fmt.Errorf("sim: Promote %s: %w", base, f)
			}
		}
	}
	if armed {
		if err := m.trap.Unpoison(base); err != nil {
			return 0, err
		}
	}
	cost, err := m.mig.MoveHuge(base, src-1, m.VPID(), mem.Promotion)
	if err != nil {
		// The move rolled back; re-arm the poison disarmed above so a
		// failed promotion leaves monitoring (and slow-memory emulation)
		// exactly as it was.
		if armed {
			if perr := m.trap.Poison(base, m.VPID()); perr != nil {
				return 0, fmt.Errorf("sim: Promote %s: re-arm after failed move: %v (move error: %w)", base, perr, err)
			}
		}
		return 0, err
	}
	if src-1 != mem.Fast {
		if err := m.trap.Poison(base, m.VPID()); err != nil {
			return 0, err
		}
	}
	return cost, nil
}

// Access simulates one memory access to v, charging the full latency path
// and advancing the virtual clock by latency/threads. Returns the modeled
// latency of this access.
func (m *Machine) Access(v addr.Virt, write bool) (int64, error) {
	var lat int64
	var frame addr.Phys
	var lvl pagetable.Level

	vpid := m.guest.VPID()
	if res, ok := m.tl.Lookup(v, vpid); ok {
		lat += m.cfg.TLBHitNs
		frame, lvl = res.Frame, res.Level
	} else {
		// Hardware page walk.
		wr := m.pt.Walk(v, write)
		if !wr.Found {
			return 0, fmt.Errorf("sim: access to unmapped %s", v)
		}
		lat += m.wm.Latency(m.guest.Nested(), wr.Depth, m.guest.HostWalkDepth())
		if wr.Poisoned {
			// Protection fault: BadgerTrap services it (counts the
			// access, installs a transient translation, re-poisons).
			fl, err := m.reg.Dispatch(fault.Fault{
				Kind: fault.Poison, Virt: v, Write: write,
				VPID: vpid, TimeNs: m.clock,
			})
			if err != nil {
				return 0, err
			}
			lat += fl + m.guest.FaultOverheadNs()
			if m.rec != nil {
				m.rec.Event(telemetry.Event{
					Kind: telemetry.KindFaultInjected, TimeNs: m.clock,
					Page: v.Base4K(), Count: 1,
				})
			}
			res, ok := m.tl.Lookup(v, vpid)
			if !ok {
				return 0, fmt.Errorf("sim: fault handler left %s untranslated", v)
			}
			frame, lvl = res.Frame, res.Level
		} else {
			frame, lvl = wr.Entry.Frame, wr.Level
			m.tl.Insert(v, lvl, frame, vpid)
		}
	}

	// Physical address of the accessed byte.
	var pa addr.Phys
	if lvl == pagetable.Level2M {
		pa = frame + addr.Phys(v.Offset2M())
	} else {
		pa = frame + addr.Phys(v.Offset4K())
	}
	tier := m.sys.TierOf(pa)
	m.tierAccesses[tier].Inc()
	if tier != mem.Fast {
		m.slowAccesses.Inc()
	}

	// Cache hierarchy and memory device.
	if m.llc.Access(pa) {
		lat += m.cfg.LLCHitNs
	} else {
		if m.pcEnabled {
			m.countPage(v)
		}
		if m.missHook != nil {
			lat += m.missHook(v, write)
		}
		switch {
		case m.cfg.Mode == EmulatedFault && tier != mem.Fast:
			// Paper methodology: data physically in DRAM; the poison
			// fault above supplied the emulated slow latency. Charge
			// DRAM device time for the actual fill.
			lat += m.fastReadLat
		case write:
			lat += m.tierWriteLat[tier]
		default:
			lat += m.tierReadLat[tier]
		}
	}

	m.accesses.Inc()
	m.latHist.Observe(uint64(lat))
	m.clock += lat / int64(m.cfg.Threads)
	return lat, nil
}

// Req is one memory access request, the element type of AccessBatch and
// BatchApp.NextBatch.
type Req struct {
	V     addr.Virt
	Write bool
}

// BatchSafe reports whether AccessBatch currently follows the exact same
// code path as per-op Access calls. A miss hook is the one per-access
// callback that could observe the difference, so it disables batching.
func (m *Machine) BatchSafe() bool { return m.missHook == nil }

// MaxOpAdvanceNs returns a conservative upper bound on how far one access
// followed by computeNs of application compute can advance the virtual
// clock. The runner sizes batches so that (n-1) ops at this bound cannot
// reach the next tick/window boundary, which makes batched execution
// boundary-exact (see DESIGN.md "Hot path"). Overestimating only shrinks
// batches; it never affects results.
func (m *Machine) MaxOpAdvanceNs(computeNs int64) int64 {
	if m.maxAccessLat == 0 {
		walkMax := m.wm.Latency(m.guest.Nested(), 4, m.guest.HostWalkDepth())
		devMax := int64(0)
		for t := range m.tierReadLat {
			if m.tierReadLat[t] > devMax {
				devMax = m.tierReadLat[t]
			}
			if m.tierWriteLat[t] > devMax {
				devMax = m.tierWriteLat[t]
			}
		}
		m.maxAccessLat = m.cfg.TLBHitNs + walkMax + m.cfg.FaultLatencyNs +
			m.guest.FaultOverheadNs() + m.cfg.LLCHitNs + devMax
	}
	threads := int64(m.cfg.Threads)
	return m.maxAccessLat/threads + computeNs/threads + 1
}

// AccessBatch simulates len(reqs) consecutive accesses, equivalent to
// calling Access for each request followed by AdvanceClock(computeNs) when
// computeNs > 0 — same latencies, same clock trajectory, same fault and
// telemetry behavior — but with the per-op bookkeeping amortized: the VPID
// is fetched once, tier and access counters accumulate locally and flush
// once per batch (Metrics is only read at boundaries, which the runner
// keeps outside batches). lats[i] receives each op's modeled latency;
// clocks, when non-nil, receives the virtual time after each op.
func (m *Machine) AccessBatch(reqs []Req, computeNs int64, lats, clocks []int64) (err error) {
	threads := int64(m.cfg.Threads)
	vpid := m.guest.VPID()
	var nAcc, nSlow uint64
	tierAcc := m.batchTierAcc
	for i := range tierAcc {
		tierAcc[i] = 0
	}
	defer func() {
		m.accesses.Add(nAcc)
		m.slowAccesses.Add(nSlow)
		for t, n := range tierAcc {
			if n > 0 {
				m.tierAccesses[t].Add(n)
			}
		}
	}()

	for i := range reqs {
		v, write := reqs[i].V, reqs[i].Write
		var lat int64
		var frame addr.Phys
		var lvl pagetable.Level

		if res, ok := m.tl.Lookup(v, vpid); ok {
			lat += m.cfg.TLBHitNs
			frame, lvl = res.Frame, res.Level
		} else {
			wr := m.pt.Walk(v, write)
			if !wr.Found {
				return fmt.Errorf("sim: access to unmapped %s", v)
			}
			lat += m.wm.Latency(m.guest.Nested(), wr.Depth, m.guest.HostWalkDepth())
			if wr.Poisoned {
				fl, ferr := m.reg.Dispatch(fault.Fault{
					Kind: fault.Poison, Virt: v, Write: write,
					VPID: vpid, TimeNs: m.clock,
				})
				if ferr != nil {
					return ferr
				}
				lat += fl + m.guest.FaultOverheadNs()
				if m.rec != nil {
					m.rec.Event(telemetry.Event{
						Kind: telemetry.KindFaultInjected, TimeNs: m.clock,
						Page: v.Base4K(), Count: 1,
					})
				}
				res, ok := m.tl.Lookup(v, vpid)
				if !ok {
					return fmt.Errorf("sim: fault handler left %s untranslated", v)
				}
				frame, lvl = res.Frame, res.Level
			} else {
				frame, lvl = wr.Entry.Frame, wr.Level
				m.tl.Insert(v, lvl, frame, vpid)
			}
		}

		var pa addr.Phys
		if lvl == pagetable.Level2M {
			pa = frame + addr.Phys(v.Offset2M())
		} else {
			pa = frame + addr.Phys(v.Offset4K())
		}
		tier := m.sys.TierOf(pa)
		tierAcc[tier]++
		if tier != mem.Fast {
			nSlow++
		}

		if m.llc.Access(pa) {
			lat += m.cfg.LLCHitNs
		} else {
			if m.pcEnabled {
				m.countPage(v)
			}
			switch {
			case m.cfg.Mode == EmulatedFault && tier != mem.Fast:
				lat += m.fastReadLat
			case write:
				lat += m.tierWriteLat[tier]
			default:
				lat += m.tierReadLat[tier]
			}
		}

		nAcc++
		m.latHist.Observe(uint64(lat))
		// Two separate floored divisions, exactly as Access followed by
		// AdvanceClock performs them.
		m.clock += lat / threads
		if computeNs > 0 {
			m.clock += computeNs / threads
		}
		lats[i] = lat
		if clocks != nil {
			clocks[i] = m.clock
		}
	}
	return nil
}

// SetMissHook installs an observer invoked on every LLC miss; its return
// value is added to the access latency. Pass nil to remove. Used by the
// §6.1 hardware-assisted access-counting models.
func (m *Machine) SetMissHook(h func(v addr.Virt, write bool) int64) {
	m.missHook = h
}

// EnablePageCounts turns on ground-truth per-2MB-page memory access (LLC
// miss) counting. This is simulator-only instrumentation: the paper's
// motivation is precisely that real x86 hardware cannot observe this.
func (m *Machine) EnablePageCounts() {
	if !m.pcEnabled {
		m.pcEnabled = true
		m.pcBase = m.cfg.VirtBase
	}
}

// countPage records one LLC miss against the 2MB page containing v. Regions
// are bump-allocated from pcBase, so the common case is one bounds check and
// a slice increment; addresses below the base (never produced by
// AllocRegion) fall back to a map to keep semantics identical.
func (m *Machine) countPage(v addr.Virt) {
	if v >= m.pcBase {
		idx := uint64(v-m.pcBase) >> addr.PageShift2M
		if idx >= uint64(len(m.pcCounts)) {
			grown := make([]uint64, idx+1, (idx+1)*2)
			copy(grown, m.pcCounts)
			m.pcCounts = grown
		}
		m.pcCounts[idx]++
		return
	}
	if m.pcLow == nil {
		m.pcLow = make(map[addr.Virt]uint64)
	}
	m.pcLow[v.Base2M()]++
}

// PageCounts returns a copy of the ground-truth per-2MB-page access counts
// since EnablePageCounts (nil if disabled). Only pages with at least one
// recorded miss appear, matching the map-increment implementation this
// reconstructs.
func (m *Machine) PageCounts() map[addr.Virt]uint64 {
	if !m.pcEnabled {
		return nil
	}
	out := make(map[addr.Virt]uint64, len(m.pcCounts)+len(m.pcLow))
	for i, c := range m.pcCounts {
		if c != 0 {
			out[m.pcBase+addr.Virt(uint64(i)<<addr.PageShift2M)] = c
		}
	}
	for k, c := range m.pcLow {
		out[k] = c
	}
	return out
}

// ResetPageCounts clears the ground-truth counters (keeps counting enabled).
func (m *Machine) ResetPageCounts() {
	for i := range m.pcCounts {
		m.pcCounts[i] = 0
	}
	m.pcLow = nil
}

// Sparse reports whether the machine runs the hybrid span-compressed page
// table.
func (m *Machine) Sparse() bool { return m.cfg.Sparse }

// StateBytes estimates the machine's footprint-dependent simulator state:
// page table (radix nodes, leaf index, spans), tier allocators, BadgerTrap
// fault counts, and the ground-truth page counters. Fixed-size components
// (TLB, LLC, walk model) are excluded — the scaling gate tracks how state
// grows with simulated footprint, and they don't.
func (m *Machine) StateBytes() uint64 {
	return m.pt.StateBytes() + m.sys.StateBytes() + m.trap.StateBytes() +
		uint64(cap(m.pcCounts))*8 + uint64(len(m.pcLow))*24
}

// Metrics returns a snapshot of the machine counters. The histogram is the
// live aggregation; callers must not mutate it.
func (m *Machine) Metrics() Metrics {
	perTier := make([]uint64, len(m.tierAccesses))
	for i := range m.tierAccesses {
		perTier[i] = m.tierAccesses[i].Value()
	}
	return Metrics{
		Accesses:       m.accesses.Value(),
		SlowAccesses:   m.slowAccesses.Value(),
		TierAccesses:   perTier,
		PoisonFaults:   m.trap.TotalFaults(),
		TLB:            m.tl.Stats(),
		LLC:            m.llc.Stats(),
		AccessLatency:  m.latHist,
		ClockNs:        m.clock,
		MigrationBytes: m.meter.TotalBytes(),
	}
}
