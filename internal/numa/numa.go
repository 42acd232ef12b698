// Package numa provides the page-migration mechanism Thermostat uses to move
// data between memory tiers. The paper exposes slow memory to the guest as a
// separate NUMA zone and moves pages with the kernel's existing migration
// machinery; here each mem.Tier is a zone and the Migrator reproduces
// migrate_pages semantics: allocate in the destination, copy, remap, flush
// the TLB, free the source frame.
//
// The Migrator moves pages between any ordered tier pair of an N-tier
// hierarchy; copy cost is bounded by the slower endpoint's bandwidth. It
// meters traffic by direction and by (src, dst) pair so the harness can
// report the paper's Table 3 (migration rate vs. false-classification rate)
// and the N-tier per-pair traffic matrix.
package numa

import (
	"fmt"

	"thermostat/internal/addr"
	"thermostat/internal/chaos"
	"thermostat/internal/mem"
	"thermostat/internal/pagetable"
	"thermostat/internal/tlb"
)

// DefaultPerPageOverheadNs approximates the kernel's fixed migrate_pages
// bookkeeping cost per page (unmap, copy setup, remap).
const DefaultPerPageOverheadNs = 3000

// Observer is notified after every successful page migration — the
// telemetry layer's attachment point. It must not migrate pages itself.
type Observer func(v addr.Virt, src, dst mem.TierID, bytes uint64, kind mem.TrafficKind, costNs int64)

// Migrator moves pages between tiers. Every move is transactional: it either
// commits fully (remap + shootdown + source freed + traffic metered) or
// rolls back so page data, PTE flags, poison state, and tier occupancy are
// exactly as before the attempt.
type Migrator struct {
	sys   *mem.System
	pt    *pagetable.Table
	tl    *tlb.TLB
	meter *mem.Meter

	observer Observer

	inj       *chaos.Injector
	clock     func() int64
	rollbacks uint64

	perPageOverheadNs int64
}

// NewMigrator builds a migrator over the given memory system, page table and
// TLB. Traffic is recorded into meter.
func NewMigrator(sys *mem.System, pt *pagetable.Table, tl *tlb.TLB, meter *mem.Meter) *Migrator {
	return &Migrator{
		sys: sys, pt: pt, tl: tl, meter: meter,
		perPageOverheadNs: DefaultPerPageOverheadNs,
	}
}

// Meter returns the traffic meter.
func (m *Migrator) Meter() *mem.Meter { return m.meter }

// SetObserver installs fn to be called after every successful migration
// (nil removes). The machine uses this to emit telemetry Migrated events
// with its virtual clock.
func (m *Migrator) SetObserver(fn Observer) { m.observer = fn }

// SetInjector installs a chaos injector (nil removes) and the virtual-clock
// source used to stamp injected faults. With a nil injector the migrator's
// behavior — including its allocation profile — is unchanged.
func (m *Migrator) SetInjector(inj *chaos.Injector, clock func() int64) {
	m.inj = inj
	m.clock = clock
}

// Rollbacks returns how many migration transactions were aborted after
// destination allocation and fully undone.
func (m *Migrator) Rollbacks() uint64 { return m.rollbacks }

func (m *Migrator) now() int64 {
	if m.clock == nil {
		return 0
	}
	return m.clock()
}

// undoRec captures one leaf's pre-move mapping so rollback can restore it.
type undoRec struct {
	v     addr.Virt
	frame addr.Phys
	flags pagetable.Flags
}

// abort rolls back a partially-applied move: already-remapped leaves are
// remapped onto their original frames with their exact prior flag words
// (Remap clears Accessed|Dirty, so flags are restored through EntryRef),
// stale translations are shot down, and the destination frame is freed.
// Invalidate is idempotent, so re-shooting a leaf invalidated on the forward
// path is harmless.
func (m *Migrator) abort(dst mem.TierID, frame addr.Phys, huge bool, log []undoRec, vpid tlb.VPID) {
	for i := len(log) - 1; i >= 0; i-- {
		u := log[i]
		if _, err := m.pt.Remap(u.v, u.frame); err != nil {
			// The leaf was remapped moments ago; undoing it cannot fail.
			panic(fmt.Sprintf("numa: rollback remap of %s failed: %v", u.v, err))
		}
		if e, _, ok := m.pt.EntryRef(u.v); ok {
			e.Flags = u.flags
		}
		m.tl.Invalidate(u.v, vpid)
	}
	if huge {
		m.sys.Tier(dst).Free2M(frame)
	} else {
		m.sys.Tier(dst).Free4K(frame)
	}
	m.rollbacks++
}

// copyCost returns the virtual-time cost of copying n bytes between tiers,
// bounded by the slower tier's bandwidth.
func (m *Migrator) copyCost(src, dst mem.TierID, n uint64) int64 {
	bw := m.sys.Tier(src).Spec().Bandwidth
	if b := m.sys.Tier(dst).Spec().Bandwidth; b < bw {
		bw = b
	}
	if bw <= 0 {
		return m.perPageOverheadNs
	}
	return int64(float64(n)/bw*1e9) + m.perPageOverheadNs
}

// TierOfPage returns the tier currently backing the leaf mapping v.
func (m *Migrator) TierOfPage(v addr.Virt) (mem.TierID, error) {
	e, _, ok := m.pt.Lookup(v)
	if !ok {
		return 0, fmt.Errorf("numa: %s unmapped", v)
	}
	return m.sys.TierOf(e.Frame), nil
}

// MoveHuge migrates the entire 2MB region containing v to tier dst. The
// region may be mapped as a single huge leaf or as 512 split 4KB leaves over
// one physical 2MB frame (a sampled page); in the split case the mapping
// stays split — children are remapped onto the new frame preserving their
// flags (including Poisoned, so §3.5 monitoring survives migration).
//
// Returns the virtual-time cost. Migrating a page already in dst is an
// error; callers decide placement first.
func (m *Migrator) MoveHuge(v addr.Virt, dst mem.TierID, vpid tlb.VPID, kind mem.TrafficKind) (int64, error) {
	hv := v.Base2M()
	e, lvl, ok := m.pt.Lookup(hv)
	if !ok {
		return 0, fmt.Errorf("numa: MoveHuge of unmapped %s", hv)
	}
	src := m.sys.TierOf(e.Frame)
	if src == dst {
		return 0, fmt.Errorf("numa: %s already in %s tier", hv, m.sys.Tier(dst).Name())
	}
	var now int64
	if m.inj != nil {
		now = m.now()
	}
	if f := m.inj.Inject(chaos.DestFull, now); f != nil {
		f.Cause = mem.ErrOutOfMemory
		return 0, fmt.Errorf("numa: MoveHuge %s: %w", hv, f)
	}
	newFrame, err := m.sys.Tier(dst).Alloc2M()
	if err != nil {
		return 0, fmt.Errorf("numa: MoveHuge %s: %w", hv, err)
	}

	oldBase := e.Frame.Base2M()
	switch lvl {
	case pagetable.Level2M:
		if f := m.inj.Inject(chaos.MigrateCopy, now); f != nil {
			m.abort(dst, newFrame, true, nil, vpid)
			return 0, fmt.Errorf("numa: MoveHuge %s: %w", hv, f)
		}
		oldFlags := e.Flags
		if _, err := m.pt.Remap(hv, newFrame); err != nil {
			m.abort(dst, newFrame, true, nil, vpid)
			return 0, err
		}
		if f := m.inj.Inject(chaos.TLBShootdown, now); f != nil {
			m.abort(dst, newFrame, true, []undoRec{{hv, oldBase, oldFlags}}, vpid)
			return 0, fmt.Errorf("numa: MoveHuge %s: %w", hv, f)
		}
		m.tl.Invalidate(hv, vpid)
	case pagetable.Level4K:
		// Split region: verify contiguity over the old frame, then remap
		// every child.
		for i := 0; i < addr.PagesPerHuge; i++ {
			cv := hv + addr.Virt(uint64(i)*addr.PageSize4K)
			ce, clvl, ok := m.pt.Lookup(cv)
			if !ok || clvl != pagetable.Level4K {
				m.abort(dst, newFrame, true, nil, vpid)
				return 0, fmt.Errorf("numa: MoveHuge %s: child %d not 4K-mapped", hv, i)
			}
			if ce.Frame.Base2M() != oldBase {
				m.abort(dst, newFrame, true, nil, vpid)
				return 0, fmt.Errorf("numa: MoveHuge %s: child %d not contiguous", hv, i)
			}
		}
		// Mid-copy abort point: when MigrateCopy fires, the transaction
		// dies at a deterministic child index with the first failAt
		// children already remapped — rollback must restore them.
		failAt := -1
		var copyFault *chaos.Fault
		if f := m.inj.Inject(chaos.MigrateCopy, now); f != nil {
			failAt = m.inj.AbortIndex(addr.PagesPerHuge)
			copyFault = f
		}
		var undo []undoRec
		if m.inj != nil {
			undo = make([]undoRec, 0, addr.PagesPerHuge)
		}
		for i := 0; i < addr.PagesPerHuge; i++ {
			cv := hv + addr.Virt(uint64(i)*addr.PageSize4K)
			if i == failAt {
				m.abort(dst, newFrame, true, undo, vpid)
				return 0, fmt.Errorf("numa: MoveHuge %s: %w", hv, copyFault)
			}
			ce, _, _ := m.pt.Lookup(cv)
			poisoned := ce.Flags.Has(pagetable.Poisoned)
			if undo != nil {
				undo = append(undo, undoRec{cv, ce.Frame, ce.Flags})
			}
			if _, err := m.pt.Remap(cv, newFrame+addr.Phys(uint64(i)*addr.PageSize4K)); err != nil {
				// Unreachable after the verification pass; fail loudly.
				panic(fmt.Sprintf("numa: remap of verified child failed: %v", err))
			}
			if poisoned {
				m.pt.SetFlags(cv, pagetable.Poisoned)
			}
			m.tl.Invalidate(cv, vpid)
		}
		if f := m.inj.Inject(chaos.TLBShootdown, now); f != nil {
			m.abort(dst, newFrame, true, undo, vpid)
			return 0, fmt.Errorf("numa: MoveHuge %s: %w", hv, f)
		}
	}

	m.sys.Tier(src).Free2M(oldBase)
	m.meter.RecordPair(kind, src, dst, addr.PageSize2M)
	cost := m.copyCost(src, dst, addr.PageSize2M)
	if m.observer != nil {
		m.observer(hv, src, dst, addr.PageSize2M, kind, cost)
	}
	return cost, nil
}

// Move4K migrates a single natively-4K-mapped page (one whose frame was
// allocated at 4KB grain, e.g. file-cache mappings) to tier dst.
func (m *Migrator) Move4K(v addr.Virt, dst mem.TierID, vpid tlb.VPID, kind mem.TrafficKind) (int64, error) {
	pv := v.Base4K()
	e, lvl, ok := m.pt.Lookup(pv)
	if !ok {
		return 0, fmt.Errorf("numa: Move4K of unmapped %s", pv)
	}
	if lvl != pagetable.Level4K {
		return 0, fmt.Errorf("numa: Move4K of huge-mapped %s", pv)
	}
	if e.Flags.Has(pagetable.SplitSampled) {
		return 0, fmt.Errorf("numa: Move4K of split-THP child %s (use MoveHuge)", pv)
	}
	src := m.sys.TierOf(e.Frame)
	if src == dst {
		return 0, fmt.Errorf("numa: %s already in %s tier", pv, m.sys.Tier(dst).Name())
	}
	var now int64
	if m.inj != nil {
		now = m.now()
	}
	if f := m.inj.Inject(chaos.DestFull, now); f != nil {
		f.Cause = mem.ErrOutOfMemory
		return 0, fmt.Errorf("numa: Move4K %s: %w", pv, f)
	}
	newFrame, err := m.sys.Tier(dst).Alloc4K()
	if err != nil {
		return 0, fmt.Errorf("numa: Move4K %s: %w", pv, err)
	}
	if f := m.inj.Inject(chaos.MigrateCopy, now); f != nil {
		m.abort(dst, newFrame, false, nil, vpid)
		return 0, fmt.Errorf("numa: Move4K %s: %w", pv, f)
	}
	oldFrame, oldFlags := e.Frame.Base4K(), e.Flags
	poisoned := e.Flags.Has(pagetable.Poisoned)
	if _, err := m.pt.Remap(pv, newFrame); err != nil {
		m.abort(dst, newFrame, false, nil, vpid)
		return 0, err
	}
	if poisoned {
		m.pt.SetFlags(pv, pagetable.Poisoned)
	}
	if f := m.inj.Inject(chaos.TLBShootdown, now); f != nil {
		m.abort(dst, newFrame, false, []undoRec{{pv, oldFrame, oldFlags}}, vpid)
		return 0, fmt.Errorf("numa: Move4K %s: %w", pv, f)
	}
	m.tl.Invalidate(pv, vpid)
	m.sys.Tier(src).Free4K(oldFrame)
	m.meter.RecordPair(kind, src, dst, addr.PageSize4K)
	cost := m.copyCost(src, dst, addr.PageSize4K)
	if m.observer != nil {
		m.observer(pv, src, dst, addr.PageSize4K, kind, cost)
	}
	return cost, nil
}
