// Package tlb models a two-level translation lookaside buffer with VPID
// (virtual processor ID) tagging, matching the evaluation platform's 64-entry
// per-core L1 and shared 1024-entry L2. Entries exist at 4KB and 2MB grains;
// a 2MB entry gives huge pages their larger reach, which is the TLB half of
// the paper's Table 1 huge-page advantage.
//
// Poisoned translations are never cached: BadgerTrap relies on every access
// to a poisoned page missing the TLB so the poison fault fires (the fault
// handler installs only a transient translation).
package tlb

import (
	"math/bits"

	"thermostat/internal/addr"
	"thermostat/internal/pagetable"
	"thermostat/internal/stats"
)

// VPID tags entries by virtual processor, as KVM does for its guests. VPID 0
// is reserved for the host (and is what a vmexit switches to).
type VPID uint16

// HostVPID is the host's VPID.
const HostVPID VPID = 0

// pack returns the page of v at grain lvl as vl = vpn<<1 | is2M, which with
// the VPID keys a cached translation. A 4KB VPN is at most 52 bits, so the
// pack fits a uint64.
func pack(v addr.Virt, lvl pagetable.Level) uint64 {
	if lvl == pagetable.Level2M {
		return v.PageNum2M()<<1 | 1
	}
	return v.PageNum4K() << 1
}

// unpack returns the base address and grain of a packed page.
func unpack(vl uint64) (addr.Virt, pagetable.Level) {
	if vl&1 != 0 {
		return addr.Virt(vl >> 1 << addr.PageShift2M), pagetable.Level2M
	}
	return addr.Virt(vl >> 1 << addr.PageShift4K), pagetable.Level4K
}

// nilIdx terminates the recency list and the freelist.
const nilIdx int32 = -1

// entry is a cached translation in the slab.
type entry struct {
	vl    uint64
	frame addr.Phys

	prev, next int32 // recency list, most-recent at head; next chains the freelist
	vpid       VPID
}

// lru is a fixed-capacity, fully associative LRU of translations held in
// arrays allocated once: a slab of entries linked into a recency list by
// index, and an open-addressed index over the slab. The index is a
// power-of-two table of slab positions plus one (0 is empty), probed linearly
// from a multiplicative hash and compacted by backward shift on delete, so it
// needs no tombstones. It has at least four slots per entry: a miss probes
// both grains at both levels before it fills and evicts, and a load factor of
// 1/4 rather than 1/2 cut a seeded redis run by a fifth. Removed entries go
// back on a freelist; nothing allocates after newLRU.
type lru struct {
	ents  []entry
	index []int32
	shift uint
	mask  int

	head, tail int32
	free       int32
	n          int
}

func newLRU(capacity int) *lru {
	k := bits.Len(uint(4*capacity - 1)) // 1<<k is the least power of two >= 4*capacity
	l := &lru{ents: make([]entry, capacity), index: make([]int32, 1<<k), shift: uint(64 - k), mask: 1<<k - 1}
	l.clear()
	return l
}

// home is the index slot where a probe for (vl, vpid) starts.
func (l *lru) home(vl uint64, vpid VPID) int {
	return int((vl ^ uint64(vpid)<<48) * 0x9e3779b97f4a7c15 >> l.shift)
}

// find returns the index slot holding (vl, vpid) and its slab position, or
// the empty slot that ends the probe and nilIdx.
func (l *lru) find(vl uint64, vpid VPID) (int, int32) {
	for i := l.home(vl, vpid); ; i = (i + 1) & l.mask {
		s := l.index[i]
		if s == 0 {
			return i, nilIdx
		}
		if e := &l.ents[s-1]; e.vl == vl && e.vpid == vpid {
			return i, s - 1
		}
	}
}

func (l *lru) get(vl uint64, vpid VPID) (addr.Phys, bool) {
	if h := l.head; h != nilIdx && l.ents[h].vl == vl && l.ents[h].vpid == vpid {
		return l.ents[h].frame, true
	}
	_, e := l.find(vl, vpid)
	if e == nilIdx {
		return 0, false
	}
	l.moveToFront(e)
	return l.ents[e].frame, true
}

func (l *lru) put(vl uint64, vpid VPID, frame addr.Phys) {
	slot, e := l.find(vl, vpid)
	if e != nilIdx {
		l.ents[e].frame = frame
		l.moveToFront(e)
		return
	}
	if l.n >= len(l.ents) {
		l.dropEntry(l.tail)
		slot, _ = l.find(vl, vpid)
	}
	e = l.free
	l.free = l.ents[e].next
	l.ents[e] = entry{vl: vl, frame: frame, vpid: vpid}
	l.index[slot] = e + 1
	l.n++
	l.pushFront(e)
}

func (l *lru) remove(vl uint64, vpid VPID) {
	if slot, e := l.find(vl, vpid); e != nilIdx {
		l.drop(slot, e)
	}
}

// dropEntry removes slab entry e, locating its index slot first.
func (l *lru) dropEntry(e int32) {
	i := l.home(l.ents[e].vl, l.ents[e].vpid)
	for l.index[i] != e+1 {
		i = (i + 1) & l.mask
	}
	l.drop(i, e)
}

// drop unlinks slab entry e, frees it and empties its index slot.
func (l *lru) drop(slot int, e int32) {
	l.unlink(e)
	l.unindex(slot)
	l.ents[e].next = l.free
	l.free = e
	l.n--
}

// unindex empties slot i, then shifts later members of its probe run back
// so every entry stays reachable from its home slot without a gap.
func (l *lru) unindex(i int) {
	for j := (i + 1) & l.mask; ; j = (j + 1) & l.mask {
		s := l.index[j]
		if s == 0 {
			break
		}
		e := &l.ents[s-1]
		// The entry at j may fill the hole at i if i lies on its probe
		// path: its home is at least as far back from j as i is.
		if (j-l.home(e.vl, e.vpid))&l.mask >= (j-i)&l.mask {
			l.index[i] = s
			i = j
		}
	}
	l.index[i] = 0
}

func (l *lru) pushFront(e int32) {
	l.ents[e].prev = nilIdx
	l.ents[e].next = l.head
	if l.head != nilIdx {
		l.ents[l.head].prev = e
	}
	l.head = e
	if l.tail == nilIdx {
		l.tail = e
	}
}

func (l *lru) unlink(e int32) {
	p, n := l.ents[e].prev, l.ents[e].next
	if p != nilIdx {
		l.ents[p].next = n
	} else {
		l.head = n
	}
	if n != nilIdx {
		l.ents[n].prev = p
	} else {
		l.tail = p
	}
	l.ents[e].prev, l.ents[e].next = nilIdx, nilIdx
}

func (l *lru) moveToFront(e int32) {
	if l.head == e {
		return
	}
	l.unlink(e)
	l.pushFront(e)
}

// clear empties the LRU and puts the whole slab, in order, on the freelist.
func (l *lru) clear() {
	clear(l.index)
	for i := range l.ents {
		l.ents[i] = entry{prev: nilIdx, next: int32(i + 1)}
	}
	l.ents[len(l.ents)-1].next = nilIdx
	l.head, l.tail, l.free, l.n = nilIdx, nilIdx, 0, 0
}

// removeIf drops every entry pred selects, walking the recency list from the
// head.
func (l *lru) removeIf(pred func(vl uint64, vpid VPID) bool) {
	for e := l.head; e != nilIdx; {
		next := l.ents[e].next
		if pred(l.ents[e].vl, l.ents[e].vpid) {
			l.dropEntry(e)
		}
		e = next
	}
}

// Config sizes the TLB hierarchy.
type Config struct {
	// L1Entries is the per-level-1 capacity (default 64).
	L1Entries int
	// L2Entries is the shared second-level capacity (default 1024).
	L2Entries int
}

// DefaultConfig matches the paper's Xeon E5-2699 v3 testbed.
func DefaultConfig() Config { return Config{L1Entries: 64, L2Entries: 1024} }

// HitLevel says where a lookup was satisfied.
type HitLevel int

// Lookup outcomes.
const (
	// Miss means neither level held the translation.
	Miss HitLevel = iota
	// HitL1 means the first level hit.
	HitL1
	// HitL2 means the second level hit (entry is promoted to L1).
	HitL2
)

// TLB is the two-level translation cache.
type TLB struct {
	l1 *lru
	l2 *lru

	hitsL1 stats.Counter
	hitsL2 stats.Counter
	misses stats.Counter
}

// New builds a TLB from cfg, applying defaults for zero fields.
func New(cfg Config) *TLB {
	if cfg.L1Entries <= 0 {
		cfg.L1Entries = 64
	}
	if cfg.L2Entries <= 0 {
		cfg.L2Entries = 1024
	}
	return &TLB{l1: newLRU(cfg.L1Entries), l2: newLRU(cfg.L2Entries)}
}

// Result is a successful lookup.
type Result struct {
	Frame addr.Phys
	Level pagetable.Level
	Hit   HitLevel
}

// Lookup searches both grains at both levels for a translation of v under
// vpid. On an L2 hit the entry is promoted to L1.
func (t *TLB) Lookup(v addr.Virt, vpid VPID) (Result, bool) {
	for _, lvl := range [2]pagetable.Level{pagetable.Level2M, pagetable.Level4K} {
		vl := pack(v, lvl)
		if frame, ok := t.l1.get(vl, vpid); ok {
			t.hitsL1.Inc()
			t.l2.get(vl, vpid) // keep L2 recency in sync (inclusive hierarchy)
			return Result{Frame: frame, Level: lvl, Hit: HitL1}, true
		}
	}
	for _, lvl := range [2]pagetable.Level{pagetable.Level2M, pagetable.Level4K} {
		vl := pack(v, lvl)
		if frame, ok := t.l2.get(vl, vpid); ok {
			t.hitsL2.Inc()
			t.l1.put(vl, vpid, frame)
			return Result{Frame: frame, Level: lvl, Hit: HitL2}, true
		}
	}
	t.misses.Inc()
	return Result{}, false
}

// Insert caches a translation in both levels (inclusive hierarchy).
func (t *TLB) Insert(v addr.Virt, lvl pagetable.Level, frame addr.Phys, vpid VPID) {
	vl := pack(v, lvl)
	t.l1.put(vl, vpid, frame)
	t.l2.put(vl, vpid, frame)
}

// Invalidate drops any cached translation of v (both grains) under vpid —
// the invlpg analogue, required after poisoning or remapping a page.
func (t *TLB) Invalidate(v addr.Virt, vpid VPID) {
	for _, lvl := range [2]pagetable.Level{pagetable.Level4K, pagetable.Level2M} {
		vl := pack(v, lvl)
		t.l1.remove(vl, vpid)
		t.l2.remove(vl, vpid)
	}
}

// InvalidateVPID drops all translations tagged with vpid.
func (t *TLB) InvalidateVPID(vpid VPID) {
	pred := func(_ uint64, kv VPID) bool { return kv == vpid }
	t.l1.removeIf(pred)
	t.l2.removeIf(pred)
}

// InvalidateRange drops every cached translation under vpid whose virtual
// page falls in r — the range-shootdown a munmap performs. Unlike per-page
// Invalidate it also catches transient 4KB translations BadgerTrap installed
// inside poisoned huge pages, whose bases the caller cannot enumerate.
func (t *TLB) InvalidateRange(r addr.Range, vpid VPID) {
	pred := func(vl uint64, kv VPID) bool {
		if kv != vpid {
			return false
		}
		v, _ := unpack(vl)
		return r.Contains(v)
	}
	t.l1.removeIf(pred)
	t.l2.removeIf(pred)
}

// Flush empties the whole TLB.
func (t *TLB) Flush() {
	t.l1.clear()
	t.l2.clear()
}

// Stats reports lookup outcome counts since construction.
type Stats struct {
	HitsL1 uint64
	HitsL2 uint64
	Misses uint64
}

// Lookups returns the total number of lookups.
func (s Stats) Lookups() uint64 { return s.HitsL1 + s.HitsL2 + s.Misses }

// MissRate returns misses / lookups (0 when no lookups).
func (s Stats) MissRate() float64 {
	n := s.Lookups()
	if n == 0 {
		return 0
	}
	return float64(s.Misses) / float64(n)
}

// Stats returns a snapshot of the counters.
func (t *TLB) Stats() Stats {
	return Stats{HitsL1: t.hitsL1.Value(), HitsL2: t.hitsL2.Value(), Misses: t.misses.Value()}
}

// ResetStats zeroes the counters.
func (t *TLB) ResetStats() {
	t.hitsL1.Reset()
	t.hitsL2.Reset()
	t.misses.Reset()
}

// Size returns the number of live entries at each level.
func (t *TLB) Size() (l1, l2 int) { return t.l1.n, t.l2.n }
