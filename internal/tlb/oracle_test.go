package tlb

import (
	"fmt"
	"slices"
	"testing"

	"thermostat/internal/addr"
	"thermostat/internal/pagetable"
)

// The reference model below is the TLB's original map-plus-linked-list LRU,
// kept as a differential oracle for the array-backed one.

// refKey identifies a cached translation.
type refKey struct {
	vpn  uint64
	lvl  pagetable.Level
	vpid VPID
}

// refEntry is a cached translation.
type refEntry struct {
	key   refKey
	frame addr.Phys

	prev, next *refEntry // LRU list, most-recent at head
}

// refLRU is a fixed-capacity LRU map of translations. Evicted and removed
// entries park on a freelist (chained through next) so a full TLB churns
// translations without allocating.
type refLRU struct {
	cap   int
	items map[refKey]*refEntry
	head  *refEntry
	tail  *refEntry
	free  *refEntry
}

func newRefLRU(capacity int) *refLRU {
	return &refLRU{cap: capacity, items: make(map[refKey]*refEntry, capacity)}
}

func (l *refLRU) get(k refKey) (*refEntry, bool) {
	e, ok := l.items[k]
	if ok {
		l.moveToFront(e)
	}
	return e, ok
}

func (l *refLRU) put(k refKey, frame addr.Phys) {
	if e, ok := l.items[k]; ok {
		e.frame = frame
		l.moveToFront(e)
		return
	}
	if len(l.items) >= l.cap {
		l.evict()
	}
	e := l.free
	if e != nil {
		l.free = e.next
		*e = refEntry{key: k, frame: frame}
	} else {
		e = &refEntry{key: k, frame: frame}
	}
	l.items[k] = e
	l.pushFront(e)
}

func (l *refLRU) remove(k refKey) bool {
	e, ok := l.items[k]
	if !ok {
		return false
	}
	l.unlink(e)
	delete(l.items, k)
	l.release(e)
	return true
}

func (l *refLRU) evict() {
	if l.tail == nil {
		return
	}
	victim := l.tail
	l.unlink(victim)
	delete(l.items, victim.key)
	l.release(victim)
}

func (l *refLRU) release(e *refEntry) {
	e.next = l.free
	l.free = e
}

func (l *refLRU) pushFront(e *refEntry) {
	e.prev = nil
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

func (l *refLRU) unlink(e *refEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (l *refLRU) moveToFront(e *refEntry) {
	if l.head == e {
		return
	}
	l.unlink(e)
	l.pushFront(e)
}

func (l *refLRU) clear() {
	l.items = make(map[refKey]*refEntry, l.cap)
	l.head, l.tail = nil, nil
}

func (l *refLRU) removeIf(pred func(refKey) bool) {
	for k := range l.items {
		if pred(k) {
			l.remove(k)
		}
	}
}

// refTLB is the original two-level TLB over refLRU.
type refTLB struct {
	l1, l2 *refLRU
	stats  Stats
}

func newRefTLB(cfg Config) *refTLB {
	return &refTLB{l1: newRefLRU(cfg.L1Entries), l2: newRefLRU(cfg.L2Entries)}
}

func refKeyFor(v addr.Virt, lvl pagetable.Level, vpid VPID) refKey {
	if lvl == pagetable.Level2M {
		return refKey{vpn: v.PageNum2M(), lvl: lvl, vpid: vpid}
	}
	return refKey{vpn: v.PageNum4K(), lvl: lvl, vpid: vpid}
}

func (t *refTLB) Lookup(v addr.Virt, vpid VPID) (Result, bool) {
	for _, lvl := range [2]pagetable.Level{pagetable.Level2M, pagetable.Level4K} {
		k := refKeyFor(v, lvl, vpid)
		if e, ok := t.l1.get(k); ok {
			t.stats.HitsL1++
			t.l2.get(k) // keep L2 recency in sync (inclusive hierarchy)
			return Result{Frame: e.frame, Level: lvl, Hit: HitL1}, true
		}
	}
	for _, lvl := range [2]pagetable.Level{pagetable.Level2M, pagetable.Level4K} {
		k := refKeyFor(v, lvl, vpid)
		if e, ok := t.l2.get(k); ok {
			t.stats.HitsL2++
			t.l1.put(k, e.frame)
			return Result{Frame: e.frame, Level: lvl, Hit: HitL2}, true
		}
	}
	t.stats.Misses++
	return Result{}, false
}

func (t *refTLB) Insert(v addr.Virt, lvl pagetable.Level, frame addr.Phys, vpid VPID) {
	k := refKeyFor(v, lvl, vpid)
	t.l1.put(k, frame)
	t.l2.put(k, frame)
}

func (t *refTLB) Invalidate(v addr.Virt, vpid VPID) {
	for _, lvl := range [2]pagetable.Level{pagetable.Level4K, pagetable.Level2M} {
		k := refKeyFor(v, lvl, vpid)
		t.l1.remove(k)
		t.l2.remove(k)
	}
}

func (t *refTLB) InvalidateVPID(vpid VPID) {
	pred := func(k refKey) bool { return k.vpid == vpid }
	t.l1.removeIf(pred)
	t.l2.removeIf(pred)
}

func (t *refTLB) InvalidateRange(r addr.Range, vpid VPID) {
	pred := func(k refKey) bool {
		if k.vpid != vpid {
			return false
		}
		var v addr.Virt
		if k.lvl == pagetable.Level2M {
			v = addr.Virt(k.vpn << addr.PageShift2M)
		} else {
			v = addr.Virt(k.vpn << addr.PageShift4K)
		}
		return r.Contains(v)
	}
	t.l1.removeIf(pred)
	t.l2.removeIf(pred)
}

func (t *refTLB) Flush() {
	t.l1.clear()
	t.l2.clear()
}

func (t *refTLB) Size() (l1, l2 int) { return len(t.l1.items), len(t.l2.items) }

// cached is one translation in recency order, comparable across both models.
type cached struct {
	base  addr.Virt
	lvl   pagetable.Level
	vpid  VPID
	frame addr.Phys
}

// order lists the translations from most to least recently used.
func (l *lru) order() []cached {
	var out []cached
	for e := l.head; e != nilIdx; e = l.ents[e].next {
		base, lvl := unpack(l.ents[e].vl)
		out = append(out, cached{base, lvl, l.ents[e].vpid, l.ents[e].frame})
	}
	return out
}

func (l *refLRU) order() []cached {
	var out []cached
	for e := l.head; e != nil; e = e.next {
		shift := uint(addr.PageShift4K)
		if e.key.lvl == pagetable.Level2M {
			shift = addr.PageShift2M
		}
		out = append(out, cached{addr.Virt(e.key.vpn << shift), e.key.lvl, e.key.vpid, e.frame})
	}
	return out
}

// check asserts the structural invariants of the slab, recency list,
// freelist and index.
func (l *lru) check() error {
	live := make([]bool, len(l.ents))
	count := 0
	prev := nilIdx
	for e := l.head; e != nilIdx; e = l.ents[e].next {
		if count++; count > len(l.ents) {
			return fmt.Errorf("recency list longer than the slab (cycle?)")
		}
		if live[e] {
			return fmt.Errorf("entry %d linked twice", e)
		}
		live[e] = true
		if l.ents[e].prev != prev {
			return fmt.Errorf("entry %d prev %d, want %d", e, l.ents[e].prev, prev)
		}
		if slot, got := l.find(l.ents[e].vl, l.ents[e].vpid); got != e {
			return fmt.Errorf("entry %d not found by its key (slot %d gives %d)", e, slot, got)
		}
		prev = e
	}
	if l.tail != prev {
		return fmt.Errorf("tail %d, list ends at %d", l.tail, prev)
	}
	if count != l.n {
		return fmt.Errorf("list length %d, n %d", count, l.n)
	}
	occupied := 0
	for i, s := range l.index {
		if s == 0 {
			continue
		}
		occupied++
		e := s - 1
		if !live[e] {
			return fmt.Errorf("slot %d points at entry %d, which is not live", i, e)
		}
		for j := l.home(l.ents[e].vl, l.ents[e].vpid); j != i; j = (j + 1) & l.mask {
			if l.index[j] == 0 {
				return fmt.Errorf("slot %d unreachable: empty slot %d on its probe path", i, j)
			}
		}
	}
	if occupied != l.n {
		return fmt.Errorf("%d occupied index slots, n %d", occupied, l.n)
	}
	free := 0
	for e := l.free; e != nilIdx; e = l.ents[e].next {
		if live[e] {
			return fmt.Errorf("entry %d both live and free", e)
		}
		live[e] = true
		if free++; free > len(l.ents) {
			return fmt.Errorf("freelist longer than the slab (cycle?)")
		}
	}
	if free+l.n != len(l.ents) {
		return fmt.Errorf("%d free + %d live entries, slab holds %d", free, l.n, len(l.ents))
	}
	return nil
}

// fuzzOps decodes a byte stream into calls against both TLBs and reports the
// first disagreement or broken invariant.
func fuzzOps(data []byte) error {
	if len(data) < 2 {
		return nil
	}
	cfg := Config{L1Entries: 2 + int(data[0]%7), L2Entries: 4 + int(data[1]%29)}
	got, want := New(cfg), newRefTLB(cfg)
	// The low nibble picks one of 16 4KB pages, the high nibble one of 16
	// 2MB pages, so keys repeat and both grains overlap.
	virt := func(b byte) addr.Virt {
		return addr.Virt(uint64(b&15)<<addr.PageShift4K | uint64(b>>4)<<addr.PageShift2M)
	}
	for i := 2; i+4 <= len(data); i += 4 {
		op, a, b, c := data[i], data[i+1], data[i+2], data[i+3]
		v, vpid := virt(a), VPID(c%3)
		var step string
		switch op % 16 {
		case 0, 1, 2, 3, 4, 5:
			lvl := pagetable.Level4K
			if c&4 != 0 {
				lvl = pagetable.Level2M
			}
			frame := addr.Phys(uint64(b) << addr.PageShift4K)
			step = fmt.Sprintf("Insert(%#x, %v, %#x, %d)", v, lvl, frame, vpid)
			got.Insert(v, lvl, frame, vpid)
			want.Insert(v, lvl, frame, vpid)
		case 6, 7, 8, 9, 10, 11:
			step = fmt.Sprintf("Lookup(%#x, %d)", v, vpid)
			gr, gok := got.Lookup(v, vpid)
			wr, wok := want.Lookup(v, vpid)
			if gr != wr || gok != wok {
				return fmt.Errorf("step %d %s: got %+v %v, oracle %+v %v", i, step, gr, gok, wr, wok)
			}
		case 12:
			step = fmt.Sprintf("Invalidate(%#x, %d)", v, vpid)
			got.Invalidate(v, vpid)
			want.Invalidate(v, vpid)
		case 13:
			step = fmt.Sprintf("InvalidateVPID(%d)", vpid)
			got.InvalidateVPID(vpid)
			want.InvalidateVPID(vpid)
		case 14:
			// The top bits of c scale the length from 4KB to 2MB units.
			r := addr.NewRange(v, uint64(b)<<(addr.PageShift4K+3*(c>>6)))
			step = fmt.Sprintf("InvalidateRange(%+v, %d)", r, vpid)
			got.InvalidateRange(r, vpid)
			want.InvalidateRange(r, vpid)
		case 15:
			step = "Flush()"
			got.Flush()
			want.Flush()
		}
		if gs := got.Stats(); gs != want.stats {
			return fmt.Errorf("step %d %s: stats %+v, oracle %+v", i, step, gs, want.stats)
		}
		g1, g2 := got.Size()
		w1, w2 := want.Size()
		if g1 != w1 || g2 != w2 {
			return fmt.Errorf("step %d %s: sizes %d/%d, oracle %d/%d", i, step, g1, g2, w1, w2)
		}
		levels := [2]struct {
			got  *lru
			want *refLRU
		}{{got.l1, want.l1}, {got.l2, want.l2}}
		for lv, l := range levels {
			if g, w := l.got.order(), l.want.order(); !slices.Equal(g, w) {
				return fmt.Errorf("step %d %s: L%d recency %v, oracle %v", i, step, lv+1, g, w)
			}
			if err := l.got.check(); err != nil {
				return fmt.Errorf("step %d %s: L%d: %v", i, step, lv+1, err)
			}
		}
	}
	return nil
}

// FuzzTLBMatchesOracle drives the array-backed TLB and the map-backed oracle
// through the same random calls at tiny capacities, where eviction, probe
// wrap-around and backward-shift deletes are frequent, and requires the same
// results, counters, sizes and recency order after every call. Besides the
// committed corpus, eight long xorshift streams give plain `go test` deep
// eviction churn.
func FuzzTLBMatchesOracle(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		data := make([]byte, 8000)
		x := seed * 0x9e3779b97f4a7c15
		for i := range data {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			data[i] = byte(x)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := fuzzOps(data); err != nil {
			t.Fatal(err)
		}
	})
}
