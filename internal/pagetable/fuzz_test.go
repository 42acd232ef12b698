package pagetable

import (
	"testing"

	"thermostat/internal/addr"
)

// visit is one leaf observation during a scan.
type visit struct {
	base addr.Virt
	e    *Entry
	lvl  Level
}

// scanRadix is the original depth-first radix walk: the reference visit
// order the flat index must reproduce (see FuzzLeafIndex) and the radix
// side of BenchmarkPTScan.
func (t *Table) scanRadix(fn LeafVisitor) {
	t.scanNode(t.root, 4, 0, fn)
}

func (t *Table) scanNode(n *node, level int, prefix uint64, fn LeafVisitor) {
	for i := 0; i < 512; i++ {
		va := prefix | uint64(i)<<uint(addr.PageShift4K+9*(level-1))
		if level == 2 && n.entries[i].Flags.Has(Present|Huge) {
			fn(addr.Virt(va), &n.entries[i], Level2M)
			continue
		}
		if level == 1 {
			if n.entries[i].Flags.Has(Present) {
				fn(addr.Virt(va), &n.entries[i], Level4K)
			}
			continue
		}
		if n.children[i] != nil {
			t.scanNode(n.children[i], level-1, va, fn)
		}
	}
}

// checkLeafIndex asserts the flat leaf index reproduces the reference radix
// walk exactly: same leaves, same order, same entry pointers.
func checkLeafIndex(t *testing.T, pt *Table) {
	t.Helper()
	var ref []visit
	pt.scanRadix(func(b addr.Virt, e *Entry, l Level) {
		ref = append(ref, visit{b, e, l})
	})
	i := 0
	pt.Scan(func(b addr.Virt, e *Entry, l Level) {
		if i >= len(ref) {
			t.Fatalf("flat index visit %d beyond radix walk's %d leaves", i, len(ref))
		}
		w := ref[i]
		if b != w.base || e != w.e || l != w.lvl {
			t.Fatalf("flat index visit %d: got (%s, %p, %d), radix walk has (%s, %p, %d)",
				i, b, e, l, w.base, w.e, w.lvl)
		}
		i++
	})
	if i != len(ref) {
		t.Fatalf("flat index visited %d leaves, radix walk %d", i, len(ref))
	}
	// Radix-only counts: span-held pages (pt.spanPages) have no leaf refs.
	if got := len(ref); got != pt.count4K+pt.count2M {
		t.Fatalf("scan visited %d leaves, counts say %d", got, pt.count4K+pt.count2M)
	}
}

// FuzzLeafIndex drives random interleavings of the structural mutators and
// checks after every operation that Scan over the flat index yields the
// identical visit sequence to the reference radix walk. Errors from
// individual operations are expected (the fuzzer generates invalid ones) and
// ignored — only index consistency matters.
func FuzzLeafIndex(f *testing.F) {
	// Map2M → Split → Collapse → Unmap on one region.
	f.Add([]byte{0, 1, 0, 3, 1, 0, 4, 1, 0, 2, 1, 0})
	// Scattered 4K maps and unmaps across two regions.
	f.Add([]byte{1, 0, 5, 1, 0, 9, 1, 2, 5, 2, 0, 5, 1, 0, 5, 2, 2, 9})
	// Split without collapse, then unmap children.
	f.Add([]byte{0, 3, 0, 3, 3, 0, 2, 3, 0, 2, 3, 1})
	// Remap at both grains plus an interleaved split.
	f.Add([]byte{0, 2, 0, 5, 2, 0, 3, 2, 0, 5, 2, 7, 1, 4, 0, 5, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxOps = 256
		if len(data) > 3*maxOps {
			data = data[:3*maxOps]
		}
		pt := New()
		for i := 0; i+2 < len(data); i += 3 {
			op := data[i] % 6
			reg := uint64(data[i+1] % 24)
			sub := (uint64(data[i+2]) * 7) % uint64(addr.PagesPerHuge)
			hv := addr.Virt2M(reg)
			cv := hv + addr.Virt(sub*addr.PageSize4K)
			switch op {
			case 0:
				pt.Map2M(hv, addr.Phys2M(reg), Writable)
			case 1:
				pt.Map4K(cv, addr.Phys4K(reg*uint64(addr.PagesPerHuge)+sub), 0)
			case 2:
				pt.Unmap(cv)
			case 3:
				pt.Split(hv)
			case 4:
				pt.Collapse(hv)
			case 5:
				pt.Remap(cv, addr.Phys2M(reg+100))
			}
			checkLeafIndex(t, pt)
		}
	})
}

// TestScanClear clears mask bits in one sweep and reports prior flags.
func TestScanClear(t *testing.T) {
	pt := New()
	for i := uint64(0); i < 4; i++ {
		if err := pt.Map2M(addr.Virt2M(i), addr.Phys2M(i), Writable); err != nil {
			t.Fatal(err)
		}
	}
	pt.SetFlags(addr.Virt2M(1), Accessed)
	pt.SetFlags(addr.Virt2M(3), Accessed|Dirty)
	var hot []addr.Virt
	pt.ScanClear(Accessed, func(b addr.Virt, prior Flags, lvl Level) {
		if lvl != Level2M {
			t.Fatalf("unexpected level %d at %s", lvl, b)
		}
		if prior.Has(Accessed) {
			hot = append(hot, b)
		}
	})
	if len(hot) != 2 || hot[0] != addr.Virt2M(1) || hot[1] != addr.Virt2M(3) {
		t.Fatalf("hot = %v", hot)
	}
	pt.Scan(func(b addr.Virt, e *Entry, lvl Level) {
		if e.Flags.Has(Accessed) {
			t.Fatalf("%s still Accessed after ScanClear", b)
		}
	})
	if e, _, _ := pt.Lookup(addr.Virt2M(3)); !e.Flags.Has(Dirty) {
		t.Fatal("ScanClear(Accessed) dropped Dirty")
	}
}

// TestClearFlagsRange matches the per-page ClearFlags loop it replaces.
func TestClearFlagsRange(t *testing.T) {
	pt := New()
	for i := uint64(0); i < 3; i++ {
		if err := pt.Map2M(addr.Virt2M(i), addr.Phys2M(i), Writable); err != nil {
			t.Fatal(err)
		}
	}
	if err := pt.Split(addr.Virt2M(1)); err != nil {
		t.Fatal(err)
	}
	for j := uint64(0); j < uint64(addr.PagesPerHuge); j += 3 {
		pt.SetFlags(addr.Virt2M(1)+addr.Virt(j*addr.PageSize4K), Poisoned)
	}
	r := addr.NewRange(addr.Virt2M(1), addr.PageSize2M)
	if n := pt.ClearFlagsRange(r, Poisoned); n != addr.PagesPerHuge {
		t.Fatalf("visited %d leaves, want %d", n, addr.PagesPerHuge)
	}
	pt.ScanRange(r, func(b addr.Virt, e *Entry, lvl Level) {
		if e.Flags.Has(Poisoned) {
			t.Fatalf("%s still Poisoned", b)
		}
	})
	// Neighbouring huge leaves are untouched and counted one each.
	if n := pt.ClearFlagsRange(addr.NewRange(addr.Virt2M(0), addr.PageSize2M), Accessed); n != 1 {
		t.Fatalf("huge region visited %d leaves, want 1", n)
	}
}

// TestEntryRef returns a stable pointer through which flag edits are seen.
func TestEntryRef(t *testing.T) {
	pt := New()
	if err := pt.Map4K(addr.Virt4K(7), addr.Phys4K(3), Writable); err != nil {
		t.Fatal(err)
	}
	e, lvl, ok := pt.EntryRef(addr.Virt4K(7))
	if !ok || lvl != Level4K {
		t.Fatalf("EntryRef = %v, %d, %v", e, lvl, ok)
	}
	e.Flags |= Poisoned
	if got, _, _ := pt.Lookup(addr.Virt4K(7)); !got.Flags.Has(Poisoned) {
		t.Fatal("flag edit through EntryRef not visible to Lookup")
	}
	if _, _, ok := pt.EntryRef(addr.Virt4K(8)); ok {
		t.Fatal("EntryRef of unmapped address reported ok")
	}
}
