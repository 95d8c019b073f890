package mem

import "testing"

// cached reports whether m's page cache holds page pnum, and whether the
// entry is writable.
func cached(m *Memory, pnum uint64) (hit, writable bool) {
	e := m.tlb[pnum%tlbSize]
	return e.page != nil && e.pnum == pnum, e.writable
}

func TestReadAndWriteFillCache(t *testing.T) {
	m := New()
	m.Map(GlobalsBase, 2*PageSize)
	if _, err := m.Read(GlobalsBase, 8); err != nil {
		t.Fatal(err)
	}
	if hit, w := cached(m, GlobalsBase/PageSize); !hit || !w {
		t.Fatalf("read of a private page: cached=%v writable=%v, want both", hit, w)
	}
	if err := m.Write(GlobalsBase+PageSize, 4, 7); err != nil {
		t.Fatal(err)
	}
	if hit, w := cached(m, GlobalsBase/PageSize+1); !hit || !w {
		t.Fatalf("write: cached=%v writable=%v, want both", hit, w)
	}
}

// A frozen snapshot is read by many goroutines at once, so a cache fill
// there would be a data race: its cache must stay empty.
func TestFrozenSnapshotNeverFillsCache(t *testing.T) {
	m := New()
	m.Map(GlobalsBase, 2*PageSize)
	if err := m.Write(GlobalsBase, 8, 0x1234); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	for i := 0; i < 3; i++ {
		if v, err := snap.Read(GlobalsBase, 8); err != nil || v != 0x1234 {
			t.Fatalf("snapshot read: %#x, %v", v, err)
		}
		buf := make([]byte, 16)
		if err := snap.ReadBytes(GlobalsBase+PageSize-8, buf); err != nil {
			t.Fatal(err)
		}
	}
	if snap.tlb != ([tlbSize]tlbEntry{}) {
		t.Fatal("reads of a frozen snapshot filled its page cache")
	}
}

// Snapshot turns every page copy-on-write, so a cached writable entry
// would let the next write land in a page the snapshot shares.
func TestSnapshotFlushesLiveCache(t *testing.T) {
	m := New()
	m.Map(GlobalsBase, PageSize)
	if err := m.Write(GlobalsBase, 8, 1); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if m.tlb != ([tlbSize]tlbEntry{}) {
		t.Fatal("Snapshot left the live memory's page cache filled")
	}
	if err := m.Write(GlobalsBase, 8, 2); err != nil {
		t.Fatal(err)
	}
	if v, _ := snap.Read(GlobalsBase, 8); v != 1 {
		t.Fatalf("write after Snapshot leaked into it: got %d, want 1", v)
	}
}

// A read of a page still shared copy-on-write caches it read-only; the
// first write then takes the slow path, duplicates the page and rewrites
// the entry to the private copy, writable.
func TestCopyOnWriteRewritesCacheEntry(t *testing.T) {
	m := New()
	m.Map(GlobalsBase, PageSize)
	if err := m.Write(GlobalsBase, 8, 1); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	pnum := GlobalsBase / PageSize
	shared := snap.pages[pnum]

	if _, err := m.Read(GlobalsBase, 8); err != nil {
		t.Fatal(err)
	}
	if hit, w := cached(m, pnum); !hit || w {
		t.Fatalf("read of a shared page: cached=%v writable=%v, want cached read-only", hit, w)
	}
	if err := m.Write(GlobalsBase, 8, 2); err != nil {
		t.Fatal(err)
	}
	e := m.tlb[pnum%tlbSize]
	if e.pnum != pnum || !e.writable || e.page != m.pages[pnum] || e.page == shared {
		t.Fatalf("entry after copy-on-write: %+v, want the private page, writable", e)
	}
	if v, _ := snap.Read(GlobalsBase, 8); v != 1 {
		t.Fatalf("snapshot saw the write: got %d, want 1", v)
	}
	if v, _ := m.Read(GlobalsBase, 8); v != 2 {
		t.Fatalf("live memory lost its write: got %d, want 2", v)
	}
}

func TestCloneStartsWithEmptyCache(t *testing.T) {
	m := New()
	m.Map(GlobalsBase, PageSize)
	if err := m.Write(GlobalsBase, 8, 1); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	c := snap.Clone()
	if c.tlb != ([tlbSize]tlbEntry{}) {
		t.Fatal("Clone started with a filled page cache")
	}
	if err := c.Write(GlobalsBase, 8, 3); err != nil {
		t.Fatal(err)
	}
	if v, _ := snap.Read(GlobalsBase, 8); v != 1 {
		t.Fatalf("clone's write leaked into the snapshot: got %d", v)
	}
}

// Two pages that share a cache slot evict each other and both stay
// correct.
func TestCacheConflictingPages(t *testing.T) {
	m := New()
	a := GlobalsBase
	b := GlobalsBase + tlbSize*PageSize
	m.Map(a, PageSize)
	m.Map(b, PageSize)
	for i := uint64(0); i < 4; i++ {
		if err := m.Write(a, 8, i); err != nil {
			t.Fatal(err)
		}
		if err := m.Write(b, 8, 100+i); err != nil {
			t.Fatal(err)
		}
		if v, _ := m.Read(a, 8); v != i {
			t.Fatalf("page a: got %d, want %d", v, i)
		}
		if v, _ := m.Read(b, 8); v != 100+i {
			t.Fatalf("page b: got %d, want %d", v, 100+i)
		}
	}
}

// Each fixed-size hit (1, 2, 4, 8 bytes) reads and writes exactly the
// bytes the map path does, up to the last byte of the page, and a write
// to a page still shared with a snapshot misses even though reads of it
// hit.
func TestCachedAccessSizes(t *testing.T) {
	pattern := make([]byte, 2*PageSize)
	for i := range pattern {
		pattern[i] = byte(i*37 + 11)
	}
	fresh := func() *Memory {
		m := New()
		m.Map(GlobalsBase, 2*PageSize)
		if err := m.WriteBytes(GlobalsBase, pattern); err != nil {
			t.Fatal(err)
		}
		return m
	}
	pnum := GlobalsBase / PageSize
	for _, size := range []uint64{1, 2, 4, 8} {
		for _, off := range []uint64{0, PageSize/2 + 3, PageSize - size} {
			addr := GlobalsBase + off
			hot, cold := fresh(), fresh()
			if hit, _ := cached(hot, pnum); !hit {
				t.Fatalf("size %d: page not cached before the access", size)
			}
			got, err := hot.Read(addr, size)
			if err != nil {
				t.Fatal(err)
			}
			cold.tlb = [tlbSize]tlbEntry{}
			want, err := cold.Read(addr, size)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("size %d at +%#x: cached read %#x, map path %#x", size, off, got, want)
			}
			val := uint64(0xF1E2D3C4B5A69788)
			if err := hot.Write(addr, size, val); err != nil {
				t.Fatal(err)
			}
			cold.tlb = [tlbSize]tlbEntry{}
			if err := cold.Write(addr, size, val); err != nil {
				t.Fatal(err)
			}
			hb, cb := make([]byte, 2*PageSize), make([]byte, 2*PageSize)
			if err := hot.ReadBytes(GlobalsBase, hb); err != nil {
				t.Fatal(err)
			}
			if err := cold.ReadBytes(GlobalsBase, cb); err != nil {
				t.Fatal(err)
			}
			if string(hb) != string(cb) {
				t.Fatalf("size %d at +%#x: cached write and map-path write left different bytes", size, off)
			}
		}
	}

	// Read-only entry: a clone's pages are shared with its snapshot.
	snap := fresh().Snapshot()
	c := snap.Clone()
	last := GlobalsBase + PageSize - 8
	before, err := c.Read(last, 8)
	if err != nil {
		t.Fatal(err)
	}
	if hit, w := cached(c, pnum); !hit || w {
		t.Fatalf("read of a shared page: cached=%v writable=%v, want cached read-only", hit, w)
	}
	if err := c.Write(last, 8, ^before); err != nil {
		t.Fatal(err)
	}
	if v, _ := snap.Read(last, 8); v != before {
		t.Fatalf("write through a read-only entry reached the snapshot: %#x, want %#x", v, before)
	}
	if v, _ := c.Read(last, 8); v != ^before {
		t.Fatalf("clone reads %#x after its write, want %#x", v, ^before)
	}
}

// Cached loads and stores are the interpreters' innermost operation and
// must not allocate.
func TestCachedAccessZeroAlloc(t *testing.T) {
	m := New()
	m.Map(GlobalsBase, PageSize)
	stack := StackTop - 64
	if err := m.Write(stack, 8, 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		v, _ := m.Read(GlobalsBase+8, 8)
		_ = m.Write(GlobalsBase+16, 4, v+1)
		w, _ := m.Read(stack, 8)
		_ = m.Write(stack+8, 8, w)
	})
	if allocs != 0 {
		t.Fatalf("cached Read/Write allocate %.0f objects per call set, want 0", allocs)
	}
}

func BenchmarkMemoryAccess(b *testing.B) {
	b.Run("same-page-hit", func(b *testing.B) {
		m := New()
		m.Map(GlobalsBase, PageSize)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			addr := GlobalsBase + uint64(i%64)*8
			v, _ := m.Read(addr, 8)
			_ = m.Write(addr, 8, v+1)
		}
	})
	b.Run("stack-heap-alternation", func(b *testing.B) {
		m := New()
		heap := m.Alloc(256)
		stack := StackTop - 256
		m.Map(stack, 256)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			off := uint64(i%32) * 8
			v, _ := m.Read(heap+off, 8)
			_ = m.Write(stack+off, 8, v)
			w, _ := m.Read(stack+off, 4)
			_ = m.Write(heap+off, 4, w+1)
		}
	})
	b.Run("page-crossing", func(b *testing.B) {
		m := New()
		m.Map(GlobalsBase, 2*PageSize)
		addr := GlobalsBase + PageSize - 3
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v, _ := m.Read(addr, 8)
			_ = m.Write(addr, 8, v+1)
		}
	})
	b.Run("first-write-after-clone", func(b *testing.B) {
		m := New()
		m.Map(GlobalsBase, 4*PageSize)
		snap := m.Snapshot()
		const batch = 256
		clones := make([]*Memory, batch)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%batch == 0 {
				b.StopTimer()
				for j := range clones {
					clones[j] = snap.Clone()
				}
				b.StartTimer()
			}
			_ = clones[i%batch].Write(GlobalsBase+PageSize, 8, uint64(i))
		}
	})
}
