package mem

import (
	"sync"
	"testing"
)

func TestSnapshotIsolatesLaterWrites(t *testing.T) {
	m := New()
	m.Map(GlobalsBase, 2*PageSize)
	if err := m.Write(GlobalsBase, 8, 0x1111); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()

	// Writes after the snapshot must not leak into it.
	if err := m.Write(GlobalsBase, 8, 0x2222); err != nil {
		t.Fatal(err)
	}
	v, err := snap.Read(GlobalsBase, 8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x1111 {
		t.Fatalf("snapshot saw post-capture write: got %#x, want 0x1111", v)
	}
	if v, _ := m.Read(GlobalsBase, 8); v != 0x2222 {
		t.Fatalf("live memory lost its write: got %#x", v)
	}
}

func TestCloneIsWritableAndIsolated(t *testing.T) {
	m := New()
	m.Map(GlobalsBase, PageSize)
	if err := m.Write(GlobalsBase, 8, 0xAAAA); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()

	c1 := snap.Clone()
	c2 := snap.Clone()
	if err := c1.Write(GlobalsBase, 8, 0xBBBB); err != nil {
		t.Fatal(err)
	}
	for name, mm := range map[string]*Memory{"snapshot": snap, "clone2": c2, "live": m} {
		v, err := mm.Read(GlobalsBase, 8)
		if err != nil {
			t.Fatal(err)
		}
		if v != 0xAAAA {
			t.Fatalf("%s saw clone1's write: got %#x, want 0xAAAA", name, v)
		}
	}
	if v, _ := c1.Read(GlobalsBase, 8); v != 0xBBBB {
		t.Fatalf("clone lost its write: got %#x", v)
	}
}

func TestCloneCarriesHeapState(t *testing.T) {
	m := New()
	a := m.Alloc(64)
	m.Free(a)
	snap := m.Snapshot()

	// Both the live memory and a clone must reuse the freed block
	// identically: the allocator is part of the deterministic state.
	liveAddr := m.Alloc(64)
	cloneAddr := snap.Clone().Alloc(64)
	if liveAddr != cloneAddr {
		t.Fatalf("allocator diverged after clone: live=%#x clone=%#x", liveAddr, cloneAddr)
	}
	if liveAddr != a {
		t.Fatalf("free list not reused: got %#x, want %#x", liveAddr, a)
	}
}

func TestCloneOfLiveMemoryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Clone of a live memory did not panic")
		}
	}()
	New().Clone()
}

func TestConcurrentClonesFromOneSnapshot(t *testing.T) {
	m := New()
	m.Map(GlobalsBase, 4*PageSize)
	for i := uint64(0); i < 4; i++ {
		if err := m.Write(GlobalsBase+i*PageSize, 8, i+1); err != nil {
			t.Fatal(err)
		}
	}
	snap := m.Snapshot()

	// Every goroutine also reads the snapshot itself while the others
	// clone it: a page-cache fill on the frozen memory would race here.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint64(0); i < 4; i++ {
				v, err := snap.Read(GlobalsBase+i*PageSize, 8)
				if err != nil {
					t.Error(err)
					return
				}
				if v != i+1 {
					t.Errorf("goroutine %d snapshot page %d: got %d, want %d", w, i, v, i+1)
				}
			}
			c := snap.Clone()
			if err := c.Write(GlobalsBase, 8, uint64(0x100+w)); err != nil {
				t.Error(err)
				return
			}
			for i := uint64(1); i < 4; i++ {
				v, err := c.Read(GlobalsBase+i*PageSize, 8)
				if err != nil {
					t.Error(err)
					return
				}
				if v != i+1 {
					t.Errorf("clone %d page %d: got %d, want %d", w, i, v, i+1)
				}
			}
		}(w)
	}
	wg.Wait()

	if v, _ := snap.Read(GlobalsBase, 8); v != 1 {
		t.Fatalf("snapshot corrupted by concurrent clones: got %#x", v)
	}
}

func TestSnapshotChainSharesUnchangedPages(t *testing.T) {
	m := New()
	m.Map(GlobalsBase, 2*PageSize)
	if err := m.Write(GlobalsBase, 8, 1); err != nil {
		t.Fatal(err)
	}
	s1 := m.Snapshot()
	if err := m.Write(GlobalsBase, 8, 2); err != nil { // copies page 0
		t.Fatal(err)
	}
	s2 := m.Snapshot()
	if err := m.Write(GlobalsBase+PageSize, 8, 3); err != nil {
		t.Fatal(err)
	}

	for want, s := range map[uint64]*Memory{1: s1, 2: s2} {
		if v, _ := s.Read(GlobalsBase, 8); v != want {
			t.Fatalf("snapshot chain: got %d, want %d", v, want)
		}
		if v, _ := s.Read(GlobalsBase+PageSize, 8); v != 0 {
			t.Fatalf("snapshot saw post-capture write to page 1: %d", v)
		}
	}
	if s1.FootprintBytes() != 2*PageSize || s2.FootprintBytes() != 2*PageSize {
		t.Fatalf("footprint: s1=%d s2=%d, want %d", s1.FootprintBytes(), s2.FootprintBytes(), 2*PageSize)
	}
}

// TestEqual pins the state compare masking convergence relies on: page
// bytes whether or not a page is still shared, the mapped set, the heap
// cursor, live blocks, and free lists in order, where an emptied size
// class equals one never used.
func TestEqual(t *testing.T) {
	m := New()
	m.Map(GlobalsBase, PageSize)
	if err := m.Write(GlobalsBase, 8, 7); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	check := func(what string, c *Memory, want bool) {
		t.Helper()
		if got := c.Equal(s); got != want {
			t.Errorf("%s: Equal = %v, want %v", what, got, want)
		}
	}
	c := s.Clone()
	check("fresh clone", c, true)
	c.Write(GlobalsBase, 8, 7)
	check("private copy, same bytes", c, true)
	c.Write(GlobalsBase, 8, 8)
	check("changed byte", c, false)
	c.Write(GlobalsBase, 8, 7)
	check("byte restored", c, true)
	c.Write(StackTop-8, 8, 0)
	check("stack page grown", c, false)

	c = s.Clone()
	c.Free(c.Alloc(16))
	check("block freed", c, false)

	a := m.Alloc(16)
	b := m.Alloc(16)
	m.Free(a)
	m.Free(b)
	s = m.Snapshot()
	c = s.Clone()
	c.Alloc(16)
	c.Alloc(16)
	c.Free(b)
	c.Free(a)
	check("free list reordered", c, false)

	// m reuses both freed blocks, leaving an empty size class; a memory
	// that allocated the same two blocks and never freed one has none.
	m.Alloc(16)
	m.Alloc(16)
	s = m.Snapshot()
	c = New()
	c.Map(GlobalsBase, PageSize)
	c.Write(GlobalsBase, 8, 7)
	c.Alloc(16)
	c.Alloc(16)
	check("size class emptied vs never used", c, true)
}
