package mem

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestReadWriteRoundTrip(t *testing.T) {
	m := New()
	m.Map(GlobalsBase, 4096)
	cases := []struct {
		addr uint64
		size uint64
		val  uint64
	}{
		{GlobalsBase, 1, 0xAB},
		{GlobalsBase + 1, 2, 0xBEEF},
		{GlobalsBase + 8, 4, 0xDEADBEEF},
		{GlobalsBase + 16, 8, 0x0123456789ABCDEF},
		{GlobalsBase + 100, 8, ^uint64(0)},
	}
	for _, c := range cases {
		if err := m.Write(c.addr, c.size, c.val); err != nil {
			t.Fatalf("write %x: %v", c.addr, err)
		}
		got, err := m.Read(c.addr, c.size)
		if err != nil {
			t.Fatalf("read %x: %v", c.addr, err)
		}
		want := c.val
		if c.size < 8 {
			want &= 1<<(8*c.size) - 1
		}
		if got != want {
			t.Errorf("roundtrip at %x size %d: got %x want %x", c.addr, c.size, got, want)
		}
	}
}

func TestWriteCrossesPageBoundary(t *testing.T) {
	m := New()
	m.Map(GlobalsBase, 2*PageSize)
	addr := GlobalsBase + PageSize - 3 // 8-byte write spans two pages
	if err := m.Write(addr, 8, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	v, err := m.Read(addr, 8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x1122334455667788 {
		t.Fatalf("cross-page read: %x", v)
	}
}

func TestLittleEndianLayout(t *testing.T) {
	m := New()
	m.Map(GlobalsBase, PageSize)
	if err := m.Write(GlobalsBase, 4, 0x04030201); err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint64{1, 2, 3, 4} {
		b, err := m.Read(GlobalsBase+uint64(i), 1)
		if err != nil {
			t.Fatal(err)
		}
		if b != want {
			t.Errorf("byte %d: got %d want %d", i, b, want)
		}
	}
}

func TestFaults(t *testing.T) {
	m := New()
	m.Map(GlobalsBase, PageSize)
	cases := []struct {
		name string
		addr uint64
		kind FaultKind
	}{
		// An empty page-cache entry carries page 0: these must still fault.
		{"null", 0, FaultNullDeref},
		{"near-null", 100, FaultNullDeref},
		{"unmapped", GlobalsBase + 10*PageSize, FaultUnmapped},
		{"non-canonical", Canonical + 8, FaultNonCanonical},
		{"wild-high", 1 << 46, FaultUnmapped},
	}
	for _, c := range cases {
		_, err := m.Read(c.addr, 8)
		var f *Fault
		if !errors.As(err, &f) {
			t.Fatalf("%s: expected fault, got %v", c.name, err)
		}
		if f.Kind != c.kind {
			t.Errorf("%s: kind %v, want %v", c.name, f.Kind, c.kind)
		}
		if err := m.Write(c.addr, 8, 1); !errors.As(err, &f) || f.Kind != c.kind {
			t.Errorf("%s: write: %v, want %v", c.name, err, c.kind)
		}
	}
}

func TestStackAutoGrow(t *testing.T) {
	m := New()
	// Writes within the stack region map pages on demand.
	if err := m.Write(StackTop-64, 8, 42); err != nil {
		t.Fatalf("stack write: %v", err)
	}
	if err := m.Write(StackLimit+8, 8, 7); err != nil {
		t.Fatalf("deep stack write: %v", err)
	}
	// Past the limit is a stack overflow.
	_, err := m.Read(StackLimit-16, 8)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultStackOverflow {
		t.Fatalf("want stack overflow, got %v", err)
	}
}

func TestAllocator(t *testing.T) {
	m := New()
	a := m.Alloc(100)
	b := m.Alloc(100)
	if a == b {
		t.Fatal("distinct allocations share an address")
	}
	if a%16 != 0 || b%16 != 0 {
		t.Fatal("allocations not 16-byte aligned")
	}
	if !m.Mapped(a, 100) || !m.Mapped(b, 100) {
		t.Fatal("allocations not mapped")
	}
	// Freed blocks of the same size class are recycled, zeroed.
	if err := m.Write(a, 8, 0xFFFF); err != nil {
		t.Fatal(err)
	}
	m.Free(a)
	c := m.Alloc(97) // same 112-byte size class
	if c != a {
		t.Fatalf("free list not reused: got %x want %x", c, a)
	}
	v, _ := m.Read(c, 8)
	if v != 0 {
		t.Fatalf("recycled memory not zeroed: %x", v)
	}
	// Freeing garbage is a no-op.
	m.Free(0xDEAD0000)
	m.Free(a + 8)
}

func TestAllocZeroSize(t *testing.T) {
	m := New()
	a := m.Alloc(0)
	if !m.Mapped(a, 1) {
		t.Fatal("zero-size alloc returned unmapped address")
	}
}

func TestMappedRanges(t *testing.T) {
	m := New()
	m.Map(GlobalsBase, 2*PageSize)
	m.Map(HeapBase, PageSize)
	ranges := m.MappedRanges()
	if len(ranges) != 2 {
		t.Fatalf("ranges: %v", ranges)
	}
	if ranges[0][0] != GlobalsBase || ranges[0][1] != GlobalsBase+2*PageSize {
		t.Errorf("globals range: %v", ranges[0])
	}
}

// Property: for any offset/value/size, write-then-read returns the
// truncated value and leaves neighbours untouched.
func TestQuickWriteRead(t *testing.T) {
	m := New()
	m.Map(GlobalsBase, 64*PageSize)
	f := func(off uint32, val uint64, szSel uint8) bool {
		size := uint64(1) << (szSel % 4) // 1,2,4,8
		addr := GlobalsBase + uint64(off%(60*PageSize))
		sentinelAddr := addr + 2*PageSize
		if err := m.Write(sentinelAddr, 8, 0x5A5A5A5A5A5A5A5A); err != nil {
			return false
		}
		if err := m.Write(addr, size, val); err != nil {
			return false
		}
		got, err := m.Read(addr, size)
		if err != nil {
			return false
		}
		want := val
		if size < 8 {
			want &= 1<<(8*size) - 1
		}
		sentinel, _ := m.Read(sentinelAddr, 8)
		return got == want && sentinel == 0x5A5A5A5A5A5A5A5A
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFaultMessages(t *testing.T) {
	for _, k := range []FaultKind{FaultUnmapped, FaultNonCanonical, FaultNullDeref,
		FaultStackOverflow, FaultDivideByZero, FaultBadCodeAddr, FaultInvalidOp} {
		f := &Fault{Kind: k, Addr: 0x1234}
		if f.Error() == "" || k.String() == "unknown fault" {
			t.Errorf("kind %d has no message", k)
		}
	}
}
