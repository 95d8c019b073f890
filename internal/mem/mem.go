// Package mem implements the sparse paged virtual memory shared by the IR
// interpreter and the assembly-level machine simulator.
//
// It stands in for the operating system's virtual memory and the MMU: both
// execution levels of a program see the same byte-addressed 64-bit address
// space, and an access to an unmapped or non-canonical address raises a
// simulated hardware exception, which the fault-injection framework
// classifies as a Crash. Keeping the mapped set sparse is deliberate — a bit
// flip in the high bits of a pointer almost always leaves the mapped set,
// exactly as on real hardware.
//
// Every live Memory puts a small direct-mapped page cache (a software TLB)
// in front of its page map, so a load or store that stays within one page
// it has touched recently costs one array index and one tag compare instead
// of a map lookup, and a hit of 1, 2, 4 or 8 bytes is one fixed-size
// little-endian load or store on the cached page. The map stays the single
// authoritative store: misses, page-crossing accesses, stack auto-grow and
// every fault take the same slow path as a cache-free memory. See Memory
// for the invariants.
package mem

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
)

// PageSize is the granularity of the sparse address space.
const PageSize = 4096

// Standard segment layout. The null page (and everything below NullGuard)
// is never mapped so that near-null dereferences fault.
const (
	// NullGuard is the lowest mappable address.
	NullGuard uint64 = 0x1_0000
	// GlobalsBase is where the program's global/static data image is loaded.
	GlobalsBase uint64 = 0x10_0000
	// HeapBase is the bottom of the dynamic allocation arena.
	HeapBase uint64 = 0x1000_0000
	// StackTop is the initial (highest) stack address; stacks grow down.
	StackTop uint64 = 0x7FFF_F000
	// StackLimit bounds stack growth; accesses below it overflow.
	StackLimit uint64 = StackTop - 4*1024*1024
	// CodeBase is where the machine simulator pretends code lives. Each
	// instruction occupies CodeStride bytes so corrupted return addresses
	// are meaningful (and usually invalid).
	CodeBase uint64 = 0x40_0000
	// CodeStride is the fake size of one machine instruction.
	CodeStride uint64 = 4
	// Canonical is the first non-canonical address; accesses at or above
	// it fault regardless of the mapped set.
	Canonical uint64 = 1 << 47
)

// FaultKind enumerates the simulated hardware exceptions.
type FaultKind int

// Fault kinds.
const (
	FaultUnmapped FaultKind = iota + 1
	FaultNonCanonical
	FaultNullDeref
	FaultStackOverflow
	FaultDivideByZero
	FaultBadCodeAddr
	FaultInvalidOp
)

func (k FaultKind) String() string {
	switch k {
	case FaultUnmapped:
		return "segmentation fault (unmapped)"
	case FaultNonCanonical:
		return "general protection fault (non-canonical)"
	case FaultNullDeref:
		return "segmentation fault (null)"
	case FaultStackOverflow:
		return "stack overflow"
	case FaultDivideByZero:
		return "divide error"
	case FaultBadCodeAddr:
		return "invalid instruction address"
	case FaultInvalidOp:
		return "invalid operation"
	default:
		return "unknown fault"
	}
}

// Fault is a simulated hardware exception. The fault-injection framework
// classifies a run that terminates with a Fault as a Crash.
type Fault struct {
	Kind FaultKind
	Addr uint64
}

func (f *Fault) Error() string {
	return fmt.Sprintf("%s at 0x%x", f.Kind, f.Addr)
}

// tlbSize is the number of entries in each memory's page cache. A
// 64-entry cache ran no faster, and every snapshot and clone carries
// the array.
const tlbSize = 16

// tlbEntry caches one page of the page map. writable is false while the
// page is still shared copy-on-write, so only reads may hit it.
type tlbEntry struct {
	pnum     uint64
	page     *[PageSize]byte
	writable bool
}

// Memory is a sparse paged 64-bit address space with a simple heap
// allocator. The zero value is not usable; call New.
//
// Read and Write first look in tlb, a direct-mapped cache indexed by page
// number modulo tlbSize. A hit needs the tag to match, the access to lie
// within one page, at or above NullGuard and below Canonical, and for a
// write the entry to be writable; anything else takes the map path. Only
// that path fills the cache, and pages are never unmapped, so a hit is
// always a mapped page. The cache's invariants:
//   - a frozen snapshot never fills its cache, because snapshots are read
//     by many goroutines at once;
//   - Snapshot flushes the live memory's cache, because every page becomes
//     copy-on-write;
//   - the copy-on-write duplication in copyIn rewrites the entry to the
//     new private page, writable;
//   - Clone starts with an empty cache.
type Memory struct {
	pages map[uint64]*[PageSize]byte
	tlb   [tlbSize]tlbEntry

	// cow marks pages shared with a snapshot: they must be duplicated
	// before the first write. nil until the first Snapshot call, so
	// snapshot-free runs pay nothing.
	cow map[uint64]bool
	// frozen marks a memory returned by Snapshot. Frozen memories are
	// never written; Clone materializes writable copies from them.
	frozen bool

	heapNext uint64
	// free lists allocator metadata outside the simulated address space;
	// allocation headers would otherwise be silently corruptible, which
	// is a realism we trade for determinism of the allocator itself.
	allocSize map[uint64]uint64
	freeList  map[uint64][]uint64 // rounded size -> addresses
}

// New returns an empty address space with an initialized heap arena.
func New() *Memory {
	return &Memory{
		pages:     make(map[uint64]*[PageSize]byte),
		heapNext:  HeapBase,
		allocSize: make(map[uint64]uint64),
		freeList:  make(map[uint64][]uint64),
	}
}

// Map ensures [addr, addr+size) is mapped, allocating zeroed pages.
func (m *Memory) Map(addr, size uint64) {
	if size == 0 {
		return
	}
	first := addr / PageSize
	last := (addr + size - 1) / PageSize
	for p := first; p <= last; p++ {
		if m.pages[p] == nil {
			m.pages[p] = new([PageSize]byte)
		}
	}
}

// Mapped reports whether every byte of [addr, addr+size) is mapped.
func (m *Memory) Mapped(addr, size uint64) bool {
	if size == 0 {
		return true
	}
	first := addr / PageSize
	last := (addr + size - 1) / PageSize
	for p := first; p <= last; p++ {
		if m.pages[p] == nil {
			return false
		}
	}
	return true
}

// check validates an access and returns the fault to raise, if any.
func (m *Memory) check(addr, size uint64) error {
	if addr >= Canonical || addr+size > Canonical {
		return &Fault{Kind: FaultNonCanonical, Addr: addr}
	}
	if addr < NullGuard {
		return &Fault{Kind: FaultNullDeref, Addr: addr}
	}
	if !m.Mapped(addr, size) {
		// The stack region auto-grows, like guard-page stacks on a real
		// OS; running past its limit is a stack overflow.
		if addr < StackTop && addr+size > StackLimit {
			m.Map(addr, size)
			return nil
		}
		if addr < StackLimit && addr >= StackLimit-PageSize {
			return &Fault{Kind: FaultStackOverflow, Addr: addr}
		}
		return &Fault{Kind: FaultUnmapped, Addr: addr}
	}
	return nil
}

// Read reads size (1..8) bytes little-endian at addr.
func (m *Memory) Read(addr, size uint64) (uint64, error) {
	pnum, off := addr/PageSize, addr%PageSize
	// The NullGuard test also keeps an empty entry (page 0) from hitting.
	if e := &m.tlb[pnum%tlbSize]; e.pnum == pnum && addr >= NullGuard && addr < Canonical && off+size <= PageSize {
		p := e.page[off:]
		switch size {
		case 8:
			return binary.LittleEndian.Uint64(p), nil
		case 4:
			return uint64(binary.LittleEndian.Uint32(p)), nil
		case 2:
			return uint64(binary.LittleEndian.Uint16(p)), nil
		case 1:
			return uint64(p[0]), nil
		}
	}
	if err := m.check(addr, size); err != nil {
		return 0, err
	}
	var buf [8]byte
	m.copyOut(addr, buf[:size])
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// Write writes the low size (1..8) bytes of val little-endian at addr.
func (m *Memory) Write(addr, size, val uint64) error {
	pnum, off := addr/PageSize, addr%PageSize
	if e := &m.tlb[pnum%tlbSize]; e.pnum == pnum && e.writable && addr >= NullGuard && addr < Canonical && off+size <= PageSize {
		p := e.page[off:]
		switch size {
		case 8:
			binary.LittleEndian.PutUint64(p, val)
			return nil
		case 4:
			binary.LittleEndian.PutUint32(p, uint32(val))
			return nil
		case 2:
			binary.LittleEndian.PutUint16(p, uint16(val))
			return nil
		case 1:
			p[0] = byte(val)
			return nil
		}
	}
	if err := m.check(addr, size); err != nil {
		return err
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], val)
	m.copyIn(addr, buf[:size])
	return nil
}

// ReadBytes copies len(dst) bytes from addr.
func (m *Memory) ReadBytes(addr uint64, dst []byte) error {
	if err := m.check(addr, uint64(len(dst))); err != nil {
		return err
	}
	m.copyOut(addr, dst)
	return nil
}

// WriteBytes copies src to addr.
func (m *Memory) WriteBytes(addr uint64, src []byte) error {
	if err := m.check(addr, uint64(len(src))); err != nil {
		return err
	}
	m.copyIn(addr, src)
	return nil
}

// fill caches page pnum, unless m is a frozen snapshot.
func (m *Memory) fill(pnum uint64, page *[PageSize]byte, writable bool) {
	if !m.frozen {
		m.tlb[pnum%tlbSize] = tlbEntry{pnum: pnum, page: page, writable: writable}
	}
}

func (m *Memory) copyOut(addr uint64, dst []byte) {
	for len(dst) > 0 {
		pnum := addr / PageSize
		page := m.pages[pnum]
		m.fill(pnum, page, !m.cow[pnum])
		off := addr % PageSize
		n := copy(dst, page[off:])
		dst = dst[n:]
		addr += uint64(n)
	}
}

func (m *Memory) copyIn(addr uint64, src []byte) {
	for len(src) > 0 {
		pnum := addr / PageSize
		page := m.pages[pnum]
		if m.cow != nil && m.cow[pnum] {
			// The page is shared with a snapshot: duplicate before the
			// first write so the snapshot's view stays intact.
			np := new([PageSize]byte)
			*np = *page
			m.pages[pnum] = np
			delete(m.cow, pnum)
			page = np
		}
		m.fill(pnum, page, true)
		off := addr % PageSize
		n := copy(page[off:], src)
		src = src[n:]
		addr += uint64(n)
	}
}

// Snapshot freezes the current contents into a copy-on-write snapshot:
// the returned memory shares every page with the live one, and the live
// memory duplicates a shared page before its first subsequent write.
// Snapshots are immutable (never write through them); use Clone to
// materialize a writable address space from one. Capturing is O(mapped
// pages) in map bookkeeping only — no page data is copied.
func (m *Memory) Snapshot() *Memory {
	if m.cow == nil {
		m.cow = make(map[uint64]bool, len(m.pages))
	}
	m.tlb = [tlbSize]tlbEntry{}
	// The frozen copy carries no cow set: it is never written, and
	// Clone marks its own pages.
	s := &Memory{
		pages:     make(map[uint64]*[PageSize]byte, len(m.pages)),
		frozen:    true,
		heapNext:  m.heapNext,
		allocSize: make(map[uint64]uint64, len(m.allocSize)),
		freeList:  make(map[uint64][]uint64, len(m.freeList)),
	}
	for p, pg := range m.pages {
		s.pages[p] = pg
		m.cow[p] = true
	}
	for a, sz := range m.allocSize {
		s.allocSize[a] = sz
	}
	for sz, list := range m.freeList {
		s.freeList[sz] = append([]uint64(nil), list...)
	}
	return s
}

// Clone materializes a writable address space from a frozen snapshot.
// Every page starts shared copy-on-write, so restoring costs O(mapped
// pages) map work and pages are copied only as the resumed run writes
// them. Clone never mutates the snapshot, so any number of goroutines
// may Clone the same snapshot concurrently.
func (m *Memory) Clone() *Memory {
	if !m.frozen {
		panic("mem: Clone of a live memory (use Snapshot first)")
	}
	c := &Memory{
		pages:     make(map[uint64]*[PageSize]byte, len(m.pages)),
		cow:       make(map[uint64]bool, len(m.pages)),
		heapNext:  m.heapNext,
		allocSize: make(map[uint64]uint64, len(m.allocSize)),
		freeList:  make(map[uint64][]uint64, len(m.freeList)),
	}
	for p, pg := range m.pages {
		c.pages[p] = pg
		c.cow[p] = true
	}
	for a, sz := range m.allocSize {
		c.allocSize[a] = sz
	}
	for sz, list := range m.freeList {
		c.freeList[sz] = append([]uint64(nil), list...)
	}
	return c
}

// Equal reports whether m and o hold the same address space: the same
// mapped pages with the same bytes, the same heap cursor, the same live
// blocks, and the same free lists in the same order (an emptied size
// class equals an absent one). A page the two share by pointer, as a
// clone shares the pages its snapshot's run has not written since,
// needs no byte compare. Neither memory is modified, so o may be a
// frozen snapshot other goroutines are reading.
func (m *Memory) Equal(o *Memory) bool {
	if m.heapNext != o.heapNext || len(m.pages) != len(o.pages) || len(m.allocSize) != len(o.allocSize) {
		return false
	}
	for a, sz := range m.allocSize {
		if osz, ok := o.allocSize[a]; !ok || osz != sz {
			return false
		}
	}
	for sz, list := range m.freeList {
		if !slices.Equal(list, o.freeList[sz]) {
			return false
		}
	}
	for sz, list := range o.freeList {
		if _, ok := m.freeList[sz]; !ok && len(list) > 0 {
			return false
		}
	}
	for p, pg := range m.pages {
		if op := o.pages[p]; op == nil || (op != pg && *op != *pg) {
			return false
		}
	}
	return true
}

// FootprintBytes is an upper bound on the resident size of this memory's
// page data, counting shared copy-on-write pages as if private. The
// snapshot cache uses it for budget accounting.
func (m *Memory) FootprintBytes() uint64 {
	return uint64(len(m.pages)) * PageSize
}

// roundAlloc rounds a request up to a 16-byte-aligned size class.
func roundAlloc(size uint64) uint64 {
	if size == 0 {
		size = 1
	}
	return (size + 15) &^ 15
}

// Alloc allocates size bytes on the heap and returns the (16-byte aligned)
// address. Freed blocks of the same size class are reused first.
func (m *Memory) Alloc(size uint64) uint64 {
	rounded := roundAlloc(size)
	if list := m.freeList[rounded]; len(list) > 0 {
		addr := list[len(list)-1]
		m.freeList[rounded] = list[:len(list)-1]
		m.allocSize[addr] = rounded
		// Zero recycled memory so runs are deterministic.
		zero := make([]byte, rounded)
		m.copyIn(addr, zero)
		return addr
	}
	addr := m.heapNext
	m.heapNext += rounded
	m.Map(addr, rounded)
	m.allocSize[addr] = rounded
	return addr
}

// Free returns a block to the allocator. Freeing an address that was not
// returned by Alloc (e.g. a fault-corrupted pointer) is a no-op: real
// allocators often tolerate this silently, and the corruption will surface
// through data effects instead.
func (m *Memory) Free(addr uint64) {
	size, ok := m.allocSize[addr]
	if !ok {
		return
	}
	delete(m.allocSize, addr)
	m.freeList[size] = append(m.freeList[size], addr)
}

// HeapBytesAllocated reports the current bump-pointer extent of the heap.
func (m *Memory) HeapBytesAllocated() uint64 { return m.heapNext - HeapBase }

// PageCount reports the number of mapped pages.
func (m *Memory) PageCount() int { return len(m.pages) }

// MappedRanges returns the mapped address ranges in ascending order,
// coalescing adjacent pages. Useful for debugging and tests.
func (m *Memory) MappedRanges() [][2]uint64 {
	if len(m.pages) == 0 {
		return nil
	}
	nums := make([]uint64, 0, len(m.pages))
	for p := range m.pages {
		nums = append(nums, p)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	var out [][2]uint64
	start, prev := nums[0], nums[0]
	for _, p := range nums[1:] {
		if p == prev+1 {
			prev = p
			continue
		}
		out = append(out, [2]uint64{start * PageSize, (prev + 1) * PageSize})
		start, prev = p, p
	}
	out = append(out, [2]uint64{start * PageSize, (prev + 1) * PageSize})
	return out
}
