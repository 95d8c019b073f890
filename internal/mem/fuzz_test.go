package mem

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"sort"
	"testing"
)

// refMemory is the reference model FuzzMemoryModel checks Memory against:
// a byte map, a mapped-page set and a copy of the allocator, with no
// pages, sharing or cache. Its fault rules copy Memory's as they are,
// quirks included (an access that straddles StackLimit from below maps
// the guard page), so the two must agree on every value and fault.
type refMemory struct {
	pages    map[uint64]bool
	data     map[uint64]byte
	heapNext uint64
	alloc    map[uint64]uint64
	free     map[uint64][]uint64
}

func newRef() *refMemory {
	return &refMemory{
		pages:    map[uint64]bool{},
		data:     map[uint64]byte{},
		heapNext: HeapBase,
		alloc:    map[uint64]uint64{},
		free:     map[uint64][]uint64{},
	}
}

func (r *refMemory) copy() *refMemory {
	c := &refMemory{
		pages:    maps.Clone(r.pages),
		data:     maps.Clone(r.data),
		heapNext: r.heapNext,
		alloc:    maps.Clone(r.alloc),
		free:     map[uint64][]uint64{},
	}
	for sz, list := range r.free {
		c.free[sz] = append([]uint64(nil), list...)
	}
	return c
}

func (r *refMemory) mapRange(addr, size uint64) {
	if size == 0 {
		return
	}
	for p := addr / PageSize; p <= (addr+size-1)/PageSize; p++ {
		r.pages[p] = true
	}
}

func (r *refMemory) mapped(addr, size uint64) bool {
	if size == 0 {
		return true
	}
	for p := addr / PageSize; p <= (addr+size-1)/PageSize; p++ {
		if !r.pages[p] {
			return false
		}
	}
	return true
}

func (r *refMemory) check(addr, size uint64) error {
	switch {
	case addr >= Canonical || addr+size > Canonical:
		return &Fault{Kind: FaultNonCanonical, Addr: addr}
	case addr < NullGuard:
		return &Fault{Kind: FaultNullDeref, Addr: addr}
	case r.mapped(addr, size):
		return nil
	case addr < StackTop && addr+size > StackLimit:
		r.mapRange(addr, size)
		return nil
	case addr < StackLimit && addr >= StackLimit-PageSize:
		return &Fault{Kind: FaultStackOverflow, Addr: addr}
	}
	return &Fault{Kind: FaultUnmapped, Addr: addr}
}

func (r *refMemory) read(addr uint64, dst []byte) error {
	if err := r.check(addr, uint64(len(dst))); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = r.data[addr+uint64(i)]
	}
	return nil
}

func (r *refMemory) write(addr uint64, src []byte) error {
	if err := r.check(addr, uint64(len(src))); err != nil {
		return err
	}
	for i, b := range src {
		r.data[addr+uint64(i)] = b
	}
	return nil
}

func (r *refMemory) readN(addr, size uint64) (uint64, error) {
	buf := make([]byte, size)
	if err := r.read(addr, buf); err != nil {
		return 0, err
	}
	var v uint64
	for i := len(buf) - 1; i >= 0; i-- {
		v = v<<8 | uint64(buf[i])
	}
	return v, nil
}

func (r *refMemory) writeN(addr, size, val uint64) error {
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = byte(val >> (8 * i))
	}
	return r.write(addr, buf)
}

func (r *refMemory) allocate(size uint64) uint64 {
	rounded := roundAlloc(size)
	if list := r.free[rounded]; len(list) > 0 {
		addr := list[len(list)-1]
		r.free[rounded] = list[:len(list)-1]
		r.alloc[addr] = rounded
		for i := uint64(0); i < rounded; i++ {
			r.data[addr+i] = 0
		}
		return addr
	}
	addr := r.heapNext
	r.heapNext += rounded
	r.mapRange(addr, rounded)
	r.alloc[addr] = rounded
	return addr
}

func (r *refMemory) release(addr uint64) {
	size, ok := r.alloc[addr]
	if !ok {
		return
	}
	delete(r.alloc, addr)
	r.free[size] = append(r.free[size], addr)
}

func (r *refMemory) ranges() [][2]uint64 {
	if len(r.pages) == 0 {
		return nil
	}
	var nums []uint64
	for p := range r.pages {
		nums = append(nums, p)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	var out [][2]uint64
	start := nums[0]
	for i, p := range nums {
		if i+1 == len(nums) || nums[i+1] != p+1 {
			out = append(out, [2]uint64{start * PageSize, (p + 1) * PageSize})
			if i+1 < len(nums) {
				start = nums[i+1]
			}
		}
	}
	return out
}

// opReader decodes fuzz input; once the input runs out it yields zeros
// and done reports true.
type opReader struct {
	data []byte
	pos  int
}

func (o *opReader) done() bool { return o.pos >= len(o.data) }

func (o *opReader) byte() byte {
	if o.done() {
		return 0
	}
	o.pos++
	return o.data[o.pos-1]
}

func (o *opReader) u16() uint64 { return uint64(o.byte()) | uint64(o.byte())<<8 }

func (o *opReader) u64() uint64 { return o.u16() | o.u16()<<16 | o.u16()<<32 | o.u16()<<48 }

var fuzzBases = [...]uint64{GlobalsBase, HeapBase, StackTop, StackLimit, NullGuard, 0, Canonical, CodeBase}

// addr picks an address near a segment boundary, biased to the first and
// last bytes of a page so that accesses straddle pages often.
func (o *opReader) addr() uint64 {
	sel := o.byte()
	if sel == 0xFF {
		return o.u64()
	}
	base := fuzzBases[int(sel)%len(fuzzBases)]
	page := int64(sel/uint8(len(fuzzBases))%8) - 2
	var off uint64
	switch k := o.byte(); k % 4 {
	case 0:
		off = uint64(k/4) % 8
	case 1:
		off = PageSize - 1 - uint64(k/4)%8
	default:
		off = o.u16() % PageSize
	}
	return base + uint64(page)*PageSize + off
}

func sameFault(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	var g, w *Fault
	return errors.As(got, &g) && errors.As(want, &w) && *g == *w
}

// maxModelSteps bounds one input's length: the model copies its byte map
// on every Snapshot and Clone, so long inputs cost quadratic time.
const maxModelSteps = 64

// maxModelInput bounds the fuzz input in bytes, a little over what
// maxModelSteps typical ops consume. Longer inputs are skipped: they
// add nothing, and the fuzzer's minimizer is quadratic in input length.
const maxModelInput = 512

// span picks a ReadBytes/WriteBytes length: usually short, which crosses
// a page at the page-edge addresses addr favours, one time in eight long
// enough to cross two page boundaries.
func (o *opReader) span() uint64 {
	n := o.u16()
	if n%8 != 0 {
		return n / 8 % 64
	}
	return n / 8 % (2*PageSize + 16)
}

// runMemoryModel drives Memory and the reference model through the ops
// encoded in data and reports the first disagreement.
func runMemoryModel(data []byte) error {
	o := &opReader{data: data}
	m, ref := New(), newRef()
	var snap *Memory
	var snapRef *refMemory
	var allocs []uint64
	pages := 0
	for step := 0; step < maxModelSteps && !o.done(); step++ {
		op := o.byte() % 11
		var desc string
		switch op {
		case 0:
			addr, size := o.addr(), o.u16()%(4*PageSize)
			m.Map(addr, size)
			ref.mapRange(addr, size)
			desc = fmt.Sprintf("Map(%#x, %d)", addr, size)
		case 1, 2:
			addr, size := o.addr(), uint64(o.byte()%8)+1
			desc = fmt.Sprintf("Read(%#x, %d)", addr, size)
			mem, model := m, ref
			if op == 2 {
				if snap == nil {
					continue
				}
				mem, model, desc = snap, snapRef, "snapshot "+desc
			}
			got, gerr := mem.Read(addr, size)
			want, werr := model.readN(addr, size)
			if !sameFault(gerr, werr) || got != want {
				return fmt.Errorf("step %d %s = %#x, %v; model %#x, %v", step, desc, got, gerr, want, werr)
			}
		case 3:
			addr, size, val := o.addr(), uint64(o.byte()%8)+1, o.u64()
			desc = fmt.Sprintf("Write(%#x, %d, %#x)", addr, size, val)
			if gerr, werr := m.Write(addr, size, val), ref.writeN(addr, size, val); !sameFault(gerr, werr) {
				return fmt.Errorf("step %d %s: %v; model %v", step, desc, gerr, werr)
			}
		case 4:
			addr, n := o.addr(), o.span()
			desc = fmt.Sprintf("ReadBytes(%#x, %d)", addr, n)
			got, want := make([]byte, n), make([]byte, n)
			gerr, werr := m.ReadBytes(addr, got), ref.read(addr, want)
			if !sameFault(gerr, werr) || (gerr == nil && !reflect.DeepEqual(got, want)) {
				return fmt.Errorf("step %d %s: %v; model %v (or bytes differ)", step, desc, gerr, werr)
			}
		case 5:
			addr, n, seed := o.addr(), o.span(), o.byte()
			src := make([]byte, n)
			for i := range src {
				src[i] = seed + byte(i)
			}
			desc = fmt.Sprintf("WriteBytes(%#x, %d)", addr, n)
			if gerr, werr := m.WriteBytes(addr, src), ref.write(addr, src); !sameFault(gerr, werr) {
				return fmt.Errorf("step %d %s: %v; model %v", step, desc, gerr, werr)
			}
		case 6:
			snap, snapRef = m.Snapshot(), ref.copy()
			desc = "Snapshot()"
		case 7:
			if snap == nil {
				continue
			}
			m, ref = snap.Clone(), snapRef.copy()
			desc = "switch to Clone()"
		case 8:
			size := o.u16() % (3 * PageSize)
			got, want := m.Alloc(size), ref.allocate(size)
			if got != want {
				return fmt.Errorf("step %d Alloc(%d) = %#x; model %#x", step, size, got, want)
			}
			allocs = append(allocs, got)
			desc = fmt.Sprintf("Alloc(%d)", size)
		case 9, 10:
			var addr uint64
			if op == 9 && len(allocs) > 0 {
				addr = allocs[int(o.byte())%len(allocs)]
			} else {
				addr = o.addr()
			}
			m.Free(addr)
			ref.release(addr)
			desc = fmt.Sprintf("Free(%#x)", addr)
		}
		if m.PageCount() != len(ref.pages) {
			return fmt.Errorf("step %d after %s: PageCount %d; model %d", step, desc, m.PageCount(), len(ref.pages))
		}
		// The mapped set only grows, so it can change without PageCount
		// changing only when the live memory is replaced by a Clone.
		if m.PageCount() != pages || op == 7 {
			pages = m.PageCount()
			if got, want := m.MappedRanges(), ref.ranges(); !reflect.DeepEqual(got, want) {
				return fmt.Errorf("step %d after %s: MappedRanges %#x; model %#x", step, desc, got, want)
			}
		}
		if got, want := m.HeapBytesAllocated(), ref.heapNext-HeapBase; got != want {
			return fmt.Errorf("step %d after %s: HeapBytesAllocated %d; model %d", step, desc, got, want)
		}
	}
	return nil
}

// fuzzOps builds a FuzzMemoryModel input one operation at a time, in the
// encoding runMemoryModel decodes; addresses are passed raw.
type fuzzOps []byte

func (f fuzzOps) le(v uint64, n int) fuzzOps {
	for i := 0; i < n; i++ {
		f = append(f, byte(v>>(8*i)))
	}
	return f
}

func (f fuzzOps) at(addr uint64) fuzzOps { return append(f, 0xFF).le(addr, 8) }

// span encodes n (below 8192) for opReader.span.
func (f fuzzOps) span(n uint64) fuzzOps {
	if n < 64 {
		return f.le(n*8+1, 2)
	}
	return f.le(n*8, 2)
}

func (f fuzzOps) mapping(addr, size uint64) fuzzOps { return append(f, 0).at(addr).le(size, 2) }
func (f fuzzOps) read(addr, size uint64) fuzzOps    { return append(f, 1).at(addr).le(size-1, 1) }
func (f fuzzOps) readSnapshot(addr, size uint64) fuzzOps {
	return append(f, 2).at(addr).le(size-1, 1)
}
func (f fuzzOps) write(addr, size, val uint64) fuzzOps {
	return append(f, 3).at(addr).le(size-1, 1).le(val, 8)
}
func (f fuzzOps) readBytes(addr, n uint64) fuzzOps { return append(f, 4).at(addr).span(n) }
func (f fuzzOps) writeBytes(addr, n uint64, seed byte) fuzzOps {
	return append(f, 5).at(addr).span(n).le(uint64(seed), 1)
}
func (f fuzzOps) snapshot() fuzzOps         { return append(f, 6) }
func (f fuzzOps) clone() fuzzOps            { return append(f, 7) }
func (f fuzzOps) alloc(size uint64) fuzzOps { return append(f, 8).le(size, 2) }
func (f fuzzOps) freeAlloc(i byte) fuzzOps  { return append(f, 9, i) }

// FuzzMemoryModel runs fuzzer-chosen operation sequences against Memory
// and a plain reference model and requires identical values, faults,
// mapped pages and allocator results.
func FuzzMemoryModel(f *testing.F) {
	g, top, lim := GlobalsBase, StackTop, StackLimit
	for _, seed := range []fuzzOps{
		{},
		// The cache's life cycle: fill, Snapshot, a read-only hit on a
		// shared page, copy-on-write, Clone.
		fuzzOps{}.mapping(g, 2*PageSize).write(g, 8, 0x0807060504030201).read(g+8, 8).
			snapshot().read(g, 8).write(g, 4, 0x09090909).readSnapshot(g, 8).
			clone().read(g, 8).write(g+PageSize, 8, 1).read(g+PageSize, 8),
		// Page-straddling accesses, one over two page boundaries.
		fuzzOps{}.mapping(g, 3*PageSize).write(g+PageSize-3, 8, 0x1122334455667788).
			read(g+PageSize-3, 8).writeBytes(g+PageSize-5, 10, 0x40).readBytes(g+PageSize-6, 12).
			writeBytes(g+PageSize-8, PageSize+16, 1).readBytes(g+8, 2*PageSize-16),
		// Stack auto-grow, the guard page below StackLimit, and the quirk
		// that an access straddling StackLimit from below maps the guard
		// page.
		fuzzOps{}.write(top-8, 8, 1).read(top-8, 8).read(lim, 8).
			read(lim-PageSize, 8).read(lim-4, 8).read(lim-PageSize, 8),
		// Allocator reuse across Snapshot and Clone.
		fuzzOps{}.alloc(64).alloc(2*PageSize+16).freeAlloc(0).alloc(64).write(HeapBase, 8, 0xAA).
			snapshot().clone().freeAlloc(1).alloc(2*PageSize+16).read(HeapBase+64, 8),
		// Null, non-canonical and mapped-but-null-guarded addresses.
		fuzzOps{}.read(0, 8).write(8, 8, 1).mapping(0, PageSize).read(8, 8).
			read(Canonical-4, 8).read(1<<63, 8).readBytes(NullGuard-1, 2).read(NullGuard, 8),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxModelInput {
			t.Skip("input longer than maxModelInput")
		}
		if err := runMemoryModel(data); err != nil {
			t.Fatal(err)
		}
	})
}
