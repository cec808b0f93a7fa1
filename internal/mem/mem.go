// Package mem implements the simulated kernel address space that the rest
// of the LXFI reproduction is built on.
//
// The original LXFI system interposes on raw x86-64 stores performed by
// kernel modules. In this reproduction, kernel objects live inside a
// simulated sparse 64-bit address space, and modules reach that space only
// through mediated accessors (see internal/core). The address space uses
// the familiar Linux x86-64 split: low addresses are user space, high
// canonical addresses are kernel space.
package mem

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Addr is a virtual address in the simulated address space.
type Addr uint64

// Fundamental constants of the simulated machine.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	PageMask  = PageSize - 1
)

// Region boundaries, mirroring the Linux x86-64 memory map.
const (
	// UserText is where the (attacker-controlled) user process maps its
	// executable code in several exploits.
	UserText Addr = 0x0000_0000_1000_0000
	// UserHeap is the default base for user data allocations.
	UserHeap Addr = 0x0000_0000_4000_0000
	// UserTop is the first non-user address (TASK_SIZE).
	UserTop Addr = 0x0000_7fff_ffff_f000
	// KernelHeap is the base of the direct-mapped kernel heap (slab pages).
	KernelHeap Addr = 0xffff_8800_0000_0000
	// KernelText is the base of core-kernel code addresses.
	KernelText Addr = 0xffff_ffff_8100_0000
	// ModuleText is the base of module code addresses.
	ModuleText Addr = 0xffff_ffff_a000_0000
)

// IsUser reports whether a is a user-space address (below TASK_SIZE).
// The NULL page is considered user space, as on Linux.
func IsUser(a Addr) bool { return a < UserTop }

// IsKernel reports whether a is a kernel-space address.
func IsKernel(a Addr) bool { return a >= UserTop }

// PageBase returns the base address of the page containing a.
func PageBase(a Addr) Addr { return a &^ PageMask }

// AccessError describes a fault in the simulated address space.
type AccessError struct {
	Op   string // "read", "write", "map"
	Addr Addr
	Size uint64
}

func (e *AccessError) Error() string {
	return fmt.Sprintf("mem: %s fault at %#x (size %d): page not mapped", e.Op, uint64(e.Addr), e.Size)
}

// Page-table geometry: pages are grouped into chunks of chunkPages
// consecutive pages, the unit the page-table directory indexes.
const (
	chunkShift = 6
	chunkPages = 1 << chunkShift
)

// chunk holds the frames of chunkPages consecutive pages; a nil entry
// is a page that has not been mapped.
type chunk [chunkPages]atomic.Pointer[[PageSize]byte]

// directory is an immutable index of the populated chunks, sorted by
// chunk number (page number >> chunkShift). Map publishes a new one
// whenever it adds a chunk; readers search whichever one they loaded.
type directory struct {
	keys   []uint64
	chunks []*chunk
}

// chunk returns the chunk numbered cn, or nil. The binary search is
// written out, not slices.BinarySearch, so that it inlines into every
// lookup.
func (d *directory) chunk(cn uint64) *chunk {
	lo, hi := 0, len(d.keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if d.keys[m] < cn {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(d.keys) && d.keys[lo] == cn {
		return d.chunks[lo]
	}
	return nil
}

// with returns a copy of d with c inserted as chunk number cn.
func (d *directory) with(cn uint64, c *chunk) *directory {
	i, _ := slices.BinarySearch(d.keys, cn)
	// Clipped, the slices have no spare capacity: Insert copies them.
	return &directory{
		keys:   slices.Insert(slices.Clip(d.keys), i, cn),
		chunks: slices.Insert(slices.Clip(d.chunks), i, c),
	}
}

// AddressSpace is a sparse, page-granular simulated address space.
//
// The page table only grows: a mapped page stays mapped, at the same
// frame, for the life of the address space. That lets lookups take no
// lock and hash nothing: an access loads the published directory,
// binary-searches it for the page's chunk and loads the frame pointer,
// all with atomic loads. Map alone is serialized (by mu); it publishes
// each zeroed frame, and each directory that adds a chunk, with an
// atomic store, so a reader that sees a frame sees it zeroed. Simulated
// kernel threads run on their own goroutines, so mapping and access
// may race.
// Byte-level access to the *contents* of a page is deliberately not
// serialized — overlapping unsynchronized writes from two simulated
// threads are a data race in the simulated kernel exactly as they would
// be on real hardware, and the race detector will report them as such.
type AddressSpace struct {
	mu  sync.Mutex // serializes Map; lookups never take it
	dir atomic.Pointer[directory]

	// faults counts page faults (accesses to unmapped pages); exploits
	// and tests use this to observe oopses.
	faults atomic.Uint64
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	as := &AddressSpace{}
	as.dir.Store(&directory{})
	return as
}

// Map ensures that all pages covering [addr, addr+size) are present and
// zero-filled if new. Mapping an already-mapped page is a no-op.
func (as *AddressSpace) Map(addr Addr, size uint64) {
	if size == 0 {
		return
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	first := PageBase(addr)
	last := PageBase(addr + Addr(size) - 1)
	for p := first; ; p += PageSize {
		pn := uint64(p) >> PageShift
		d := as.dir.Load()
		c := d.chunk(pn >> chunkShift)
		if c == nil {
			c = new(chunk)
			as.dir.Store(d.with(pn>>chunkShift, c))
		}
		if slot := &c[pn&(chunkPages-1)]; slot.Load() == nil {
			slot.Store(new([PageSize]byte))
		}
		if p == last {
			break
		}
	}
}

// page returns the frame of the page containing a, or nil if that page
// is not mapped.
func (as *AddressSpace) page(a Addr) *[PageSize]byte {
	pn := uint64(a) >> PageShift
	if c := as.dir.Load().chunk(pn >> chunkShift); c != nil {
		return c[pn&(chunkPages-1)].Load()
	}
	return nil
}

// Faults returns the number of page faults taken so far.
func (as *AddressSpace) Faults() uint64 { return as.faults.Load() }

// Read copies len(buf) bytes starting at addr into buf.
func (as *AddressSpace) Read(addr Addr, buf []byte) error {
	return as.access("read", addr, buf, false)
}

// Write copies data into the address space starting at addr.
func (as *AddressSpace) Write(addr Addr, data []byte) error {
	return as.access("write", addr, data, true)
}

// access copies between buf and [addr, addr+len(buf)) page by page. A
// fault stops the copy at the first unmapped page, leaving the pages
// before it copied, and is counted once.
func (as *AddressSpace) access(op string, addr Addr, buf []byte, write bool) error {
	n := uint64(len(buf))
	off := 0
	a := addr
	for off < len(buf) {
		page := as.page(a)
		if page == nil {
			as.faults.Add(1)
			return &AccessError{Op: op, Addr: a, Size: n}
		}
		po := int(a & PageMask)
		chunk := PageSize - po
		if rem := len(buf) - off; chunk > rem {
			chunk = rem
		}
		if write {
			copy(page[po:po+chunk], buf[off:off+chunk])
		} else {
			copy(buf[off:off+chunk], page[po:po+chunk])
		}
		off += chunk
		a += Addr(chunk)
	}
	return nil
}

// span returns the n bytes at addr inside their page's frame when all n
// lie in one mapped page, or nil; the scalar accessors then load and
// store in place and leave faults, and page straddles, to access.
func (as *AddressSpace) span(addr Addr, n int) []byte {
	po := int(addr & PageMask)
	if po > PageSize-n {
		return nil
	}
	if p := as.page(addr); p != nil {
		return p[po : po+n : po+n]
	}
	return nil
}

// zeroPage is one page of zero bytes, the source Zero writes from.
var zeroPage [PageSize]byte

// Zero fills [addr, addr+size) with zero bytes.
func (as *AddressSpace) Zero(addr Addr, size uint64) error {
	return as.fill(addr, size, &zeroPage)
}

// fill writes [addr, addr+size) from page, one PageSize chunk at a
// time; page is only read.
func (as *AddressSpace) fill(addr Addr, size uint64, page *[PageSize]byte) error {
	for size > 0 {
		chunk := uint64(PageSize)
		if size < chunk {
			chunk = size
		}
		if err := as.Write(addr, page[:chunk]); err != nil {
			return err
		}
		addr += Addr(chunk)
		size -= chunk
	}
	return nil
}

// ReadU64 reads a little-endian 64-bit value at addr.
func (as *AddressSpace) ReadU64(addr Addr) (uint64, error) {
	if b := as.span(addr, 8); b != nil {
		return binary.LittleEndian.Uint64(b), nil
	}
	var b [8]byte
	if err := as.Read(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU64 writes a little-endian 64-bit value at addr.
func (as *AddressSpace) WriteU64(addr Addr, v uint64) error {
	if b := as.span(addr, 8); b != nil {
		binary.LittleEndian.PutUint64(b, v)
		return nil
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return as.Write(addr, b[:])
}

// ReadU32 reads a little-endian 32-bit value at addr.
func (as *AddressSpace) ReadU32(addr Addr) (uint32, error) {
	if b := as.span(addr, 4); b != nil {
		return binary.LittleEndian.Uint32(b), nil
	}
	var b [4]byte
	if err := as.Read(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// WriteU32 writes a little-endian 32-bit value at addr.
func (as *AddressSpace) WriteU32(addr Addr, v uint32) error {
	if b := as.span(addr, 4); b != nil {
		binary.LittleEndian.PutUint32(b, v)
		return nil
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return as.Write(addr, b[:])
}

// ReadU16 reads a little-endian 16-bit value at addr.
func (as *AddressSpace) ReadU16(addr Addr) (uint16, error) {
	if b := as.span(addr, 2); b != nil {
		return binary.LittleEndian.Uint16(b), nil
	}
	var b [2]byte
	if err := as.Read(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b[:]), nil
}

// WriteU16 writes a little-endian 16-bit value at addr.
func (as *AddressSpace) WriteU16(addr Addr, v uint16) error {
	if b := as.span(addr, 2); b != nil {
		binary.LittleEndian.PutUint16(b, v)
		return nil
	}
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	return as.Write(addr, b[:])
}

// ReadU8 reads a byte at addr.
func (as *AddressSpace) ReadU8(addr Addr) (uint8, error) {
	if p := as.page(addr); p != nil {
		return p[addr&PageMask], nil
	}
	var b [1]byte
	if err := as.Read(addr, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

// WriteU8 writes a byte at addr.
func (as *AddressSpace) WriteU8(addr Addr, v uint8) error {
	if p := as.page(addr); p != nil {
		p[addr&PageMask] = v
		return nil
	}
	return as.Write(addr, []byte{v})
}

// ReadBytes is a convenience wrapper returning a fresh slice.
func (as *AddressSpace) ReadBytes(addr Addr, size uint64) ([]byte, error) {
	buf := make([]byte, size)
	if err := as.Read(addr, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadCString reads a NUL-terminated string of at most max bytes.
func (as *AddressSpace) ReadCString(addr Addr, max int) (string, error) {
	out := make([]byte, 0, 16)
	for i := 0; i < max; i++ {
		b, err := as.ReadU8(addr + Addr(i))
		if err != nil {
			return "", err
		}
		if b == 0 {
			break
		}
		out = append(out, b)
	}
	return string(out), nil
}

// WriteCString writes s followed by a NUL byte.
func (as *AddressSpace) WriteCString(addr Addr, s string) error {
	buf := make([]byte, len(s)+1)
	copy(buf, s)
	return as.Write(addr, buf)
}
