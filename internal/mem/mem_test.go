package mem

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"lxfi/internal/failpoint"
)

func TestMapAndRW(t *testing.T) {
	as := NewAddressSpace()
	as.Map(KernelHeap, 3*PageSize)
	data := []byte("hello, kernel")
	if err := as.Write(KernelHeap+100, data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got := make([]byte, len(data))
	if err := as.Read(KernelHeap+100, got); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q want %q", got, data)
	}
}

func TestCrossPageRW(t *testing.T) {
	as := NewAddressSpace()
	as.Map(KernelHeap, 2*PageSize)
	data := make([]byte, 300)
	for i := range data {
		data[i] = byte(i)
	}
	addr := KernelHeap + PageSize - 150 // straddles the page boundary
	if err := as.Write(addr, data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got := make([]byte, len(data))
	if err := as.Read(addr, got); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page data mismatch")
	}
}

// TestUnmappedFault pins fault reporting: each access to an unmapped
// page returns an AccessError naming the op, the access size and the
// first unmapped address, and counts exactly one fault.
func TestUnmappedFault(t *testing.T) {
	as := NewAddressSpace()
	var ae *AccessError
	if err := as.Write(KernelHeap, []byte{1}); !errors.As(err, &ae) || ae.Op != "write" || ae.Addr != KernelHeap || as.Faults() != 1 {
		t.Fatalf("write to an empty address space: %v, %d faults", err, as.Faults())
	}
	as.Map(KernelHeap, PageSize)
	as.Map(KernelHeap+2*PageSize, PageSize) // KernelHeap+PageSize is a hole
	const top Addr = 0xffff_ffff_ffff_f000
	hole := KernelHeap + PageSize
	read := func(a Addr, n int) func() error {
		return func() error { return as.Read(a, make([]byte, n)) }
	}
	write := func(a Addr, n int) func() error {
		return func() error { return as.Write(a, make([]byte, n)) }
	}
	cases := []struct {
		name string
		do   func() error
		op   string
		size uint64
		at   Addr
	}{
		{"unpopulated region ReadU64", func() error { _, err := as.ReadU64(UserHeap); return err }, "read", 8, UserHeap},
		{"unpopulated region WriteU64", func() error { return as.WriteU64(ModuleText+16, 1) }, "write", 8, ModuleText + 16},
		{"hole ReadU64", func() error { _, err := as.ReadU64(hole + 8); return err }, "read", 8, hole + 8},
		{"hole WriteU32", func() error { return as.WriteU32(hole+4, 1) }, "write", 4, hole + 4},
		{"hole ReadU16", func() error { _, err := as.ReadU16(hole); return err }, "read", 2, hole},
		{"hole WriteU8", func() error { return as.WriteU8(hole+PageMask, 1) }, "write", 1, hole + PageMask},
		{"hole Read", read(hole+100, 32), "read", 32, hole + 100},
		{"NULL ReadU64", func() error { _, err := as.ReadU64(0); return err }, "read", 8, 0},
		{"NULL ReadU8", func() error { _, err := as.ReadU8(0); return err }, "read", 1, 0},
		{"NULL Write", write(0, 8), "write", 8, 0},
		{"top page ReadU64", func() error { _, err := as.ReadU64(top); return err }, "read", 8, top},
		{"top page WriteU64", func() error { return as.WriteU64(top+PageMask-7, 1) }, "write", 8, top + PageMask - 7},
		{"ReadU64 straddling into a hole", func() error { _, err := as.ReadU64(hole - 4); return err }, "read", 8, hole},
		{"WriteU64 straddling into a hole", func() error { return as.WriteU64(hole-4, 1) }, "write", 8, hole},
		{"WriteU64 straddling past the last page", func() error { return as.WriteU64(hole+2*PageSize-3, 1) }, "write", 8, hole + 2*PageSize},
		{"ReadU32 straddling into a hole", func() error { _, err := as.ReadU32(hole - 1); return err }, "read", 4, hole},
		{"WriteU16 straddling into a hole", func() error { return as.WriteU16(hole-1, 1) }, "write", 2, hole},
		{"Write straddling into a hole", write(hole-10, 20), "write", 20, hole},
	}
	for _, c := range cases {
		before := as.Faults()
		err := c.do()
		if !errors.As(err, &ae) {
			t.Errorf("%s: err = %v, want *AccessError", c.name, err)
			continue
		}
		if ae.Op != c.op || ae.Addr != c.at || ae.Size != c.size {
			t.Errorf("%s: fault {%s %#x size %d}, want {%s %#x size %d}",
				c.name, ae.Op, uint64(ae.Addr), ae.Size, c.op, uint64(c.at), c.size)
		}
		if n := as.Faults() - before; n != 1 {
			t.Errorf("%s: %d faults counted, want 1", c.name, n)
		}
	}
}

// TestPartialFaultMidWrite: a store that straddles into an unmapped
// page faults, having already stored the bytes that fit the mapped one.
func TestPartialFaultMidWrite(t *testing.T) {
	as := NewAddressSpace()
	as.Map(KernelHeap, PageSize) // only first page
	data := make([]byte, 100)
	addr := KernelHeap + PageSize - 50
	if err := as.Write(addr, data); err == nil {
		t.Fatal("write crossing into unmapped page should fault")
	}
	end := KernelHeap + PageSize
	if err := as.WriteU64(end-4, 0x1122334455667788); err == nil {
		t.Fatal("straddling WriteU64 did not fault")
	}
	if v, err := as.ReadU32(end - 4); err != nil || v != 0x55667788 {
		t.Fatalf("mapped half = %#x, %v; want 0x55667788", v, err)
	}
}

func TestScalarAccessors(t *testing.T) {
	as := NewAddressSpace()
	as.Map(KernelHeap, PageSize)
	a := KernelHeap + 64
	if err := as.WriteU64(a, 0xdeadbeefcafebabe); err != nil {
		t.Fatal(err)
	}
	v64, err := as.ReadU64(a)
	if err != nil || v64 != 0xdeadbeefcafebabe {
		t.Fatalf("u64 = %#x, %v", v64, err)
	}
	// Little-endian overlap check.
	v32, _ := as.ReadU32(a)
	if v32 != 0xcafebabe {
		t.Fatalf("u32 low = %#x", v32)
	}
	if err := as.WriteU32(a+4, 0); err != nil {
		t.Fatal(err)
	}
	v64, _ = as.ReadU64(a)
	if v64 != 0x00000000cafebabe {
		t.Fatalf("after zeroing high half: %#x", v64)
	}
	if err := as.WriteU16(a, 0x1234); err != nil {
		t.Fatal(err)
	}
	v16, _ := as.ReadU16(a)
	if v16 != 0x1234 {
		t.Fatalf("u16 = %#x", v16)
	}
	if err := as.WriteU8(a, 0xff); err != nil {
		t.Fatal(err)
	}
	v8, _ := as.ReadU8(a)
	if v8 != 0xff {
		t.Fatalf("u8 = %#x", v8)
	}
}

func TestCString(t *testing.T) {
	as := NewAddressSpace()
	as.Map(UserHeap, PageSize)
	if err := as.WriteCString(UserHeap, "econet"); err != nil {
		t.Fatal(err)
	}
	s, err := as.ReadCString(UserHeap, 64)
	if err != nil || s != "econet" {
		t.Fatalf("cstring = %q, %v", s, err)
	}
}

func TestZero(t *testing.T) {
	as := NewAddressSpace()
	as.Map(KernelHeap, 2*PageSize)
	data := bytes.Repeat([]byte{0xaa}, 2*PageSize)
	if err := as.Write(KernelHeap, data); err != nil {
		t.Fatal(err)
	}
	if err := as.Zero(KernelHeap+10, PageSize+100); err != nil {
		t.Fatal(err)
	}
	b, _ := as.ReadBytes(KernelHeap, 2*PageSize)
	for i, v := range b {
		want := byte(0xaa)
		if i >= 10 && i < 10+PageSize+100 {
			want = 0
		}
		if v != want {
			t.Fatalf("byte %d = %#x want %#x", i, v, want)
		}
	}
}

func TestUserKernelSplit(t *testing.T) {
	cases := []struct {
		a    Addr
		user bool
	}{
		{0, true},
		{UserText, true},
		{UserHeap, true},
		{UserTop - 1, true},
		{UserTop, false},
		{KernelHeap, false},
		{KernelText, false},
		{ModuleText, false},
	}
	for _, c := range cases {
		if IsUser(c.a) != c.user {
			t.Errorf("IsUser(%#x) = %v, want %v", uint64(c.a), !c.user, c.user)
		}
		if IsKernel(c.a) == c.user {
			t.Errorf("IsKernel(%#x) inconsistent", uint64(c.a))
		}
	}
}

func TestSizeClassFor(t *testing.T) {
	cases := map[uint64]uint64{
		1: 8, 8: 8, 9: 16, 16: 16, 17: 32,
		65: 96, 97: 128, 200: 256, 4096: 4096,
		4097: 8192, 10000: 12288,
	}
	for in, want := range cases {
		if got := SizeClassFor(in); got != want {
			t.Errorf("SizeClassFor(%d) = %d, want %d", in, got, want)
		}
	}
}

func newSlab() (*AddressSpace, *Slab) {
	as := NewAddressSpace()
	return as, NewSlab(as, KernelHeap, new(failpoint.Set))
}

func TestSlabAllocFree(t *testing.T) {
	_, s := newSlab()
	a, err := s.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if sz, ok := s.ObjectSize(a); !ok || sz != 128 {
		t.Fatalf("ObjectSize = %d, %v", sz, ok)
	}
	if rq, ok := s.RequestedSize(a); !ok || rq != 100 {
		t.Fatalf("RequestedSize = %d, %v", rq, ok)
	}
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	if s.Owns(a) {
		t.Fatal("freed object still owned")
	}
	if err := s.Free(a); !errors.Is(err, ErrBadFree) {
		t.Fatalf("double free: %v", err)
	}
}

func TestSlabAdjacency(t *testing.T) {
	// Two back-to-back allocations of the same class land adjacent in the
	// same page — the property CVE-2010-2959 exploits.
	_, s := newSlab()
	a, _ := s.Alloc(16)
	b, _ := s.Alloc(16)
	if b != a+16 {
		t.Fatalf("allocations not adjacent: %#x then %#x", uint64(a), uint64(b))
	}
	next, ok := s.NextObject(a)
	if !ok || next != b {
		t.Fatalf("NextObject = %#x, %v", uint64(next), ok)
	}
}

func TestSlabZeroedAndPoisoned(t *testing.T) {
	as, s := newSlab()
	a, _ := s.Alloc(32)
	if err := as.Write(a, bytes.Repeat([]byte{0xff}, 32)); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	b, _ := as.ReadBytes(a, 32)
	for i, v := range b {
		if v != 0x6b {
			t.Fatalf("byte %d not poisoned: %#x", i, v)
		}
	}
	// Reallocation of the slot must be zeroed.
	a2, _ := s.Alloc(32)
	if a2 != a {
		t.Fatalf("free-list reuse expected: %#x vs %#x", uint64(a2), uint64(a))
	}
	b, _ = as.ReadBytes(a2, 32)
	for i, v := range b {
		if v != 0 {
			t.Fatalf("realloc byte %d not zeroed: %#x", i, v)
		}
	}
}

// TestSlabPoisonsEveryFreedByte: a page-class object and a multi-page
// object are poisoned end to end, and the shared poison source itself
// stays intact across frees.
func TestSlabPoisonsEveryFreedByte(t *testing.T) {
	as, s := newSlab()
	for _, size := range []uint64{PageSize, 3*PageSize + 1} {
		a, err := s.Alloc(size)
		if err != nil {
			t.Fatal(err)
		}
		class, _ := s.ObjectSize(a)
		if err := as.Write(a, bytes.Repeat([]byte{0xff}, int(class))); err != nil {
			t.Fatal(err)
		}
		if err := s.Free(a); err != nil {
			t.Fatal(err)
		}
		b, _ := as.ReadBytes(a, class)
		for i, v := range b {
			if v != 0x6b {
				t.Fatalf("size %d: byte %d not poisoned: %#x", size, i, v)
			}
		}
	}
	if !bytes.Equal(poisonPage[:], bytes.Repeat([]byte{0x6b}, PageSize)) {
		t.Fatal("poison source modified")
	}
}

func TestSlabLargeAlloc(t *testing.T) {
	_, s := newSlab()
	a, err := s.Alloc(3 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if a&PageMask != 0 {
		t.Fatalf("large alloc not page aligned: %#x", uint64(a))
	}
	if sz, _ := s.ObjectSize(a); sz != 3*PageSize {
		t.Fatalf("large size = %d", sz)
	}
	if _, ok := s.NextObject(a); ok {
		t.Fatal("large allocations have no slab neighbour")
	}
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
}

func TestSlabZeroAlloc(t *testing.T) {
	_, s := newSlab()
	if _, err := s.Alloc(0); !errors.Is(err, ErrZeroAlloc) {
		t.Fatalf("zero alloc: %v", err)
	}
}

// Property: live slab objects never overlap, and all stay within mapped
// memory of the correct class size.
func TestSlabNoOverlapProperty(t *testing.T) {
	_, s := newSlab()
	f := func(sizes []uint16, freeMask []bool) bool {
		if len(sizes) > 200 {
			sizes = sizes[:200]
		}
		var live []Addr
		for i, raw := range sizes {
			size := uint64(raw%2000) + 1
			a, err := s.Alloc(size)
			if err != nil {
				return false
			}
			live = append(live, a)
			if i < len(freeMask) && freeMask[i] && len(live) > 0 {
				victim := live[len(live)/2]
				if s.Owns(victim) {
					if err := s.Free(victim); err != nil {
						return false
					}
				}
			}
		}
		// Check pairwise disjointness of all currently live objects.
		objs := s.LiveObjects()
		for i := 1; i < len(objs); i++ {
			prevSize, _ := s.ObjectSize(objs[i-1])
			if objs[i-1]+Addr(prevSize) > objs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: scalar write/read round-trips at arbitrary in-page offsets.
func TestScalarRoundTripProperty(t *testing.T) {
	as := NewAddressSpace()
	as.Map(KernelHeap, 4*PageSize)
	f := func(off uint16, v uint64) bool {
		a := KernelHeap + Addr(off%(3*PageSize))
		if err := as.WriteU64(a, v); err != nil {
			return false
		}
		got, err := as.ReadU64(a)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBumpAllocator(t *testing.T) {
	as := NewAddressSpace()
	b := NewBump(as, ModuleText+5) // unaligned base rounds up
	a1 := b.Alloc(100, 64)
	if uint64(a1)%64 != 0 {
		t.Fatalf("alignment violated: %#x", uint64(a1))
	}
	a2 := b.Alloc(8, 8)
	if a2 < a1+100 {
		t.Fatalf("bump overlap: %#x after %#x+100", uint64(a2), uint64(a1))
	}
	if err := as.WriteU64(a2, 1); err != nil {
		t.Fatalf("bump memory not mapped: %v", err)
	}
}

func TestSlabStats(t *testing.T) {
	_, s := newSlab()
	a, _ := s.Alloc(8)
	_, _ = s.Alloc(8)
	_ = s.Free(a)
	allocs, frees := s.Stats()
	if allocs != 2 || frees != 1 {
		t.Fatalf("stats = %d/%d", allocs, frees)
	}
	if s.Live() != 1 {
		t.Fatalf("live = %d", s.Live())
	}
}
