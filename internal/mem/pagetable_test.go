package mem

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentMapAndAccess: goroutines store to and load from their
// own mapped pages while another goroutine maps fresh ones — holes in a
// populated chunk, new chunks above and below every existing one — and
// hands each fresh page to one of them, which then works over all of
// its pages while the next is mapped. Every access to a mapped page
// succeeds and returns the value last stored there.
func TestConcurrentMapAndAccess(t *testing.T) {
	as := NewAddressSpace()
	const workers = 4
	as.Map(KernelHeap, workers*PageSize)
	as.Map(KernelHeap+(workers+1)*PageSize, PageSize) // leaves a hole at workers
	var fresh []Addr
	fresh = append(fresh, KernelHeap+workers*PageSize) // the hole
	for i := Addr(0); i < 24; i++ {
		fresh = append(fresh,
			KernelHeap+(chunkPages+i)*PageSize,         // the next chunk up
			KernelHeap+((i+1)*5*chunkPages)*PageSize+8, // chunks further up, unaligned start
			UserHeap+i*chunkPages*PageSize,             // below every kernel chunk
			ModuleText+i*PageSize,                      // above the heap
		)
	}

	handoff := make(chan Addr)
	errs := make(chan error, workers+1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// A failed worker reports once, then only drains the
			// handoff so the mapper never blocks on it.
			fail := func(err error) {
				errs <- err
				for range handoff {
				}
			}
			own := []Addr{KernelHeap + Addr(w)*PageSize}
			i := uint64(0)
			for p := range handoff {
				own = append(own, PageBase(p))
				for pass := 0; pass < 8; pass++ {
					i++
					for j, p := range own {
						a := p + Addr((i*8+uint64(j)*24)%(PageSize-16))
						v := i<<16 | uint64(w)<<8 | uint64(j)
						if err := as.WriteU64(a, v); err != nil {
							fail(fmt.Errorf("worker %d: WriteU64(%#x): %v", w, uint64(a), err))
							return
						}
						if got, err := as.ReadU64(a); err != nil || got != v {
							fail(fmt.Errorf("worker %d: ReadU64(%#x) = %#x, %v; want %#x", w, uint64(a), got, err, v))
							return
						}
						buf := []byte{byte(v), byte(v >> 8), byte(w)}
						if err := as.Write(a+8, buf); err != nil {
							fail(fmt.Errorf("worker %d: Write(%#x): %v", w, uint64(a+8), err))
							return
						}
						got := make([]byte, len(buf))
						if err := as.Read(a+8, got); err != nil || string(got) != string(buf) {
							fail(fmt.Errorf("worker %d: Read(%#x) = %v, %v; want %v", w, uint64(a+8), got, err, buf))
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(handoff)
		for _, p := range fresh {
			as.Map(p, 8)
			if v, err := as.ReadU64(PageBase(p)); err != nil || v != 0 {
				errs <- fmt.Errorf("fresh page %#x reads %#x, %v; want zero", uint64(p), v, err)
				return
			}
			handoff <- p
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := as.Faults(); n != 0 {
		t.Fatalf("%d faults on mapped pages", n)
	}
}

// TestAccessorsDoNotAllocate: loads and stores, scalar or into a
// caller's buffer, allocate nothing.
func TestAccessorsDoNotAllocate(t *testing.T) {
	as := NewAddressSpace()
	as.Map(KernelHeap, 2*PageSize)
	a := KernelHeap + 64
	var buf [64]byte
	var sink uint64
	for name, fn := range map[string]func(){
		"Read":                func() { _ = as.Read(a, buf[:]) },
		"Write":               func() { _ = as.Write(a, buf[:]) },
		"Read straddling":     func() { _ = as.Read(KernelHeap+PageSize-8, buf[:]) },
		"ReadU64":             func() { v, _ := as.ReadU64(a); sink += v },
		"WriteU64":            func() { _ = as.WriteU64(a, 42) },
		"ReadU64 straddling":  func() { v, _ := as.ReadU64(KernelHeap + PageSize - 4); sink += v },
		"WriteU64 straddling": func() { _ = as.WriteU64(KernelHeap+PageSize-4, 42) },
		"WriteU8":             func() { _ = as.WriteU8(a, 1) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, n)
		}
	}
	_ = sink
}

// readSink keeps the benchmarked loads live.
var readSink atomic.Uint64

// BenchmarkAddressSpaceReadU64 measures one 8-byte load from a mapped
// page, from one goroutine and from all of them at once.
func BenchmarkAddressSpaceReadU64(b *testing.B) {
	as := NewAddressSpace()
	const pages = 256
	as.Map(KernelHeap, pages*PageSize)
	as.Map(UserHeap, PageSize)
	as.Map(ModuleText, PageSize)
	// Successive loads walk the pages, 8 bytes further into each.
	addr := func(i int) Addr { return KernelHeap + Addr(i*(PageSize+8))%(pages*PageSize) }
	b.Run("serial", func(b *testing.B) {
		var sum uint64
		for i := 0; i < b.N; i++ {
			v, _ := as.ReadU64(addr(i))
			sum += v
		}
		readSink.Add(sum)
	})
	b.Run("parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			var sum uint64
			for i := 0; pb.Next(); i++ {
				v, _ := as.ReadU64(addr(i))
				sum += v
			}
			readSink.Add(sum)
		})
	})
}
