package failpoint

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDisarmedIsNoop(t *testing.T) {
	t.Parallel()
	var s Set
	for _, site := range Sites() {
		if err := s.Inject(site); err != nil {
			t.Fatalf("disarmed %s returned %v", site, err)
		}
	}
	if s.Armed() {
		t.Fatal("nothing armed, Armed() = true")
	}
}

func TestErrorPolicy(t *testing.T) {
	t.Parallel()
	var s Set
	mustArm(t, &s, MemPageAlloc, Policy{Msg: "boom"})
	err := s.Inject(MemPageAlloc)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	custom := errors.New("custom fault")
	mustArm(t, &s, MemPageAlloc, Policy{Err: custom})
	err = s.Inject(MemPageAlloc)
	if !errors.Is(err, ErrInjected) || !errors.Is(err, custom) {
		t.Fatalf("want both ErrInjected and custom in chain, got %v", err)
	}
}

func TestOneShot(t *testing.T) {
	t.Parallel()
	var s Set
	mustArm(t, &s, NetstackXmit, Policy{OneShot: true})
	if err := s.Inject(NetstackXmit); err == nil {
		t.Fatal("first evaluation did not fire")
	}
	for i := 0; i < 10; i++ {
		if err := s.Inject(NetstackXmit); err != nil {
			t.Fatalf("one-shot fired twice: %v", err)
		}
	}
	// Re-arming resets the shot.
	mustArm(t, &s, NetstackXmit, Policy{OneShot: true})
	if err := s.Inject(NetstackXmit); err == nil {
		t.Fatal("re-armed one-shot did not fire")
	}
}

func TestEveryNth(t *testing.T) {
	t.Parallel()
	var s Set
	mustArm(t, &s, NetstackPoll, Policy{EveryNth: 3})
	fired := 0
	for i := 0; i < 9; i++ {
		if s.Inject(NetstackPoll) != nil {
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("every(3) over 9 evaluations fired %d times, want 3", fired)
	}
}

func TestArgFilter(t *testing.T) {
	t.Parallel()
	var s Set
	mustArm(t, &s, KernelEntry, Policy{Arg: "kmalloc"})
	if err := s.InjectArg(KernelEntry, "kfree"); err != nil {
		t.Fatalf("non-matching arg fired: %v", err)
	}
	if err := s.InjectArg(KernelEntry, "kmalloc"); err == nil {
		t.Fatal("matching arg did not fire")
	}
}

func TestPanicPolicy(t *testing.T) {
	t.Parallel()
	var s Set
	mustArm(t, &s, KernelEntry, Policy{Panic: true, Msg: "oops"})
	defer func() {
		rec := recover()
		pv, ok := rec.(PanicValue)
		if !ok || pv.Site != KernelEntry || pv.String() != "failpoint kernel.entry: oops" {
			t.Fatalf("want PanicValue{kernel.entry, oops}, got %#v", rec)
		}
	}()
	s.Inject(KernelEntry)
	t.Fatal("panic policy did not panic")
}

func TestDoPolicy(t *testing.T) {
	t.Parallel()
	var s Set
	var got string
	mustArm(t, &s, LoaderLoad, Policy{Do: func(arg string) error {
		got = arg
		return fmt.Errorf("from do")
	}})
	if err := s.InjectArg(LoaderLoad, "payload"); err == nil || got != "payload" {
		t.Fatalf("Do callback: err=%v got=%q", err, got)
	}
}

func TestDelayPolicy(t *testing.T) {
	t.Parallel()
	var s Set
	mustArm(t, &s, BlockdevReadSector, Policy{Delay: 10 * time.Millisecond})
	start := time.Now()
	if err := s.Inject(BlockdevReadSector); err != nil {
		t.Fatalf("delay policy returned error %v", err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("delay policy slept only %v", d)
	}
}

func TestArmSpec(t *testing.T) {
	t.Parallel()
	var s Set
	sp, err := ParseSpec("blockdev.read_sector=error; blockdev.write_sector=every(2)->error(slow disk) ;kernel.entry[kmalloc]=oneshot->panic(no memory);loader.load=delay(1ms)")
	if err != nil {
		t.Fatal(err)
	}
	s.ArmSpec(sp)
	if err := s.Inject(BlockdevReadSector); !errors.Is(err, ErrInjected) {
		t.Fatalf("blockdev.read_sector: %v", err)
	}
	if err := s.Inject(BlockdevWriteSector); err != nil {
		t.Fatalf("blockdev.write_sector fired on first evaluation: %v", err)
	}
	if err := s.Inject(BlockdevWriteSector); err == nil {
		t.Fatal("blockdev.write_sector did not fire on second evaluation")
	}
	if err := s.InjectArg(KernelEntry, "kfree"); err != nil {
		t.Fatalf("kernel.entry fired on wrong arg: %v", err)
	}
	func() {
		defer func() {
			pv, ok := recover().(PanicValue)
			if !ok || pv.Msg != "no memory" {
				t.Fatalf("kernel.entry: want panic 'no memory', got %#v", pv)
			}
		}()
		s.InjectArg(KernelEntry, "kmalloc")
	}()
	for _, bad := range []string{
		"nosign", "=error", "mem.page_alloc=warp(3)", "mem.page_alloc=every(x)->error",
		"mem.page_alloc=prob(2)->error", "mem.page_alloc[unclosed=error", "mem.page_alloc=delay(-1s)",
		"blockdev.write_sectr=error",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("spec %q parsed without error", bad)
		}
	}
}

// TestUnknownSiteListsCatalog pins the error for a site outside the
// catalog: it names every valid site, from ParseSpec and Arm alike.
func TestUnknownSiteListsCatalog(t *testing.T) {
	t.Parallel()
	var s Set
	_, specErr := ParseSpec("blockdev.write_sectr=error")
	for _, err := range []error{specErr, s.Arm(Site(200), Policy{})} {
		if err == nil {
			t.Fatal("unknown site armed without error")
		}
		for _, site := range Sites() {
			if !strings.Contains(err.Error(), site.String()) {
				t.Fatalf("error %q does not list %s", err, site)
			}
		}
	}
	if s.Armed() {
		t.Fatal("an unknown site armed something")
	}
}

func TestSitesSorted(t *testing.T) {
	t.Parallel()
	sites := Sites()
	if len(sites) != 10 {
		t.Fatalf("catalog has %d sites: %v", len(sites), sites)
	}
	for i := 1; i < len(sites); i++ {
		if sites[i-1].String() >= sites[i].String() {
			t.Fatalf("Sites() not sorted/unique: %v", sites)
		}
	}
}

// TestSetIsolation: a policy armed on one Set never fires
// through another, and disarming one leaves the other armed.
func TestSetIsolation(t *testing.T) {
	t.Parallel()
	var a, b Set
	mustArm(t, &a, KernelEntry, Policy{OneShot: true})
	mustArm(t, &b, KernelEntry, Policy{})
	if err := b.Inject(KernelEntry); err == nil {
		t.Fatal("b's own policy did not fire")
	}
	b.DisarmAll()
	if b.Armed() || !a.Armed() {
		t.Fatalf("DisarmAll on b: a.Armed()=%v b.Armed()=%v", a.Armed(), b.Armed())
	}
	if err := a.Inject(KernelEntry); err == nil {
		t.Fatal("a's one-shot was used up by b")
	}
}

func TestConcurrentArmInject(t *testing.T) {
	t.Parallel()
	var s Set
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Inject(NetstackXmitBatch)
				s.InjectArg(NetstackXmitBatch, "x")
			}
		}()
	}
	for i := 0; i < 200; i++ {
		mustArm(t, &s, NetstackXmitBatch, Policy{EveryNth: 2})
		s.Disarm(NetstackXmitBatch)
	}
	close(stop)
	wg.Wait()
	if s.Armed() {
		t.Fatal("armed count drifted under concurrent Arm/Disarm")
	}
}

func mustArm(t *testing.T, s *Set, site Site, p Policy) {
	t.Helper()
	if err := s.Arm(site, p); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInjectDisarmed(b *testing.B) {
	var s Set
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Inject(KernelEntry); err != nil {
			b.Fatal(err)
		}
	}
}
