package modules_test

// Dead-module VFS semantics: while a filesystem module is quarantined
// (killed after a violation or contained panic, not yet restarted),
// operations against its mounts fail with clean EIO-mapped errors —
// never a hang or an escaped panic — dirty pages park in the cache, and
// after the supervisor publishes a successor generation everything
// drains and round-trips.

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"lxfi/internal/blockdev"
	"lxfi/internal/core"
	"lxfi/internal/failpoint"
	"lxfi/internal/kernel"
	"lxfi/internal/mem"
	"lxfi/internal/modules"
	"lxfi/internal/modules/minixsim"
	"lxfi/internal/modules/tmpfssim"
)

// killFS arms a one-shot contained panic at the kernel-export boundary
// (iget — called by the module's create, never during load/init, so
// the later restart cannot re-trip it) and trips it with a create.
func killFS(t *testing.T, ld *modules.Loader, th *core.Thread, name string, sb mem.Addr) {
	t.Helper()
	armFault(t, ld, failpoint.KernelEntry, failpoint.Policy{Arg: "iget", Panic: true, OneShot: true})
	if _, err := ld.BC.FS.Create(th, sb, "/killer"); err == nil {
		t.Fatal("create succeeded with a panic armed at iget")
	}
	m, ok := ld.Module(name)
	if !ok || !m.Dead() {
		t.Fatalf("contained panic did not kill %s", name)
	}
}

func TestDeadFSModuleFailsCleanly(t *testing.T) {
	t.Parallel()
	ld, th := newLoader(t, core.Enforce)
	if _, err := ld.Load(th, "tmpfssim"); err != nil {
		t.Fatal(err)
	}
	v := ld.BC.FS
	sb, err := v.Mount(th, tmpfssim.FsID, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("survives the outage")
	if _, err := v.Create(th, sb, "/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Write(th, sb, "/f", 0, data); err != nil {
		t.Fatal(err)
	}

	killFS(t, ld, th, "tmpfssim", sb)

	// Every op that needs a module crossing fails promptly with the EIO
	// mapping, ErrModuleDead still in the chain.
	for op, call := range map[string]func() error{
		"lookup": func() error { _, err := v.Lookup(th, sb, "/uncached"); return err },
		"create": func() error { _, err := v.Create(th, sb, "/g"); return err },
		"mount":  func() error { _, err := v.Mount(th, tmpfssim.FsID, 0); return err },
	} {
		err := call()
		if !errors.Is(err, core.ErrModuleDead) {
			t.Fatalf("%s on dead module: %v, want ErrModuleDead in chain", op, err)
		}
		var deg *core.DegradedError
		if !errors.As(err, &deg) || deg.Errno != kernel.EIO {
			t.Fatalf("%s on dead module: %v, want DegradedError(EIO)", op, err)
		}
	}
	// Cached state still serves: the page cache holds the only copy of
	// tmpfs data and reading it needs no module crossing.
	got, err := v.Read(th, sb, "/f", 0, uint64(len(data)))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("cached read during outage: %q, %v", got, err)
	}

	// A manual reload recovers, and the pre-death file is intact.
	if _, err := ld.Reload(th, "tmpfssim"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Create(th, sb, "/g"); err != nil {
		t.Fatalf("create after recovery: %v", err)
	}
	if _, err := v.Lookup(th, sb, "/f"); err != nil {
		t.Fatalf("lookup after recovery: %v", err)
	}
	got, err = v.Read(th, sb, "/f", 0, uint64(len(data)))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after recovery: %q, %v", got, err)
	}
}

func TestDirtyPagesParkAcrossModuleDeath(t *testing.T) {
	t.Parallel()
	k := kernel.New()
	k.Sys.Mon.SetMode(core.Enforce)
	bl := blockdev.Init(k)
	bl.AddDisk(1, minixsim.DiskSectors)
	ld := modules.NewLoaderWith(&modules.BootContext{K: k, Block: bl})
	th := k.Sys.NewThread("test")
	if _, err := ld.Load(th, "minixsim"); err != nil {
		t.Fatal(err)
	}
	v := ld.BC.FS
	sb, err := v.Mount(th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	sup := modules.StartSupervisor(ld, modules.SupervisorConfig{Backoff: time.Millisecond})
	defer sup.Stop()

	data := bytes.Repeat([]byte{0x5a}, mem.PageSize)
	if _, err := v.Create(th, sb, "/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Write(th, sb, "/f", 0, data); err != nil {
		t.Fatal(err)
	}
	dirty := v.DirtyCount()
	if dirty == 0 {
		t.Fatal("write left no dirty pages")
	}

	killFS(t, ld, th, "minixsim", sb)

	// Writeback cannot cross into the dead module: the pass returns
	// without hanging and the pages stay parked (errors keep them
	// dirty for the retry).
	v.FlushAged(th)
	if got := v.DirtyCount(); got != dirty {
		t.Fatalf("flush against dead module changed dirty count: %d -> %d", dirty, got)
	}

	if !sup.WaitIdle(5 * time.Second) {
		t.Fatal("supervisor did not recover minixsim")
	}
	if m, ok := ld.Module("minixsim"); !ok || m.Dead() {
		t.Fatal("minixsim not alive after supervised restart")
	}

	// The parked pages drain through the successor generation...
	v.FlushAged(th)
	if got := v.DirtyCount(); got != 0 {
		t.Fatalf("%d dirty pages still parked after recovery flush", got)
	}
	// ...and really reached the disk: evict the cache and read back.
	v.DropCaches(sb)
	got, err := v.Read(th, sb, "/f", 0, mem.PageSize)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("post-recovery disk read: %v (data match=%v)", err, bytes.Equal(got, data))
	}
}
