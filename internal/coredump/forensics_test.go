package coredump_test

// The forensic round trip the disk section exists for: a power cut
// mid-rename freezes the disk, a dump taken at that moment carries the
// frozen image, and a *fresh* system — fed nothing but the decoded
// dump — remounts it and recovers a consistent namespace (exactly the
// pre-op or post-op tree, never a half-moved one).

import (
	"sync/atomic"
	"testing"

	"lxfi/internal/blockdev"
	"lxfi/internal/core"
	"lxfi/internal/coredump"
	"lxfi/internal/failpoint"
	"lxfi/internal/kernel"
	"lxfi/internal/mem"
	"lxfi/internal/modules/minixsim"
	"lxfi/internal/vfs"
)

// bootFS brings up a kernel with the block layer, VFS, and minixsim.
func bootFS(t *testing.T) (*kernel.Kernel, *blockdev.Layer, *vfs.VFS, *core.Thread) {
	t.Helper()
	k := kernel.New()
	k.Sys.Mon.SetMode(core.Enforce)
	bl := blockdev.Init(k)
	v := vfs.Init(k, bl)
	th := k.Sys.NewThread("forensics")
	if _, err := minixsim.Load(th, k, v); err != nil {
		t.Fatal(err)
	}
	return k, bl, v, th
}

func names(t *testing.T, v *vfs.VFS, th *core.Thread, sb mem.Addr, dir string) map[string]bool {
	t.Helper()
	ents, err := v.Readdir(th, sb, dir)
	if err != nil {
		t.Fatalf("readdir %s: %v", dir, err)
	}
	out := make(map[string]bool, len(ents))
	for _, e := range ents {
		out[e.Name] = true
	}
	return out
}

func TestDiskSectionRemountsMidRenameCrash(t *testing.T) {
	// cut n: the rename's first n sector writes land and every later
	// one fails, freezing the disk at the cut point. Cut 1 lands
	// before the commit sector (the rename must vanish); later cuts
	// land after it (the rename must be complete). Either way the
	// recovered tree is one of the two legal states.
	for _, cut := range []int64{1, 2, 3} {
		k, bl, v, th := bootFS(t)
		bl.AddDisk(1, minixsim.DiskSectors)
		sb, err := v.Mount(th, minixsim.FsID, 1)
		if err != nil {
			t.Fatal(err)
		}
		payload := []byte("survives the crash")
		if _, err := v.Create(th, sb, "/src"); err != nil {
			t.Fatal(err)
		}
		if _, err := v.Write(th, sb, "/src", 0, payload); err != nil {
			t.Fatal(err)
		}
		if _, err := v.Create(th, sb, "/bystander"); err != nil {
			t.Fatal(err)
		}
		if err := v.Sync(th, sb); err != nil {
			t.Fatal(err)
		}

		var writes atomic.Int64
		powerCut := failpoint.Policy{Arg: "1", Do: func(string) error {
			if writes.Add(1) > cut {
				return failpoint.ErrInjected
			}
			return nil
		}}
		if err := k.Sys.Faults.Arm(failpoint.BlockdevWriteSector, powerCut); err != nil {
			t.Fatal(err)
		}
		renameErr := v.Rename(th, sb, "/src", sb, "/dst")
		k.Sys.Faults.Disarm(failpoint.BlockdevWriteSector)

		// The frozen machine is dumped with its disks; the dump round
		// trips through the wire format.
		raw, err := coredump.Snapshot(k.Sys, coredump.Options{
			Reason: "power cut mid-rename",
			VFS:    v,
			Block:  bl,
		}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		d, err := coredump.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Disks) != 1 || d.Disks[0].Dev != 1 || d.Disks[0].Sectors != minixsim.DiskSectors {
			t.Fatalf("cut %d: disk section = %+v", cut, d.Disks)
		}

		// A fresh system remounts the extracted image.
		_, bl2, v2, th2 := bootFS(t)
		bl2.AddDisk(1, minixsim.DiskSectors)
		copy(bl2.DiskBytes(1), d.Disks[0].Bytes())
		sb2, err := v2.Mount(th2, minixsim.FsID, 1)
		if err != nil {
			t.Fatalf("cut %d: remount of dumped disk: %v", cut, err)
		}
		got := names(t, v2, th2, sb2, "/")
		if !got["bystander"] {
			t.Fatalf("cut %d: bystander lost: %v", cut, got)
		}
		pre := got["src"] && !got["dst"]
		post := got["dst"] && !got["src"]
		if !pre && !post {
			t.Fatalf("cut %d: recovered root is neither pre nor post rename: %v", cut, got)
		}
		if renameErr == nil && !post {
			t.Fatalf("cut %d: rename reported success but recovered tree is pre-op", cut)
		}
		surviving := "/src"
		if post {
			surviving = "/dst"
		}
		data, err := v2.Read(th2, sb2, surviving, 0, uint64(len(payload)))
		if err != nil || string(data) != string(payload) {
			t.Fatalf("cut %d: %s content = %q, %v", cut, surviving, data, err)
		}
	}
}
