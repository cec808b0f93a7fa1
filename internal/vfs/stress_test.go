package vfs_test

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"lxfi/internal/core"
	"lxfi/internal/mem"
	"lxfi/internal/modules/minixsim"
	"lxfi/internal/modules/tmpfssim"
)

// The VFS stress battery: worker threads on real goroutines hammer two
// mounts (tmpfssim and minixsim simultaneously) with the full op mix —
// create, write, read, rename, readdir, unlink — under a page budget
// small enough to force eviction (including cross-mount TryLock
// eviction) and with the background writeback flusher enabled. The
// assertions are (a) the race detector stays quiet, (b) the monitor
// records no violations, and (c) both namespaces drain to empty.
func TestVFSParallelStressTwoMounts(t *testing.T) {
	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		t.Run(mode.String(), func(t *testing.T) {
			r := newRig(t, mode)
			defer r.k.Shutdown()
			r.bl.AddDisk(1, minixsim.DiskSectors)
			if _, err := tmpfssim.Load(r.th, r.k, r.v); err != nil {
				t.Fatal(err)
			}
			if _, err := minixsim.Load(r.th, r.k, r.v); err != nil {
				t.Fatal(err)
			}
			sbT, err := r.v.Mount(r.th, tmpfssim.FsID, 0)
			if err != nil {
				t.Fatal(err)
			}
			sbM, err := r.v.Mount(r.th, minixsim.FsID, 1)
			if err != nil {
				t.Fatal(err)
			}

			r.v.SetPageBudget(8)
			defer r.v.SetPageBudget(0)
			r.v.EnableWriteback(200*time.Microsecond, 0.25)
			defer r.v.DisableWriteback()

			const (
				workersPerMount = 3
				iters           = 25
			)
			payload := bytes.Repeat([]byte{0xA5}, mem.PageSize+mem.PageSize/2)
			type job struct {
				sb   mem.Addr
				name string
			}
			var jobs []job
			for w := 0; w < workersPerMount; w++ {
				jobs = append(jobs,
					job{sbT, fmt.Sprintf("t%d", w)},
					job{sbM, fmt.Sprintf("m%d", w)})
			}
			errs := make([]error, len(jobs))
			var handles []*core.ThreadHandle
			for i, j := range jobs {
				i, j := i, j
				handles = append(handles, r.k.Sys.Spawn("stress-"+j.name, func(th *core.Thread) {
					for n := 0; n < iters; n++ {
						path := fmt.Sprintf("/%s_%03d", j.name, n)
						moved := path + "_r"
						if _, err := r.v.Create(th, j.sb, path); err != nil {
							errs[i] = fmt.Errorf("create %s: %w", path, err)
							return
						}
						if _, err := r.v.Write(th, j.sb, path, 0, payload); err != nil {
							errs[i] = fmt.Errorf("write %s: %w", path, err)
							return
						}
						got, err := r.v.Read(th, j.sb, path, 0, uint64(len(payload)))
						if err != nil || !bytes.Equal(got, payload) {
							errs[i] = fmt.Errorf("read %s: %v (corrupt=%v)", path, err, err == nil)
							return
						}
						if err := r.v.Rename(th, j.sb, path, j.sb, moved); err != nil {
							errs[i] = fmt.Errorf("rename %s: %w", path, err)
							return
						}
						if _, _, err := r.v.Stat(th, j.sb, moved); err != nil {
							errs[i] = fmt.Errorf("stat %s: %w", moved, err)
							return
						}
						if n%5 == 0 {
							if _, err := r.v.Readdir(th, j.sb, "/"); err != nil {
								errs[i] = fmt.Errorf("readdir: %w", err)
								return
							}
						}
						if err := r.v.Unlink(th, j.sb, moved); err != nil {
							errs[i] = fmt.Errorf("unlink %s: %w", moved, err)
							return
						}
					}
				}))
			}
			for _, h := range handles {
				h.Join()
			}
			for i, err := range errs {
				if err != nil {
					t.Fatalf("worker %s: %v", jobs[i].name, err)
				}
			}
			r.noViolations(t)
			for _, sb := range []mem.Addr{sbT, sbM} {
				ents, err := r.v.Readdir(r.th, sb, "/")
				if err != nil {
					t.Fatal(err)
				}
				if len(ents) != 0 {
					t.Fatalf("mount %#x not drained: %v", uint64(sb), ents)
				}
			}
		})
	}
}

// TestBackgroundFlusherAgesDirtyPages: one synchronous flusher pass
// (FlushAged drives exactly what the kflushd daemon's timer drives)
// must write aged dirty pages back through the module's REF-checked
// writepage, so later foreground eviction finds clean victims and pays
// no crossing.
func TestBackgroundFlusherAgesDirtyPages(t *testing.T) {
	r := newRig(t, core.Enforce)
	defer r.k.Shutdown()
	r.bl.AddDisk(1, minixsim.DiskSectors)
	if _, err := minixsim.Load(r.th, r.k, r.v); err != nil {
		t.Fatal(err)
	}
	sb, err := r.v.Mount(r.th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xC3}, 2*mem.PageSize)
	for i := 0; i < 4; i++ {
		p := fmt.Sprintf("/f%d", i)
		if _, err := r.v.Create(r.th, sb, p); err != nil {
			t.Fatal(err)
		}
		if _, err := r.v.Write(r.th, sb, p, 0, payload); err != nil {
			t.Fatal(err)
		}
	}
	if r.v.DirtyCount() == 0 {
		t.Fatal("no dirty pages to flush")
	}

	flusher := r.k.Sys.NewThread("kflushd-test")
	r.v.FlushAged(flusher)
	if n := r.v.DirtyCount(); n != 0 {
		t.Fatalf("%d pages still dirty after the flusher pass", n)
	}
	if r.v.Stats.FlushWrites.Load() == 0 {
		t.Fatal("flusher reported no writeback work")
	}
	if !bytes.Contains(r.bl.DiskBytes(1), payload[:mem.PageSize]) {
		t.Fatal("flusher did not persist the data")
	}

	// Foreground eviction now finds clean pages: crossings-free reclaim.
	evictWritesBefore := r.v.Stats.EvictWrites.Load()
	r.v.SetPageBudget(2)
	r.v.ShrinkToBudget(r.th)
	r.v.SetPageBudget(0)
	if r.v.Stats.Evictions.Load() == 0 {
		t.Fatal("budget pressure evicted nothing")
	}
	if got := r.v.Stats.EvictWrites.Load(); got != evictWritesBefore {
		t.Fatalf("foreground eviction paid %d writepage crossings despite the flusher", got-evictWritesBefore)
	}
	r.noViolations(t)
}

// TestFlusherDaemonRunsOnTimer: the kflushd daemon the kernel spawned
// at boot must, once EnableWriteback arms it, clean dirty pages with no
// foreground help at all.
func TestFlusherDaemonRunsOnTimer(t *testing.T) {
	r := newRig(t, core.Enforce)
	defer r.k.Shutdown()
	r.bl.AddDisk(1, minixsim.DiskSectors)
	if _, err := minixsim.Load(r.th, r.k, r.v); err != nil {
		t.Fatal(err)
	}
	sb, err := r.v.Mount(r.th, minixsim.FsID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.v.Create(r.th, sb, "/aged"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.v.Write(r.th, sb, "/aged", 0, []byte("patience")); err != nil {
		t.Fatal(err)
	}
	r.v.EnableWriteback(time.Millisecond, 0)
	defer r.v.DisableWriteback()
	deadline := time.Now().Add(5 * time.Second)
	for r.v.DirtyCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("flusher daemon never cleaned the dirty page")
		}
		time.Sleep(time.Millisecond)
	}
	if !bytes.Contains(r.bl.DiskBytes(1), []byte("patience")) {
		t.Fatal("daemon writeback did not reach the disk")
	}
	r.noViolations(t)
}

// TestEvictionNeverFreesTheInsertersPage: two threads, one per
// minixsim mount, fill cold pages under a budget far below the working
// set, so every insert evicts. A thread's fresh page is not the LRU
// tail once the other thread has inserted after it; eviction must still
// spare it, or the caller reads and writes a freed page. Every read
// checks the bytes last written to the file.
func TestEvictionNeverFreesTheInsertersPage(t *testing.T) {
	r := newRig(t, core.Enforce)
	defer r.k.Shutdown()
	if _, err := minixsim.Load(r.th, r.k, r.v); err != nil {
		t.Fatal(err)
	}
	var sbs []mem.Addr
	for dev := uint64(1); dev <= 2; dev++ {
		r.bl.AddDisk(dev, minixsim.DiskSectors)
		sb, err := r.v.Mount(r.th, minixsim.FsID, dev)
		if err != nil {
			t.Fatal(err)
		}
		sbs = append(sbs, sb)
	}
	const (
		files = 8
		iters = 400
	)
	size := 2 * mem.PageSize
	fill := func(file, gen int) []byte {
		return bytes.Repeat([]byte{byte(file*31 + gen*7 + 1)}, size)
	}
	for _, sb := range sbs {
		for f := 0; f < files; f++ {
			p := fmt.Sprintf("/f%d", f)
			if _, err := r.v.Create(r.th, sb, p); err != nil {
				t.Fatal(err)
			}
			if _, err := r.v.Write(r.th, sb, p, 0, fill(f, 0)); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.v.Sync(r.th, sb); err != nil {
			t.Fatal(err)
		}
	}
	// One page: whenever the other thread's page is cached, the
	// inserter's fresh page is over budget.
	r.v.SetPageBudget(1)
	defer r.v.SetPageBudget(0)
	r.v.ShrinkToBudget(r.th)

	errs := make([]error, len(sbs))
	var handles []*core.ThreadHandle
	for i, sb := range sbs {
		i, sb := i, sb
		handles = append(handles, r.k.Sys.Spawn(fmt.Sprintf("evict-%d", i), func(th *core.Thread) {
			gens := make([]int, files)
			for n := 0; n < iters; n++ {
				f := n % files
				p := fmt.Sprintf("/f%d", f)
				if n%4 == 0 {
					gens[f]++
					if _, err := r.v.Write(th, sb, p, 0, fill(f, gens[f])); err != nil {
						errs[i] = fmt.Errorf("write %s: %w", p, err)
						return
					}
					if err := r.v.Sync(th, sb); err != nil {
						errs[i] = fmt.Errorf("sync: %w", err)
						return
					}
				}
				got, err := r.v.Read(th, sb, p, 0, uint64(size))
				if err != nil || !bytes.Equal(got, fill(f, gens[f])) {
					errs[i] = fmt.Errorf("op %d: read %s: err=%v corrupt=%v", n, p, err, err == nil)
					return
				}
			}
		}))
	}
	for _, h := range handles {
		h.Join()
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("thread %d: %v", i, err)
		}
	}
	r.noViolations(t)
}

// TestEvictConcurrentUnlinkOnVictimMount: one thread creates, writes
// and unlinks files on a minixsim mount — each unlink frees and poisons
// the inode — while a second thread's cold reads on another minixsim
// mount insert pages that evict the first mount's. Eviction must find
// the victim's mount without reading the inode being freed, which the
// race detector checks.
func TestEvictConcurrentUnlinkOnVictimMount(t *testing.T) {
	r := newRig(t, core.Enforce)
	defer r.k.Shutdown()
	if _, err := minixsim.Load(r.th, r.k, r.v); err != nil {
		t.Fatal(err)
	}
	var sbs []mem.Addr
	for dev := uint64(1); dev <= 2; dev++ {
		r.bl.AddDisk(dev, minixsim.DiskSectors)
		sb, err := r.v.Mount(r.th, minixsim.FsID, dev)
		if err != nil {
			t.Fatal(err)
		}
		sbs = append(sbs, sb)
	}
	victims, readers := sbs[0], sbs[1]
	const files = 4
	for f := 0; f < files; f++ {
		p := fmt.Sprintf("/r%d", f)
		if _, err := r.v.Create(r.th, readers, p); err != nil {
			t.Fatal(err)
		}
		if _, err := r.v.Write(r.th, readers, p, 0, bytes.Repeat([]byte{byte(f + 1)}, mem.PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.v.Sync(r.th, readers); err != nil {
		t.Fatal(err)
	}
	r.v.DropCaches(readers)
	r.v.SetPageBudget(2)
	defer r.v.SetPageBudget(0)

	var done atomic.Bool
	var unlinkErr, readErr error
	reading := make(chan struct{}, 1)
	unlinker := r.k.Sys.Spawn("unlink", func(th *core.Thread) {
		defer done.Store(true)
		<-reading
		for n := 0; n < 150; n++ {
			p := fmt.Sprintf("/u%d", n%files)
			if _, err := r.v.Create(th, victims, p); err != nil {
				unlinkErr = fmt.Errorf("create %s: %w", p, err)
				return
			}
			if _, err := r.v.Write(th, victims, p, 0, []byte("victim page")); err != nil {
				unlinkErr = fmt.Errorf("write %s: %w", p, err)
				return
			}
			if err := r.v.Unlink(th, victims, p); err != nil {
				unlinkErr = fmt.Errorf("unlink %s: %w", p, err)
				return
			}
		}
	})
	reader := r.k.Sys.Spawn("evict", func(th *core.Thread) {
		defer close(reading)
		for n := 0; n < 2*files || !done.Load(); n++ {
			p := fmt.Sprintf("/r%d", n%files)
			if got, err := r.v.Read(th, readers, p, 0, 1); err != nil || got[0] != byte(n%files+1) {
				readErr = fmt.Errorf("read %s: %v %v", p, got, err)
				return
			}
			if n == files {
				reading <- struct{}{} // the budget is full: every read now evicts
			}
		}
	})
	unlinker.Join()
	reader.Join()
	if unlinkErr != nil || readErr != nil {
		t.Fatalf("unlinker: %v; reader: %v", unlinkErr, readErr)
	}
	if r.v.Stats.Evictions.Load() == 0 {
		t.Fatal("the reader's inserts never evicted")
	}
	r.noViolations(t)
}
