package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"time"

	"lxfi/internal/blockdev"
	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/mem"
	"lxfi/internal/modules"
	_ "lxfi/internal/modules/all"
	"lxfi/internal/modules/minixsim"
	"lxfi/internal/modules/tmpfssim"
	"lxfi/internal/vfs"
)

// The fs workloads mount tmpfssim and minixsim on one VFS; each mount
// has its own preloaded files and its own seed-driven op stream. fs-hot
// and fs-evict run one load thread per mount; fs-evict-1t runs both
// streams on one load thread, picking the mount per operation.
const (
	fsFiles     = 48
	fsFileBytes = 2 * mem.PageSize
	fsPool      = 16 // distinct file contents a thread draws from

	// evictBudget is fs-evict's page budget: a third of the ~192-page
	// working set. tmpfssim pages are memory-only and never evictable,
	// and there are more of them (~96) than the budget, so eviction
	// takes every minixsim page but the one just inserted.
	evictBudget = 64
	// evict1tBudget is fs-evict-1t's: it leaves room for 16 minixsim
	// pages, a sixth of that mount's working set, beside the ~96
	// unevictable tmpfssim pages, so which minixsim pages stay cached
	// is up to the LRU.
	evict1tBudget = 96 + 16
	// evict1tTmpfsEvery is how often, one op in so many, fs-evict-1t's
	// thread works on tmpfssim instead of minixsim. With this share and
	// budget most reads miss, so the op, read and write medians each fall
	// among the slow modes (writes ~230 µs, cold reads ~300-400 µs), not
	// in the gap below them, where a small shift in the hit share would
	// move them a long way.
	evict1tTmpfsEvery = 8
)

type fsRig struct {
	pick    *rand.Rand // mount choice when one thread drives both
	k       *kernel.Kernel
	bl      *blockdev.Layer
	v       *vfs.VFS
	th      *core.Thread
	workers []*fsWorker
}

// fsWorker is one load thread's mount and the contents it expects.
type fsWorker struct {
	v     *vfs.VFS
	sb    mem.Addr
	paths [fsFiles]string
	last  [fsFiles]int // pool index last written to each file; -1 if unknown
	pool  [][]byte
	rng   *rand.Rand
	tag   int64 // high bits of this thread's request ids
	seq   int64
}

// bootFS returns the boot function of an fs workload with the given
// page budget (0 = unlimited).
func bootFS(budget int) func(core.Mode, uint64) (rig, error) {
	return func(mode core.Mode, seed uint64) (rig, error) {
		r, err := newFSRig(mode, seed, budget)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
}

func newFSRig(mode core.Mode, seed uint64, budget int) (*fsRig, error) {
	k := kernel.New()
	k.Sys.Mon.SetMode(mode)
	bl := blockdev.Init(k)
	bl.AddDisk(1, minixsim.DiskSectors)
	v := vfs.Init(k, bl)
	v.SetPageBudget(budget)
	th := k.Sys.NewThread("perfbench-boot")
	r := &fsRig{pick: rand.New(rand.NewPCG(seed, 5)), k: k, bl: bl, v: v, th: th}
	ld := modules.NewLoaderWith(&modules.BootContext{K: k, Block: bl, FS: v})
	for i, m := range []struct {
		module    string
		fsid, dev uint64
	}{{"tmpfssim", tmpfssim.FsID, 0}, {"minixsim", minixsim.FsID, 1}} {
		if _, err := ld.Load(th, m.module); err != nil {
			r.close()
			return nil, err
		}
		sb, err := v.Mount(th, m.fsid, m.dev)
		if err != nil {
			r.close()
			return nil, err
		}
		rng := rand.New(rand.NewPCG(seed, uint64(3+i)))
		w := &fsWorker{v: v, sb: sb, pool: payloads(rng, fsPool, fsFileBytes), rng: rng, tag: int64(i) << 48}
		if err := w.preload(th); err != nil {
			r.close()
			return nil, fmt.Errorf("preload %s: %w", m.module, err)
		}
		r.workers = append(r.workers, w)
	}
	return r, nil
}

// preload creates the thread's files with seed-chosen contents and
// syncs them.
func (w *fsWorker) preload(t *core.Thread) error {
	for f := range w.paths {
		w.paths[f] = fmt.Sprintf("/f%02d", f)
		p := w.rng.IntN(fsPool)
		if _, err := w.v.Create(t, w.sb, w.paths[f]); err != nil {
			return err
		}
		if _, err := w.v.Write(t, w.sb, w.paths[f], 0, w.pool[p]); err != nil {
			return err
		}
		w.last[f] = p
	}
	return w.v.Sync(t, w.sb)
}

func (r *fsRig) system() *core.System { return r.k.Sys }
func (r *fsRig) close()               { r.k.Shutdown() }

func (r *fsRig) counters() substrate {
	var s substrate
	s.sectorReads, s.sectorWrites = r.bl.SectorIO()
	for _, w := range r.workers {
		wb, _ := r.v.WritebackStats(w.sb)
		s.pagesFlushed += wb.PagesFlushed
		s.forcedForeground += wb.ForcedForeground
	}
	s.pageCachePages = r.v.PageCount()
	return s
}

// drive runs the load threads until stop: one kernel thread per mount,
// or with a single recorder one thread over both mounts.
func (r *fsRig) drive(stop time.Time, recs []*recorder) error {
	if len(recs) == 1 {
		tmpfs, minix := r.workers[0], r.workers[1]
		h := r.k.Sys.Spawn("perfbench-fs", func(t *core.Thread) {
			for time.Now().Before(stop) {
				// tmpfssim's pages stay cached either way and keep the
				// cache over budget; its inserts evict minixsim pages.
				w := minix
				if r.pick.IntN(evict1tTmpfsEvery) == 0 {
					w = tmpfs
				}
				w.step(t, recs[0])
			}
		})
		h.Join()
		return nil
	}
	hs := make([]*core.ThreadHandle, len(r.workers))
	for i, w := range r.workers {
		w, rec := w, recs[i]
		hs[i] = r.k.Sys.Spawn(fmt.Sprintf("perfbench-fs%d", i), func(t *core.Thread) {
			for time.Now().Before(stop) {
				w.step(t, rec)
			}
		})
	}
	for _, h := range hs {
		h.Join()
	}
	return nil
}

// step runs one operation of the mix: 60% whole-file read, 10% stat,
// 20% overwrite + sync, 10% create / one-page write / unlink.
func (w *fsWorker) step(t *core.Thread, rec *recorder) {
	w.seq++
	req := w.tag | w.seq
	rec.tr.begin(spanOp, req)
	start := time.Now()
	var ok bool
	kind := kRead
	switch x := w.rng.IntN(100); {
	case x < 60:
		ok = w.read(t, w.rng.IntN(fsFiles), rec, req)
	case x < 70:
		ok = w.stat(t, w.rng.IntN(fsFiles), rec, req)
	case x < 90:
		kind = kWrite
		ok = w.overwrite(t, w.rng.IntN(fsFiles), w.rng.IntN(fsPool), rec, req)
	default:
		kind = kWrite
		ok = w.churn(t, w.rng.IntN(fsPool), rec, req)
	}
	rec.sample(kind, rec.finish(start, ok), ok)
	rec.tr.end()
}

// read reads file f whole; it must hold what the seed last wrote.
func (w *fsWorker) read(t *core.Thread, f int, rec *recorder, req int64) bool {
	rec.tr.begin(spanRead, req)
	data, err := w.v.Read(t, w.sb, w.paths[f], 0, fsFileBytes)
	rec.tr.end()
	rec.bytes += int64(len(data))
	return err == nil && w.last[f] >= 0 && bytes.Equal(data, w.pool[w.last[f]])
}

func (w *fsWorker) stat(t *core.Thread, f int, rec *recorder, req int64) bool {
	rec.tr.begin(spanStat, req)
	size, nlink, err := w.v.Stat(t, w.sb, w.paths[f])
	rec.tr.end()
	return err == nil && size == fsFileBytes && nlink == 1
}

// overwrite replaces file f with pool entry p and syncs the mount.
func (w *fsWorker) overwrite(t *core.Thread, f, p int, rec *recorder, req int64) bool {
	w.last[f] = -1
	rec.tr.begin(spanWrite, req)
	n, err := w.v.Write(t, w.sb, w.paths[f], 0, w.pool[p])
	rec.tr.end()
	if err != nil || n != fsFileBytes {
		return false
	}
	w.last[f] = p
	rec.bytes += fsFileBytes
	rec.tr.begin(spanSync, req)
	err = w.v.Sync(t, w.sb)
	rec.tr.end()
	return err == nil
}

// churn creates a file, writes one page and unlinks it.
func (w *fsWorker) churn(t *core.Thread, p int, rec *recorder, req int64) bool {
	const path = "/churn"
	rec.tr.begin(spanCreate, req)
	_, err := w.v.Create(t, w.sb, path)
	rec.tr.end()
	if err != nil {
		return false
	}
	rec.tr.begin(spanWrite, req)
	n, werr := w.v.Write(t, w.sb, path, 0, w.pool[p][:mem.PageSize])
	rec.tr.end()
	rec.tr.begin(spanUnlink, req)
	err = w.v.Unlink(t, w.sb, path)
	rec.tr.end()
	if werr != nil || n != mem.PageSize || err != nil {
		return false
	}
	rec.bytes += mem.PageSize
	return true
}
