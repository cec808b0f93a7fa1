package vfs

import (
	"cmp"
	"container/list"
	"fmt"
	"math"
	"slices"

	"lxfi/internal/caps"
	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/mem"
)

// cachedPage is one page-cache entry: the page, the mount that cached
// it, and its writeback and LRU state. mnt is the operation's own mount
// at insert time and never changes; no page-cache decision consults
// inode or superblock memory for it, because the module can write both.
// Every field but ino, idx, pg and mnt is guarded by VFS.pageMu.
type cachedPage struct {
	ino   mem.Addr
	idx   uint64
	pg    mem.Addr
	mnt   *mount
	dirty bool
	tick  uint64        // flusher tick at which the page was last dirtied
	lru   *list.Element // nil on memory-only mounts
}

// SetPageBudget caps the number of cached pages (0 = unlimited).
// Inserting a page past the budget evicts least-recently-used pages;
// a dirty victim is first written back through the owning module's
// writepage — memory pressure, not just an explicit Sync, now drives
// pages through the module's REF-checked writeback path.
func (v *VFS) SetPageBudget(n int) {
	v.pageMu.Lock()
	defer v.pageMu.Unlock()
	v.pageBudget = n
}

// ShrinkToBudget applies the page budget to the cache as it stands —
// the explicit memory-pressure edge of the policy that otherwise runs
// on every insert. Dirty victims go through writeback, so the caller's
// thread crosses into the owning modules. The caller must hold no mount
// lock (victim mounts are locked as needed).
func (v *VFS) ShrinkToBudget(t *core.Thread) { v.evictForBudget(t, nil, nil) }

// insertPage records a fresh page of holder in the cache and, unless
// the mount is memory-only, on the LRU list, then applies the budget.
// Caller holds holder.mu but not pageMu.
func (v *VFS) insertPage(t *core.Thread, holder *mount, ino mem.Addr, idx uint64, pg mem.Addr) *cachedPage {
	p := &cachedPage{ino: ino, idx: idx, pg: pg, mnt: holder}
	v.pageMu.Lock()
	byIdx := v.pages[ino]
	if byIdx == nil {
		byIdx = make(map[uint64]*cachedPage)
		v.pages[ino] = byIdx
	}
	byIdx[idx] = p
	v.nPages++
	if !holder.memOnly {
		p.lru = v.lru.PushBack(p)
	}
	v.pageMu.Unlock()
	v.evictForBudget(t, holder, p)
	return p
}

// markDirty records a write to p. Caller holds p.mnt.mu.
func (v *VFS) markDirty(p *cachedPage) {
	v.pageMu.Lock()
	defer v.pageMu.Unlock()
	if !p.dirty {
		p.dirty = true
		p.mnt.dirty[p] = struct{}{}
		v.nDirty++
	}
	p.tick = v.flushTick.Load()
}

// cleanLocked clears p's dirty state. Caller holds pageMu.
func (v *VFS) cleanLocked(p *cachedPage) {
	if p.dirty {
		p.dirty = false
		delete(p.mnt.dirty, p)
		v.nDirty--
	}
}

// removePageLocked frees a cached page and drops it from the index, its
// mount's dirty set and the LRU. Caller holds pageMu.
func (v *VFS) removePageLocked(p *cachedPage) {
	_ = v.K.Sys.Slab.Free(p.pg)
	byIdx := v.pages[p.ino]
	delete(byIdx, p.idx)
	if len(byIdx) == 0 {
		delete(v.pages, p.ino)
	}
	v.nPages--
	v.cleanLocked(p)
	if p.lru != nil {
		v.lru.Remove(p.lru)
	}
}

// evictForBudget evicts from the LRU front until the cache fits the
// budget. keep, when non-nil, is the page the caller just inserted and
// is still using: it is never a victim, even when another thread's
// insert has since pushed it off the LRU tail. Memory-only pages are
// not on the LRU at all. A victim that refuses eviction (writeback
// failed, or its mount is busy on another thread) rotates to the MRU
// end, and a pass gives up after as many attempts as the LRU held at
// its start — so the cache can exceed the budget when nothing
// evictable remains. holder is the mount whose lock the calling thread
// already holds (nil when none).
func (v *VFS) evictForBudget(t *core.Thread, holder *mount, keep *cachedPage) {
	attempts := -1 // set from the LRU length once the cache is over budget
	for {
		v.pageMu.Lock()
		if v.pageBudget <= 0 || v.nPages <= v.pageBudget {
			v.pageMu.Unlock()
			return
		}
		if attempts < 0 {
			attempts = v.lru.Len()
		}
		e := v.lru.Front()
		if e != nil && keep != nil && e == keep.lru {
			e = e.Next()
		}
		if e == nil || attempts == 0 {
			v.pageMu.Unlock()
			return // nothing evictable remains this pass
		}
		attempts--
		victim := e.Value.(*cachedPage)
		v.pageMu.Unlock()
		if !v.evictPage(t, holder, victim) {
			v.pageMu.Lock()
			v.lru.MoveToBack(victim.lru) // no-op once the victim is gone
			v.pageMu.Unlock()
		}
	}
}

// evictPage tries to reclaim one page: dirty victims are forced through
// the owning module's writepage first (the REF-capability crossing), so
// eviction under enforcement exercises the same contract as Sync.
// Returns false if the page must stay (dead module, failed writeback,
// or its mount busy on another thread). Caller holds holder.mu (when
// holder != nil) and not pageMu.
func (v *VFS) evictPage(t *core.Thread, holder *mount, p *cachedPage) bool {
	// Evicting another mount's page needs that mount's lock. TryLock
	// keeps the lock order acyclic: a thread never *blocks* on a second
	// mount lock, so two mounts evicting each other's pages cannot
	// deadlock — one of them just skips the victim. Unmount drops the
	// mount's pages under this lock, so a victim still cached below is
	// never one of an unmounted mount.
	if mnt := p.mnt; mnt != holder {
		if !mnt.mu.TryLock() {
			return false
		}
		defer mnt.mu.Unlock()
	}
	v.pageMu.Lock()
	cached, dirty := v.pages[p.ino][p.idx] == p, p.dirty
	v.pageMu.Unlock()
	if !cached {
		return true // already gone
	}
	if dirty {
		if ok, _ := v.writeBackPage(t, p); !ok {
			return false // stays dirty; Sync (or a later pass) retries
		}
		v.Stats.EvictWrites.Add(1)
		p.mnt.wbForced.Add(1)
	}
	v.pageMu.Lock()
	defer v.pageMu.Unlock()
	if v.pages[p.ino][p.idx] != p || p.dirty {
		// Dropped or redirtied while we crossed; not our victim anymore.
		return false
	}
	v.removePageLocked(p)
	v.Stats.Evictions.Add(1)
	return true
}

// writeBackPage pushes one dirty page through its mount's writepage and
// clears the dirty bit on success. Caller holds p.mnt.mu but not
// pageMu.
func (v *VFS) writeBackPage(t *core.Thread, p *cachedPage) (bool, error) {
	mnt := p.mnt
	v.Stats.PageWrites.Add(1)
	ret, err := v.gWritePage.Call(t, v.OpsSlot(mnt.fs.ops, "writepage"),
		uint64(mnt.sb), uint64(p.ino), p.idx, uint64(p.pg))
	if err == nil && ret != 0 {
		err = fmt.Errorf("vfs: writepage(%#x, %d): errno %d", uint64(p.ino), p.idx, -int64(ret))
	}
	if err != nil {
		return false, err
	}
	mnt.wbFlushed.Add(1)
	v.pageMu.Lock()
	v.cleanLocked(p)
	v.pageMu.Unlock()
	return true, nil
}

// getPage returns the cached page for (inode, idx), marked
// most-recently used. On a miss it fills a fresh page through the
// module's readpage callback or, when whole is set (a write covering
// the entire page, whose old contents are dead on arrival), installs it
// zeroed without consulting the module. Ownership of a filled page
// travels with the call: WRITE transfers to the mount's principal on
// entry and back to the kernel on successful return. Caller holds
// mnt.mu, which is what keeps two fills of the same page from racing.
func (v *VFS) getPage(t *core.Thread, mnt *mount, ino mem.Addr, idx uint64, whole bool) (*cachedPage, error) {
	v.pageMu.Lock()
	p := v.pages[ino][idx]
	if p != nil && p.lru != nil {
		v.lru.MoveToBack(p.lru)
	}
	v.pageMu.Unlock()
	if p != nil {
		return p, nil
	}
	sys := v.K.Sys
	pg, err := sys.Slab.Alloc(mem.PageSize)
	if err != nil {
		return nil, err
	}
	if whole {
		must(sys.AS.Zero(pg, mem.PageSize))
		return v.insertPage(t, mnt, ino, idx, pg), nil
	}
	v.Stats.PageFills.Add(1)
	ret, err := v.gReadPage.Call(t, v.OpsSlot(mnt.fs.ops, "readpage"),
		uint64(mnt.sb), uint64(ino), idx, uint64(pg))
	if err != nil || ret != 0 {
		// The revoke post-action (or the aborted call) already stripped
		// the module's WRITE; make sure no grant survives an interrupted
		// annotation run, then recycle the page.
		sys.Caps.RevokeAll(caps.WriteCap(pg, mem.PageSize))
		_ = sys.Slab.Free(pg)
		if err == nil {
			err = fmt.Errorf("vfs: readpage(%#x, %d): errno %d", uint64(ino), idx, -int64(ret))
		}
		return nil, err
	}
	return v.insertPage(t, mnt, ino, idx, pg), nil
}

// Read copies n bytes starting at off out of the file's page cache,
// bounded by the inode size. Cold pages are filled by the module;
// everything else is a trusted kernel-side copy.
func (v *VFS) Read(t *core.Thread, sb mem.Addr, path string, off, n uint64) (_ []byte, rerr error) {
	defer func() { rerr = degradeFS("vfs.read", rerr) }()
	mnt, err := v.lockMount(sb)
	if err != nil {
		return nil, err
	}
	defer mnt.mu.Unlock()
	d, err := v.walk(t, mnt, path)
	if err != nil {
		return nil, err
	}
	as := v.K.Sys.AS
	size, _ := as.ReadU64(v.InodeField(d.inode, "size"))
	if off >= size {
		return nil, nil
	}
	if off+n > size {
		n = size - off
	}
	out := make([]byte, n)
	for done := uint64(0); done < n; {
		pos := off + done
		idx := pos / mem.PageSize
		po := pos % mem.PageSize
		chunk := mem.PageSize - po
		if rem := n - done; chunk > rem {
			chunk = rem
		}
		p, err := v.getPage(t, mnt, d.inode, idx, false)
		if err != nil {
			return nil, err
		}
		if err := as.Read(p.pg+mem.Addr(po), out[done:done+chunk]); err != nil {
			return nil, err
		}
		done += chunk
	}
	v.Stats.BytesRead.Add(n)
	return out, nil
}

// Write copies data into the page cache at off, marking the touched
// pages dirty and growing the inode size. Partially covered cold pages
// are read-modify-write (the module fills them first via readpage);
// fully covered cold pages skip the readpage round-trip — their old
// contents are dead on arrival, so reading them back would only leak
// stale bytes and pay a pointless module crossing.
func (v *VFS) Write(t *core.Thread, sb mem.Addr, path string, off uint64, data []byte) (_ uint64, rerr error) {
	defer func() { rerr = degradeFS("vfs.write", rerr) }()
	mnt, err := v.lockMount(sb)
	if err != nil {
		return 0, err
	}
	defer mnt.mu.Unlock()
	d, err := v.walk(t, mnt, path)
	if err != nil {
		return 0, err
	}
	as := v.K.Sys.AS
	n := uint64(len(data))
	// s_maxbytes: the module declares its per-file capacity at mount
	// time (0 = unlimited); writes past it are rejected before any page
	// is dirtied, so an unpersistable page can never wedge Sync.
	if maxb, _ := as.ReadU64(v.SBField(sb, "maxbytes")); maxb != 0 && off+n > maxb {
		return 0, fmt.Errorf("vfs: %s: errno %d", path, kernel.EFBIG)
	}
	for done := uint64(0); done < n; {
		pos := off + done
		idx := pos / mem.PageSize
		po := pos % mem.PageSize
		chunk := mem.PageSize - po
		if rem := n - done; chunk > rem {
			chunk = rem
		}
		p, err := v.getPage(t, mnt, d.inode, idx, chunk == mem.PageSize)
		if err != nil {
			return done, err
		}
		if err := as.Write(p.pg+mem.Addr(po), data[done:done+chunk]); err != nil {
			return done, err
		}
		v.markDirty(p)
		done += chunk
	}
	if size, _ := as.ReadU64(v.InodeField(d.inode, "size")); off+n > size {
		must(as.WriteU64(v.InodeField(d.inode, "size"), off+n))
	}
	v.Stats.BytesWrited.Add(n)
	return n, nil
}

// dirtyPagesOf collects the mount's pages dirtied before tick, sorted
// by (inode, index) for a stable writeback order. Caller holds mnt.mu.
func (v *VFS) dirtyPagesOf(mnt *mount, before uint64) []*cachedPage {
	v.pageMu.Lock()
	out := make([]*cachedPage, 0, len(mnt.dirty))
	for p := range mnt.dirty {
		if p.tick < before {
			out = append(out, p)
		}
	}
	v.pageMu.Unlock()
	slices.SortFunc(out, func(a, b *cachedPage) int {
		return cmp.Or(cmp.Compare(a.ino, b.ino), cmp.Compare(a.idx, b.idx))
	})
	return out
}

// syncLocked writes the given dirty pages back through the module's
// writepage. Caller holds mnt.mu. A page that fails writeback stays
// dirty, but the pass continues: one bad page must not block the
// persistence of every page sorting after it. The first error is
// reported.
func (v *VFS) syncLocked(t *core.Thread, pages []*cachedPage) error {
	var firstErr error
	for _, p := range pages {
		v.pageMu.Lock()
		dirty := p.dirty
		v.pageMu.Unlock()
		if !dirty {
			continue // dropped or cleaned while we flushed its neighbors
		}
		if _, err := v.writeBackPage(t, p); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Sync writes every dirty page of the mount back through the module's
// writepage callback (REF handoff: the module proves ownership to
// pc_writeback but cannot modify the clean page).
func (v *VFS) Sync(t *core.Thread, sb mem.Addr) (rerr error) {
	defer func() { rerr = degradeFS("vfs.sync", rerr) }()
	mnt, err := v.lockMount(sb)
	if err != nil {
		return err
	}
	defer mnt.mu.Unlock()
	return v.syncLocked(t, v.dirtyPagesOf(mnt, math.MaxUint64))
}

// DropCaches evicts every clean page of the mount (sync first to evict
// everything), so the next read refills from the module — the cold-read
// path fsperf measures. Memory-only mounts are never evicted: their
// page cache is the only copy of the data, and a no-op writepage having
// cleared the dirty bit does not change that.
func (v *VFS) DropCaches(sb mem.Addr) int {
	mnt, err := v.lockMount(sb)
	if err != nil {
		return 0
	}
	defer mnt.mu.Unlock()
	if mnt.memOnly {
		return 0
	}
	return v.dropMountPages(mnt, false)
}

// dropMountPages frees the pages mnt cached, the dirty ones too when
// all is set, and returns how many it freed. Caller holds mnt.mu.
func (v *VFS) dropMountPages(mnt *mount, all bool) int {
	v.pageMu.Lock()
	defer v.pageMu.Unlock()
	dropped := 0
	for _, byIdx := range v.pages {
		for _, p := range byIdx {
			if p.mnt == mnt && (all || !p.dirty) {
				v.removePageLocked(p)
				dropped++
			}
		}
	}
	return dropped
}

// dropInodePages frees every page (dirty or not) of a dying inode.
func (v *VFS) dropInodePages(ino mem.Addr) {
	v.pageMu.Lock()
	defer v.pageMu.Unlock()
	for _, p := range v.pages[ino] {
		v.removePageLocked(p)
	}
}

// PageAddr exposes the cached page address for (inode, idx); tests and
// the exploit harness use it to locate victim pages.
func (v *VFS) PageAddr(ino mem.Addr, idx uint64) (mem.Addr, bool) {
	v.pageMu.Lock()
	defer v.pageMu.Unlock()
	if p := v.pages[ino][idx]; p != nil {
		return p.pg, true
	}
	return 0, false
}

// CachedPage is one page-cache entry as coredump snapshots see it.
type CachedPage struct {
	Ino   mem.Addr
	Idx   uint64
	Page  mem.Addr
	Dirty bool
}

// DumpPages copies out the page cache (sorted by inode then index) and
// the dirty count. It takes only pageMu — a leaf below every mount lock
// — so it is safe even from a violation hook that fires mid-crossing.
func (v *VFS) DumpPages() ([]CachedPage, int) {
	v.pageMu.Lock()
	out := make([]CachedPage, 0, v.nPages)
	for _, byIdx := range v.pages {
		for _, p := range byIdx {
			out = append(out, CachedPage{Ino: p.ino, Idx: p.idx, Page: p.pg, Dirty: p.dirty})
		}
	}
	dirty := v.nDirty
	v.pageMu.Unlock()
	slices.SortFunc(out, func(a, b CachedPage) int {
		return cmp.Or(cmp.Compare(a.Ino, b.Ino), cmp.Compare(a.Idx, b.Idx))
	})
	return out, dirty
}

// PageCount returns the number of cached pages.
func (v *VFS) PageCount() int {
	v.pageMu.Lock()
	defer v.pageMu.Unlock()
	return v.nPages
}

// DirtyCount returns the number of dirty cached pages.
func (v *VFS) DirtyCount() int {
	v.pageMu.Lock()
	defer v.pageMu.Unlock()
	return v.nDirty
}

// WritebackStats is one mount's writeback activity.
type WritebackStats struct {
	PagesFlushed     uint64 // successful writepage crossings for this mount
	ForcedForeground uint64 // dirty victims the LRU policy had to write back itself
}

// WritebackStats returns the writeback counters of a mounted
// superblock.
func (v *VFS) WritebackStats(sb mem.Addr) (WritebackStats, bool) {
	mnt := v.mountOf(sb)
	if mnt == nil {
		return WritebackStats{}, false
	}
	return WritebackStats{
		PagesFlushed:     mnt.wbFlushed.Load(),
		ForcedForeground: mnt.wbForced.Load(),
	}, true
}
