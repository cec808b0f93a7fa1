package vfs

import (
	"fmt"
	"sort"

	"lxfi/internal/caps"
	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/mem"
)

type pageKey struct {
	ino mem.Addr
	idx uint64
}

// lruEntry is one evictable page on the LRU list: its key and the
// mount that cached it, which is the mount eviction must lock. Inode
// memory is never consulted for that: another thread may be freeing
// the inode under its own mount's lock.
type lruEntry struct {
	key pageKey
	mnt *mount
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

// PageBudget returns the configured page-cache budget (0 = unlimited).
func (v *VFS) PageBudget() int {
	v.pageMu.Lock()
	defer v.pageMu.Unlock()
	return v.pageBudget
}

// ShrinkToBudget applies the page budget to the cache as it stands —
// the explicit memory-pressure edge of the policy that otherwise runs
// on every insert. Dirty victims go through writeback, so the caller's
// thread crosses into the owning modules. The caller must hold no mount
// lock (victim mounts are locked as needed).
func (v *VFS) ShrinkToBudget(t *core.Thread) { v.evictForBudget(t, nil, nil) }

// touchPage marks a page most-recently used. Caller holds pageMu.
func (v *VFS) touchPage(key pageKey) {
	if e, ok := v.lruPos[key]; ok {
		v.lru.MoveToBack(e)
	}
}

// insertPage records a fresh page in the cache and, unless the mount
// is memory-only, on the LRU list, then applies the budget. Caller
// holds holder.mu but not pageMu.
func (v *VFS) insertPage(t *core.Thread, holder *mount, key pageKey, pg mem.Addr) {
	v.pageMu.Lock()
	v.pages[key] = pg
	if !holder.memOnly {
		v.lruPos[key] = v.lru.PushBack(lruEntry{key, holder})
	}
	v.pageMu.Unlock()
	v.evictForBudget(t, holder, &key)
}

// removePageLocked frees a cached page and drops every index entry for
// it. Caller holds pageMu.
func (v *VFS) removePageLocked(key pageKey) {
	pg, ok := v.pages[key]
	if !ok {
		return
	}
	_ = v.K.Sys.Slab.Free(pg)
	delete(v.pages, key)
	delete(v.dirty, key)
	delete(v.dirtyTick, key)
	if e, ok := v.lruPos[key]; ok {
		v.lru.Remove(e)
		delete(v.lruPos, key)
	}
}

// evictForBudget evicts from the LRU front until the cache fits the
// budget. keep, when non-nil, is the page the caller just inserted and
// is still using: it is never a victim, even when another thread's
// insert has since pushed it off the LRU tail. Memory-only pages are
// not on the LRU at all. A victim that refuses eviction (writeback
// failed, or its mount is busy on another thread or unmounted) rotates
// to the MRU end, and a pass gives up after as many attempts as the
// LRU held at its start — so the cache can exceed the budget when
// nothing evictable remains. holder is the mount whose lock the
// calling thread already holds (nil when none).
func (v *VFS) evictForBudget(t *core.Thread, holder *mount, keep *pageKey) {
	attempts := -1 // set from the LRU length once the cache is over budget
	for {
		v.pageMu.Lock()
		if v.pageBudget <= 0 || len(v.pages) <= v.pageBudget {
			v.pageMu.Unlock()
			return
		}
		if attempts < 0 {
			attempts = v.lru.Len()
		}
		e := v.lru.Front()
		if e != nil && keep != nil && e.Value.(lruEntry).key == *keep {
			e = e.Next()
		}
		if e == nil || attempts == 0 {
			v.pageMu.Unlock()
			return // nothing evictable remains this pass
		}
		attempts--
		victim := e.Value.(lruEntry)
		v.pageMu.Unlock()
		if !v.evictPage(t, holder, victim.mnt, victim.key) {
			v.pageMu.Lock()
			v.touchPage(victim.key)
			v.pageMu.Unlock()
		}
	}
}

// evictPage tries to reclaim one page: dirty victims are forced through
// the owning module's writepage first (the REF-capability crossing), so
// eviction under enforcement exercises the same contract as Sync.
// Returns false if the page must stay (dead module, failed writeback,
// or the owning mount mnt is busy on another thread or unmounted).
// Caller holds holder.mu (when holder != nil) and not pageMu.
func (v *VFS) evictPage(t *core.Thread, holder, mnt *mount, key pageKey) bool {
	// Evicting another mount's page needs that mount's lock. TryLock
	// keeps the lock order acyclic: a thread never *blocks* on a second
	// mount lock, so two mounts evicting each other's pages cannot
	// deadlock — one of them just skips the victim.
	if mnt != holder {
		if !mnt.mu.TryLock() {
			return false
		}
		defer mnt.mu.Unlock()
	}
	if mnt.dead {
		return false
	}
	v.pageMu.Lock()
	pg, cached := v.pages[key]
	dirty := v.dirty[key]
	v.pageMu.Unlock()
	if !cached {
		return true // already gone
	}
	if dirty {
		if ok, _ := v.writeBackPage(t, mnt, key, pg); !ok {
			return false // stays dirty; Sync (or a later pass) retries
		}
		v.Stats.EvictWrites.Add(1)
		mnt.wbForced.Add(1)
	}
	v.pageMu.Lock()
	defer v.pageMu.Unlock()
	if cur, ok := v.pages[key]; !ok || cur != pg || v.dirty[key] {
		// Redirtied or replaced while we crossed; not our victim anymore.
		return false
	}
	v.removePageLocked(key)
	v.Stats.Evictions.Add(1)
	return true
}

// writeBackPage pushes one dirty page through the owning module's
// writepage and clears the dirty bit on success. Caller holds mnt.mu
// but not pageMu.
func (v *VFS) writeBackPage(t *core.Thread, mnt *mount, key pageKey, pg mem.Addr) (bool, error) {
	v.Stats.PageWrites.Add(1)
	ret, err := v.gWritePage.Call(t, v.OpsSlot(mnt.fs.ops, "writepage"),
		uint64(mnt.sb), uint64(key.ino), key.idx, uint64(pg))
	if err == nil && ret != 0 {
		err = fmt.Errorf("vfs: writepage(%#x, %d): errno %d", uint64(key.ino), key.idx, -int64(ret))
	}
	if err != nil {
		return false, err
	}
	mnt.wbFlushed.Add(1)
	v.pageMu.Lock()
	if cur, ok := v.pages[key]; ok && cur == pg {
		delete(v.dirty, key)
		delete(v.dirtyTick, key)
	}
	v.pageMu.Unlock()
	return true, nil
}

// getPage returns the cached page for (inode, idx), filling a fresh one
// through the module's readpage callback on a miss. Ownership of the
// page travels with the call: WRITE transfers to the mount's principal
// on entry and back to the kernel on successful return. Caller holds
// mnt.mu, which is what keeps two fills of the same page from racing.
func (v *VFS) getPage(t *core.Thread, mnt *mount, ino mem.Addr, idx uint64) (mem.Addr, error) {
	key := pageKey{ino, idx}
	v.pageMu.Lock()
	if pg, ok := v.pages[key]; ok {
		v.touchPage(key)
		v.pageMu.Unlock()
		return pg, nil
	}
	v.pageMu.Unlock()
	sys := v.K.Sys
	pg, err := sys.Slab.Alloc(mem.PageSize)
	if err != nil {
		return 0, err
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
		return 0, err
	}
	v.insertPage(t, mnt, key, pg)
	return pg, nil
}

// allocPage returns the cached page for (inode, idx), or installs a
// fresh zeroed one without consulting the module — for writes that
// cover the entire page. Caller holds mnt.mu.
func (v *VFS) allocPage(t *core.Thread, mnt *mount, ino mem.Addr, idx uint64) (mem.Addr, error) {
	key := pageKey{ino, idx}
	v.pageMu.Lock()
	if pg, ok := v.pages[key]; ok {
		v.touchPage(key)
		v.pageMu.Unlock()
		return pg, nil
	}
	v.pageMu.Unlock()
	pg, err := v.K.Sys.Slab.Alloc(mem.PageSize)
	if err != nil {
		return 0, err
	}
	must(v.K.Sys.AS.Zero(pg, mem.PageSize))
	v.insertPage(t, mnt, key, pg)
	return pg, nil
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
		pg, err := v.getPage(t, mnt, d.inode, idx)
		if err != nil {
			return nil, err
		}
		if err := as.Read(pg+mem.Addr(po), out[done:done+chunk]); err != nil {
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
		var pg mem.Addr
		if chunk == mem.PageSize {
			pg, err = v.allocPage(t, mnt, d.inode, idx)
		} else {
			pg, err = v.getPage(t, mnt, d.inode, idx)
		}
		if err != nil {
			return done, err
		}
		if err := as.Write(pg+mem.Addr(po), data[done:done+chunk]); err != nil {
			return done, err
		}
		v.pageMu.Lock()
		v.dirty[pageKey{d.inode, idx}] = true
		v.dirtyTick[pageKey{d.inode, idx}] = v.flushTick.Load()
		v.pageMu.Unlock()
		done += chunk
	}
	if size, _ := as.ReadU64(v.InodeField(d.inode, "size")); off+n > size {
		must(as.WriteU64(v.InodeField(d.inode, "size"), off+n))
	}
	v.Stats.BytesWrited.Add(n)
	return n, nil
}

// dirtyKeysOf collects the mount's dirty pages, sorted for stable
// writeback order.
func (v *VFS) dirtyKeysOf(sb mem.Addr, aged bool, tick uint64) []pageKey {
	as := v.K.Sys.AS
	v.pageMu.Lock()
	var keys []pageKey
	for key := range v.dirty {
		if aged && v.dirtyTick[key] >= tick {
			continue
		}
		if owner, _ := as.ReadU64(v.InodeField(key.ino, "sb")); mem.Addr(owner) == sb {
			keys = append(keys, key)
		}
	}
	v.pageMu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].ino != keys[j].ino {
			return keys[i].ino < keys[j].ino
		}
		return keys[i].idx < keys[j].idx
	})
	return keys
}

// syncLocked writes the given dirty pages back through the module's
// writepage. Caller holds mnt.mu. A page that fails writeback stays
// dirty, but the pass continues: one bad page must not block the
// persistence of every page sorting after it. The first error is
// reported.
func (v *VFS) syncLocked(t *core.Thread, mnt *mount, keys []pageKey) error {
	var firstErr error
	for _, key := range keys {
		v.pageMu.Lock()
		pg, ok := v.pages[key]
		dirty := v.dirty[key]
		v.pageMu.Unlock()
		if !ok || !dirty {
			continue // evicted or cleaned while we flushed its neighbors
		}
		if _, err := v.writeBackPage(t, mnt, key, pg); err != nil && firstErr == nil {
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
	return v.syncLocked(t, mnt, v.dirtyKeysOf(sb, false, 0))
}

// DropCaches evicts every clean page of the mount (sync first to evict
// everything), so the next read refills from the module — the cold-read
// path fsperf measures. Memory-only mounts (SBMemOnly) are never
// evicted: their page cache is the only copy of the data, and a no-op
// writepage having cleared the dirty bit does not change that.
func (v *VFS) DropCaches(sb mem.Addr) int {
	mnt, err := v.lockMount(sb)
	if err != nil {
		return 0
	}
	defer mnt.mu.Unlock()
	as := v.K.Sys.AS
	if flags, _ := as.ReadU64(v.SBField(sb, "flags")); flags&SBMemOnly != 0 {
		return 0
	}
	v.pageMu.Lock()
	defer v.pageMu.Unlock()
	dropped := 0
	for key := range v.pages {
		if v.dirty[key] {
			continue
		}
		if owner, _ := as.ReadU64(v.InodeField(key.ino, "sb")); mem.Addr(owner) != sb {
			continue
		}
		v.removePageLocked(key)
		dropped++
	}
	return dropped
}

// dropPagesOf evicts every page (dirty or not) of a dying inode.
func (v *VFS) dropPagesOf(ino mem.Addr) {
	v.pageMu.Lock()
	defer v.pageMu.Unlock()
	for key := range v.pages {
		if key.ino == ino {
			v.removePageLocked(key)
		}
	}
}

// PageAddr exposes the cached page address for (inode, idx); tests and
// the exploit harness use it to locate victim pages.
func (v *VFS) PageAddr(ino mem.Addr, idx uint64) (mem.Addr, bool) {
	v.pageMu.Lock()
	defer v.pageMu.Unlock()
	pg, ok := v.pages[pageKey{ino, idx}]
	return pg, ok
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
	out := make([]CachedPage, 0, len(v.pages))
	for key, pg := range v.pages {
		out = append(out, CachedPage{Ino: key.ino, Idx: key.idx, Page: pg, Dirty: v.dirty[key]})
	}
	dirty := len(v.dirty)
	v.pageMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ino != out[j].Ino {
			return out[i].Ino < out[j].Ino
		}
		return out[i].Idx < out[j].Idx
	})
	return out, dirty
}

// PageCount returns the number of cached pages.
func (v *VFS) PageCount() int {
	v.pageMu.Lock()
	defer v.pageMu.Unlock()
	return len(v.pages)
}

// DirtyCount returns the number of dirty cached pages.
func (v *VFS) DirtyCount() int {
	v.pageMu.Lock()
	defer v.pageMu.Unlock()
	return len(v.dirty)
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
