package vfs

import "lxfi/internal/mem"

// PageID names one cached page by inode and page index.
type PageID struct {
	Ino mem.Addr
	Idx uint64
}

// LRUOrder returns the pages on the eviction LRU, least recently used
// first.
func (v *VFS) LRUOrder() []PageID {
	v.pageMu.Lock()
	defer v.pageMu.Unlock()
	out := make([]PageID, 0, v.lru.Len())
	for e := v.lru.Front(); e != nil; e = e.Next() {
		p := e.Value.(*cachedPage)
		out = append(out, PageID{p.ino, p.idx})
	}
	return out
}

// HoldMount takes the mount's operation lock, as an operation running
// on another thread would, and returns the function that releases it.
func (v *VFS) HoldMount(sb mem.Addr) (release func()) {
	mnt := v.mountOf(sb)
	mnt.mu.Lock()
	return mnt.mu.Unlock
}

// ForgetDentries drops every cached dentry of the mount below its root,
// so the next resolution of each name crosses into the module's lookup.
func (v *VFS) ForgetDentries(sb mem.Addr) {
	mnt := v.mountOf(sb)
	mnt.mu.Lock()
	defer mnt.mu.Unlock()
	for d := range mnt.dentries {
		if d != mnt.root {
			v.dropDentry(mnt, d)
		}
	}
}
