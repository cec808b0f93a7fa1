package vfs_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"lxfi/internal/core"
	"lxfi/internal/mem"
	"lxfi/internal/modules/minixsim"
	"lxfi/internal/modules/tmpfssim"
	"lxfi/internal/vfs"
)

// evictRig is a rig with a tmpfssim mount and n minixsim mounts (one
// disk each).
func evictRig(t testing.TB, minixMounts int) (r *rig, tmp mem.Addr, minix []mem.Addr) {
	t.Helper()
	r = newRig(t, core.Enforce)
	if _, err := tmpfssim.Load(r.th, r.k, r.v); err != nil {
		t.Fatal(err)
	}
	if _, err := minixsim.Load(r.th, r.k, r.v); err != nil {
		t.Fatal(err)
	}
	tmp, err := r.v.Mount(r.th, tmpfssim.FsID, 0)
	if err != nil {
		t.Fatal(err)
	}
	for dev := uint64(1); dev <= uint64(minixMounts); dev++ {
		r.bl.AddDisk(dev, minixsim.DiskSectors)
		sb, err := r.v.Mount(r.th, minixsim.FsID, dev)
		if err != nil {
			t.Fatal(err)
		}
		minix = append(minix, sb)
	}
	return r, tmp, minix
}

// writeFiles creates files /f0.. on sb, each pages pages long.
func writeFiles(t testing.TB, r *rig, sb mem.Addr, files, pages int) {
	t.Helper()
	for f := 0; f < files; f++ {
		p := fmt.Sprintf("/f%d", f)
		if _, err := r.v.Create(r.th, sb, p); err != nil {
			t.Fatal(err)
		}
		data := bytes.Repeat([]byte{byte(f + 1)}, pages*mem.PageSize)
		if _, err := r.v.Write(r.th, sb, p, 0, data); err != nil {
			t.Fatal(err)
		}
	}
}

// coldFiles writes files one-page files on a minixsim mount, syncs
// them and drops them from the cache, so the next read of each refills
// it through readpage.
func coldFiles(t testing.TB, r *rig, sb mem.Addr, files int) []mem.Addr {
	t.Helper()
	writeFiles(t, r, sb, files, 1)
	if err := r.v.Sync(r.th, sb); err != nil {
		t.Fatal(err)
	}
	r.v.DropCaches(sb)
	var inos []mem.Addr
	for f := 0; f < files; f++ {
		ino, err := r.v.Lookup(r.th, sb, fmt.Sprintf("/f%d", f))
		if err != nil {
			t.Fatal(err)
		}
		inos = append(inos, ino)
	}
	return inos
}

func readFile(t testing.TB, r *rig, sb mem.Addr, f int) {
	t.Helper()
	if _, err := r.v.Read(r.th, sb, fmt.Sprintf("/f%d", f), 0, 8); err != nil {
		t.Fatal(err)
	}
}

// pageIDs names page 0 of each listed inode.
func pageIDs(inos ...mem.Addr) []vfs.PageID {
	out := make([]vfs.PageID, len(inos))
	for i, ino := range inos {
		out[i] = vfs.PageID{Ino: ino}
	}
	return out
}

// TestEvictLRUHoldsOnlyEvictablePages: after mixed traffic on a
// memory-only mount and a disk-backed mount under a budget, the LRU
// holds exactly the disk-backed mount's cached pages, while the budget
// still counts the memory-only ones.
func TestEvictLRUHoldsOnlyEvictablePages(t *testing.T) {
	r, tmp, minix := evictRig(t, 1)
	sbs := []mem.Addr{tmp, minix[0]}
	const files = 12
	for _, sb := range sbs {
		writeFiles(t, r, sb, files, 1)
	}
	r.v.SetPageBudget(16)
	rng := rand.New(rand.NewSource(1))
	for op := 0; op < 400; op++ {
		sb := sbs[rng.Intn(len(sbs))]
		p := fmt.Sprintf("/f%d", rng.Intn(files))
		var err error
		switch rng.Intn(4) {
		case 0:
			_, err = r.v.Write(r.th, sb, p, uint64(rng.Intn(2*mem.PageSize)), []byte("mixed"))
		case 1:
			if err = r.v.Unlink(r.th, sb, p); err == nil {
				_, err = r.v.Create(r.th, sb, p)
			}
		default:
			_, err = r.v.Read(r.th, sb, p, 0, 2*mem.PageSize)
		}
		if err != nil {
			t.Fatalf("op %d on %s: %v", op, p, err)
		}
	}
	if r.v.Stats.Evictions.Load() == 0 {
		t.Fatal("budget never evicted")
	}
	pages, _ := r.v.DumpPages()
	want := map[vfs.PageID]bool{}
	memOnly := 0
	for _, pg := range pages {
		owner, _ := r.k.Sys.AS.ReadU64(r.v.InodeField(pg.Ino, "sb"))
		if mem.Addr(owner) == tmp {
			memOnly++
			continue
		}
		want[vfs.PageID{Ino: pg.Ino, Idx: pg.Idx}] = true
	}
	lru := r.v.LRUOrder()
	got := map[vfs.PageID]bool{}
	for _, id := range lru {
		got[id] = true
	}
	if len(got) != len(lru) {
		t.Fatalf("LRU lists a page twice: %v", lru)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LRU = %v, want the minixsim pages %v", got, want)
	}
	if memOnly == 0 || r.v.PageCount() != memOnly+len(lru) {
		t.Fatalf("page count %d, want %d memory-only + %d on the LRU", r.v.PageCount(), memOnly, len(lru))
	}
	r.noViolations(t)
}

// TestEvictBudgetFollowsLRUOrder pins the victim order among evictable
// pages: memory-only pages fill part of the budget but are never
// chosen, and touching a page moves it behind every untouched one.
func TestEvictBudgetFollowsLRUOrder(t *testing.T) {
	r, tmp, minix := evictRig(t, 1)
	sb := minix[0]
	writeFiles(t, r, tmp, 2, 1)
	m := coldFiles(t, r, sb, 5)
	r.v.SetPageBudget(5) // two tmpfs pages leave room for three minixsim pages
	for f := 0; f < 3; f++ {
		readFile(t, r, sb, f)
	}
	if got, want := r.v.LRUOrder(), pageIDs(m[0], m[1], m[2]); !reflect.DeepEqual(got, want) {
		t.Fatalf("LRU after warm-up = %v, want %v", got, want)
	}
	readFile(t, r, sb, 0) // touch f0: f1 is now least recently used
	readFile(t, r, sb, 3) // evicts f1
	readFile(t, r, tmp, 1)
	readFile(t, r, sb, 2) // touch f2: f0 is now least recently used
	readFile(t, r, sb, 4) // evicts f0
	if got, want := r.v.LRUOrder(), pageIDs(m[3], m[2], m[4]); !reflect.DeepEqual(got, want) {
		t.Fatalf("LRU = %v, want %v", got, want)
	}
	for f, cached := range []bool{false, false, true, true, true} {
		if _, ok := r.v.PageAddr(m[f], 0); ok != cached {
			t.Fatalf("f%d cached = %v, want %v", f, ok, cached)
		}
	}
	if n := r.v.Stats.Evictions.Load(); n != 2 {
		t.Fatalf("evictions = %d, want 2", n)
	}
	if n := r.v.PageCount(); n != 5 {
		t.Fatalf("page count = %d, want the budget of 5", n)
	}
	r.noViolations(t)
}

// TestEvictBudgetRotatesRefusedVictim: a victim whose mount is busy on
// another thread is refused, rotates to the MRU end, and the next
// evictable page goes instead. When every page refuses, one pass ends
// after each LRU page was tried once, and the cache stays over budget.
func TestEvictBudgetRotatesRefusedVictim(t *testing.T) {
	r, _, minix := evictRig(t, 2)
	a := coldFiles(t, r, minix[0], 1)
	b := coldFiles(t, r, minix[1], 2)
	readFile(t, r, minix[0], 0)
	readFile(t, r, minix[1], 0)
	readFile(t, r, minix[1], 1)
	if got, want := r.v.LRUOrder(), pageIDs(a[0], b[0], b[1]); !reflect.DeepEqual(got, want) {
		t.Fatalf("LRU = %v, want %v", got, want)
	}

	release := r.v.HoldMount(minix[0])
	r.v.SetPageBudget(2)
	r.v.ShrinkToBudget(r.th)
	release()
	if got, want := r.v.LRUOrder(), pageIDs(b[1], a[0]); !reflect.DeepEqual(got, want) {
		t.Fatalf("LRU after refused victim = %v, want %v (b0 evicted, a0 rotated)", got, want)
	}

	releaseA, releaseB := r.v.HoldMount(minix[0]), r.v.HoldMount(minix[1])
	r.v.SetPageBudget(1)
	r.v.ShrinkToBudget(r.th) // returns although nothing is evictable
	releaseB()
	releaseA()
	if n := r.v.PageCount(); n != 2 {
		t.Fatalf("page count = %d, want 2 (over budget, nothing evictable)", n)
	}
	// Every page was refused exactly once and rotated: a full turn.
	if got, want := r.v.LRUOrder(), pageIDs(b[1], a[0]); !reflect.DeepEqual(got, want) {
		t.Fatalf("LRU after refused pass = %v, want %v", got, want)
	}
	if n := r.v.Stats.Evictions.Load(); n != 1 {
		t.Fatalf("evictions = %d, want 1", n)
	}
	r.noViolations(t)
}

// BenchmarkInsertUnderBudget measures one page-cache insert that
// evicts, with a growing number of memory-only pages cached ahead of
// the budget's evictable room. Victim selection never looks at
// memory-only pages, so ns/op stays flat as their number grows.
func BenchmarkInsertUnderBudget(b *testing.B) {
	for _, memOnly := range []int{0, 96, 1024} {
		b.Run(fmt.Sprintf("memonly=%d", memOnly), func(b *testing.B) {
			const room, files = 16, 32
			r, tmp, minix := evictRig(b, 1)
			if memOnly > 0 {
				writeFiles(b, r, tmp, 1, memOnly)
			}
			sb := minix[0]
			coldFiles(b, r, sb, files)
			r.v.SetPageBudget(memOnly + room)
			for f := 0; f < room; f++ {
				readFile(b, r, sb, f)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Each read misses: the files cycle through twice the room.
				readFile(b, r, sb, (room+i)%files)
			}
		})
	}
}
