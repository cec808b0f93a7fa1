package vfs_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"lxfi/internal/core"
	"lxfi/internal/mem"
	"lxfi/internal/modules/minixsim"
	"lxfi/internal/modules/tmpfssim"
	"lxfi/internal/vfs"
)

// TestModuleNameCompares drives each filesystem module's name handling
// at the edges: names of length 1 and NameMax, and names that are
// prefixes of one another, through the module's own lookup (the dentry
// cache is emptied first), readdir, rename and exchange — and, on
// minixsim, writeback and a remount, which rebuild the names from disk.
func TestModuleNameCompares(t *testing.T) {
	long := strings.Repeat("n", vfs.NameMax)
	names := []string{"a", "ab", long[:vfs.NameMax-1], long}
	for _, fs := range []string{"tmpfssim", "minixsim"} {
		t.Run(fs, func(t *testing.T) {
			r := newRig(t, core.Enforce)
			var sb mem.Addr
			var err error
			if fs == "tmpfssim" {
				if _, err = tmpfssim.Load(r.th, r.k, r.v); err == nil {
					sb, err = r.v.Mount(r.th, tmpfssim.FsID, 0)
				}
			} else {
				r.bl.AddDisk(1, minixsim.DiskSectors)
				if _, err = minixsim.Load(r.th, r.k, r.v); err == nil {
					sb, err = r.v.Mount(r.th, minixsim.FsID, 1)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			inos := map[string]mem.Addr{}
			for _, n := range names {
				if inos[n], err = r.v.Create(r.th, sb, "/"+n); err != nil {
					t.Fatalf("create %q: %v", n, err)
				}
			}
			if _, err := r.v.Create(r.th, sb, "/"+long+"x"); err == nil {
				t.Fatal("a name longer than NameMax was created")
			}
			lookupAll := func(when string) {
				t.Helper()
				r.v.ForgetDentries(sb)
				for _, n := range names {
					if got, err := r.v.Lookup(r.th, sb, "/"+n); err != nil || got != inos[n] {
						t.Fatalf("%s: lookup %q = %#x, %v; want %#x", when, n, uint64(got), err, uint64(inos[n]))
					}
				}
				for _, absent := range []string{"b", "abc", long[:vfs.NameMax-2], long[:vfs.NameMax-1] + "m"} {
					if _, err := r.v.Lookup(r.th, sb, "/"+absent); err == nil {
						t.Fatalf("%s: lookup %q found an entry", when, absent)
					}
				}
				ents, err := r.v.Readdir(r.th, sb, "/")
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				for _, e := range ents {
					got = append(got, e.Name)
				}
				sort.Strings(got)
				if want := fmt.Sprint(names); fmt.Sprint(got) != want {
					t.Fatalf("%s: readdir = %q, want %q", when, got, names)
				}
			}
			lookupAll("after create")

			// Exchange the shortest and longest names, then rename each
			// back through a free name: every entry ends under its own
			// name again, having been rewritten at both lengths.
			if err := r.v.RenameFlags(r.th, sb, "/a", sb, "/"+long, vfs.RenameExchange); err != nil {
				t.Fatal(err)
			}
			inos["a"], inos[long] = inos[long], inos["a"]
			lookupAll("after exchange")
			for _, mv := range [][2]string{{"a", "tmp"}, {long, "a"}, {"tmp", long}} {
				if err := r.v.Rename(r.th, sb, "/"+mv[0], sb, "/"+mv[1]); err != nil {
					t.Fatalf("rename %q -> %q: %v", mv[0], mv[1], err)
				}
			}
			inos["a"], inos[long] = inos[long], inos["a"]
			lookupAll("after renames")

			if fs == "minixsim" {
				// Growing each file makes writeback rewrite its record,
				// name included; the remount then rebuilds the namespace
				// from those records.
				for _, n := range names {
					if _, err := r.v.Write(r.th, sb, "/"+n, 0, []byte(n)); err != nil {
						t.Fatal(err)
					}
				}
				if err := r.v.Sync(r.th, sb); err != nil {
					t.Fatal(err)
				}
				if err := r.v.Unmount(r.th, sb); err != nil {
					t.Fatal(err)
				}
				if sb, err = r.v.Mount(r.th, minixsim.FsID, 1); err != nil {
					t.Fatal(err)
				}
				for _, n := range names {
					got, err := r.v.Read(r.th, sb, "/"+n, 0, vfs.NameMax)
					if err != nil || string(got) != n {
						t.Fatalf("after remount: %q holds %q, %v", n, got, err)
					}
				}
			}
			r.noViolations(t)
		})
	}
}
