package core_test

import (
	"fmt"
	"sort"
	"testing"

	"lxfi/internal/annot"
	"lxfi/internal/annotdb"
	"lxfi/internal/blockdev"
	"lxfi/internal/caps"
	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/modules/minixsim"
	"lxfi/internal/modules/tmpfssim"
	"lxfi/internal/vfs"
)

// lcg is a tiny deterministic generator for synthetic crossing
// arguments: the differential must be reproducible run to run.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r)
}

// synthArgs builds argument vectors that exercise the interesting
// regimes of annotation expressions: zeros (null pointers, failed
// returns), small integers (sizes, flags), heap-looking addresses
// (capability pointers), and mixes of all three.
func synthArgs(r *lcg, n int) [][]uint64 {
	if n == 0 {
		n = 1 // exercise the no-args/unbound-identifier paths too
	}
	heap := func() uint64 { return 0xffff_8800_0000_0000 | (r.next() & 0x00ff_ffff_f000) }
	out := [][]uint64{make([]uint64, n)} // all zero
	small := make([]uint64, n)
	for i := range small {
		small[i] = r.next() % 64
	}
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = heap()
	}
	mixed := make([]uint64, n)
	for i := range mixed {
		switch r.next() % 3 {
		case 0:
			mixed[i] = 0
		case 1:
			mixed[i] = r.next() % 4096
		default:
			mixed[i] = heap()
		}
	}
	return append(out, small, addrs, mixed)
}

// rets are the synthetic return values for post phases: success, two
// errno shapes, and arbitrary values (NETDEV_TX_BUSY among them).
var rets = []uint64{0, ^uint64(0), ^uint64(21), 16, 1, 4096}

func diffTraces(t *testing.T, what, phase string, tree, compiled []core.ActionTrace) {
	t.Helper()
	if len(tree) != len(compiled) {
		t.Fatalf("%s %s: trace lengths diverge: tree %v vs compiled %v", what, phase, tree, compiled)
	}
	for i := range tree {
		if tree[i] != compiled[i] {
			t.Fatalf("%s %s: trace %d diverges:\n  tree:     %+v\n  compiled: %+v",
				what, phase, i, tree[i], compiled[i])
		}
	}
}

// TestCompiledProgramsMatchTreeInterpreter is the crossing
// differential: for every annotated kernel export, every registered
// function-pointer type, and every annotated module function in a
// fully-booted system (all ten Fig. 9 modules), the bind-time compiled
// action program and the expression-tree oracle must produce identical
// grants, revokes, checks, and violations on a set of synthetic
// crossings — and identical principal-expression values.
func TestCompiledProgramsMatchTreeInterpreter(t *testing.T) {
	sys, err := annotdb.BootAll(core.Enforce)
	if err != nil {
		t.Fatal(err)
	}
	mods := sys.Modules()
	froms := []*principalCase{{name: "trusted", p: nil}}
	for _, name := range []string{"econet", "rds", "e1000"} {
		if m, ok := mods[name]; ok {
			froms = append(froms, &principalCase{name: name + "[shared]", p: m.Set.Shared()})
		}
	}
	runDifferential(t, sys, froms)
}

// TestCompiledProgramsMatchTreeInterpreterVFS extends the differential
// to the VFS surface, whose annotations lean on capability iterators
// (name_caps, page_caps, alloc_caps) and per-superblock principals.
func TestCompiledProgramsMatchTreeInterpreterVFS(t *testing.T) {
	k := kernel.New()
	k.Sys.Mon.SetMode(core.Enforce)
	bl := blockdev.Init(k)
	bl.AddDisk(1, 1024)
	v := vfs.Init(k, bl)
	th := k.Sys.NewThread("boot")
	tfs, err := tmpfssim.Load(th, k, v)
	if err != nil {
		t.Fatal(err)
	}
	mfs, err := minixsim.Load(th, k, v)
	if err != nil {
		t.Fatal(err)
	}
	froms := []*principalCase{
		{name: "trusted", p: nil},
		{name: "tmpfssim[shared]", p: tfs.M.Set.Shared()},
		{name: "minixsim[shared]", p: mfs.M.Set.Shared()},
	}
	runDifferential(t, k.Sys, froms)
}

// tracer is one annotated declaration under the differential: a kernel
// export, a function-pointer type, or a module function.
type tracer interface {
	TraceCrossing(t *core.Thread, phase string, args []uint64, ret uint64, from *caps.Principal) (tree, compiled []core.ActionTrace)
	TracePrincipalValue(t *core.Thread, args []uint64) (kind annot.PrincipalKind, treeVal, progVal int64, treeErr, progErr error)
}

type traceCase struct {
	what    string
	decl    tracer
	nparams int
}

// annotatedDecls lists every declaration with a non-empty annotation
// set, in a stable order: the lcg stream is shared, so map-order
// iteration would hand each declaration different synthetic args every
// run and break the reproducibility the seed promises.
func annotatedDecls(sys *core.System) (cases []traceCase, modFuncs int) {
	kfuncs := sys.KernelFuncs()
	for _, name := range sortedKeys(kfuncs) {
		if fn := kfuncs[name]; !fn.Annot.Empty() {
			cases = append(cases, traceCase{"kernel " + name, fn, len(fn.Params)})
		}
	}
	ftypes := sys.FPtrTypes()
	for _, name := range sortedKeys(ftypes) {
		ft := ftypes[name]
		cases = append(cases, traceCase{"fptr " + name, ft, len(ft.Params)})
	}
	mods := sys.Modules()
	for _, mname := range sortedKeys(mods) {
		funcs := mods[mname].Funcs
		for _, name := range sortedKeys(funcs) {
			if fn := funcs[name]; !fn.Annot.Empty() {
				cases = append(cases, traceCase{"module " + mname + "." + name, fn, len(fn.Params)})
				modFuncs++
			}
		}
	}
	return cases, modFuncs
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func runDifferential(t *testing.T, sys *core.System, froms []*principalCase) {
	t.Helper()
	th := sys.NewThread("diff")
	r := lcg(0x1ee7)
	cases, modFuncs := annotatedDecls(sys)
	for _, c := range cases {
		for _, args := range synthArgs(&r, c.nparams) {
			for _, fc := range froms {
				for _, phase := range []string{"pre", "post"} {
					for _, ret := range rets {
						tree, compiled := c.decl.TraceCrossing(th, phase, args, ret, fc.p)
						diffTraces(t, fmt.Sprintf("%s (from %s, args %x, ret %d)", c.what, fc.name, args, ret),
							phase, tree, compiled)
					}
				}
			}
			_, tv, pv, terr, perr := c.decl.TracePrincipalValue(th, args)
			if (terr == nil) != (perr == nil) || (terr == nil && tv != pv) {
				t.Fatalf("%s principal diverges on args %x: tree (%d,%v) vs compiled (%d,%v)",
					c.what, args, tv, terr, pv, perr)
			}
		}
	}
	if len(cases)-modFuncs < 15 {
		t.Fatalf("differential covered only %d annotated exports — boot surface shrank?", len(cases)-modFuncs)
	}
	if modFuncs == 0 {
		t.Fatal("differential covered no annotated module function")
	}
	t.Logf("differential: %d declarations, %d of them module functions", len(cases), modFuncs)
}

type principalCase struct {
	name string
	p    *caps.Principal
}

// TestGrantingActionsMatchOnLiveState runs the differential again after
// seeding the module with real capabilities, so copy/transfer ownership
// checks exercise the "owned" branch too (an all-deny state would let a
// broken ownership check hide behind matching violations).
func TestGrantingActionsMatchOnLiveState(t *testing.T) {
	sys, err := annotdb.BootAll(core.Enforce)
	if err != nil {
		t.Fatal(err)
	}
	th := sys.NewThread("diff2")
	m, ok := sys.Modules()["econet"]
	if !ok {
		t.Fatal("econet missing from booted system")
	}
	shared := m.Set.Shared()

	// kfree's pre(transfer(alloc_caps(ptr))) over a really-allocated,
	// really-owned object: both executors must agree on the transfer.
	obj, err := sys.Slab.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	sys.Caps.Grant(shared, caps.WriteCap(obj, 64))
	kfree, _ := sys.FuncByName("kfree")
	tree, compiled := kfree.TraceCrossing(th, "pre", []uint64{uint64(obj)}, 0, shared)
	diffTraces(t, "kernel kfree (owned)", "pre", tree, compiled)
	if len(tree) == 0 || tree[0].Op != "transfer" {
		t.Fatalf("expected an owned transfer trace, got %v", tree)
	}

	// copy_from_user's pre(check(write, to, n)) with an owned window.
	cfu, _ := sys.FuncByName("copy_from_user")
	tree, compiled = cfu.TraceCrossing(th, "pre", []uint64{uint64(obj), 0x1000, 64}, 0, shared)
	diffTraces(t, "kernel copy_from_user (owned)", "pre", tree, compiled)
	if len(tree) == 0 || tree[0].Op != "check" {
		t.Fatalf("expected an owned check trace, got %v", tree)
	}
}
