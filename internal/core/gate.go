// Call gates: bind-time resolved crossing entry points.
//
// LXFI resolves a module's imports when the module is loaded and
// routes every crossing through a wrapper compiled for that function
// (§4.2). The simulation's analogue is the Gate: the loader resolves
// each import into a *Gate holding the pre-resolved declaration (whose
// annotation program was compiled at registration), and module code
// calls through the gate's one variadic entry point. A gate call
// therefore performs no name lookup and no registry lock, and it
// allocates no argument slice: the arguments are copied onto the
// thread's crossing stack, so the caller's variadic slice does not
// escape.
//
// Gates do not weaken isolation: a gate enters the same body as the
// string-keyed paths (CallKernel / CallModule / IndirectCall), so the
// CALL capability check, the annotation program, and the shadow stack
// run on every mediated crossing either way. A gate only removes the
// per-call resolution cost the paper moves to bind time. The named
// paths stage their arguments the same way and remain for exploit
// payloads calling symbols they never imported, the uncached indirect
// call the guard-cost rig measures, and tests.
package core

import (
	"fmt"
	"sync/atomic"

	"lxfi/internal/mem"
)

// Gate is one bound module→kernel crossing: a pre-resolved kernel
// export. Obtained from Module.Gate at load time. owner is the module
// generation the gate was bound for: once that generation is retired
// by a reload, calling through the gate is a violation under
// enforcement (a stale gate is a dangling pointer into the old
// generation's import table).
type Gate struct {
	fn    *FuncDecl
	owner *Module
}

// guard refuses crossings through a gate whose owning module
// generation has been retired by a reload. During the quiesce drain
// (owner still quiescing) the gate keeps working — in-flight crossings
// must be able to finish. On a stock kernel the stale gate silently
// keeps working, which is exactly the use-after-reload window the
// StaleGateUseAfterReload exploit drives through.
func (g *Gate) guard(t *Thread) error {
	if g.owner == nil || g.owner.lcState.Load() != lcRetired {
		return nil
	}
	if !t.mon.Enforcing() {
		return nil
	}
	return t.violationAt(g.owner, g.owner.Set.Shared(), "stalegate", g.fn.Addr,
		fmt.Sprintf("crossing through stale gate %s of reloaded module %s",
			g.fn.Name, g.owner.Name))
}

// Gate returns the bound gate for one of the module's imports. Gates
// exist exactly for the loader-granted import list; asking for
// anything else is a module programming error and panics loudly at
// bind time (the same stage the real loader would fail relocation).
func (m *Module) Gate(name string) *Gate {
	g, ok := m.gates[name]
	if !ok {
		panic(fmt.Sprintf("core: module %s has no bound gate for %q (not in its import list)", m.Name, name))
	}
	return g
}

// pushArgs copies a crossing's arguments onto the thread's crossing
// stack and returns the staged frame and its base; popArgs truncates
// back. Frames nest with crossings. The backing array is retained
// across calls, so steady-state crossings push without allocating, and
// because args is only copied (never retained), a caller's variadic
// slice does not escape and stays on its stack. The frame is capped at
// its length, so a callee appending to its arguments reallocates
// instead of writing into the stack space nested crossings push to.
func (t *Thread) pushArgs(args []uint64) (frame []uint64, base int) {
	base = len(t.argStack)
	t.argStack = append(t.argStack, args...)
	top := len(t.argStack)
	return t.argStack[base:top:top], base
}

func (t *Thread) popArgs(base int) { t.argStack = t.argStack[:base] }

// Call invokes the gate's kernel export with args.
func (g *Gate) Call(t *Thread, args ...uint64) (uint64, error) {
	if err := g.guard(t); err != nil {
		return 0, err
	}
	frame, base := t.pushArgs(args)
	ret, err := t.callKernelDecl(g.fn, frame)
	t.popArgs(base)
	return ret, err
}

// IndGate is a bound indirect-call interface: a pre-resolved
// function-pointer type. Kernel substrates bind one per interface slot
// at init (System.BindIndirect) so the per-crossing path never repeats
// the string-keyed type lookup.
//
// Each gate also carries a small direct-mapped (slot → target) cache
// validated against the capability epoch and the enforcement mode
// (calls.go, indirectCall): once a slot's full writer-set check
// has passed, repeat crossings through the same unchanged slot skip
// the writer-set probe, the grantee sweep, and the System.mu registry
// lookups. Entries are immutable and swapped atomically, so gates are
// safe to share between threads.
type IndGate struct {
	ft    *FPtrType
	cache indCache
}

// indCache is a gate's direct-mapped (slot → target) cache.
type indCache [indCacheSlots]atomic.Pointer[indCacheEnt]

// indCacheSlots is the per-gate cache size; slots of one interface
// hash by address, so a gate serving a handful of live objects keeps
// them all resident.
const indCacheSlots = 8

// indCacheEnt is one validated (slot → resolved target) binding. All
// fields are written before the entry is published and never mutated.
type indCacheEnt struct {
	slot      mem.Addr
	target    uint64
	epoch     uint64
	enforcing bool
	fn        *FuncDecl
	m         *Module // pre-resolved module (nil for kernel and user targets)
}

// BindIndirect resolves a registered function-pointer type into an
// indirect-call gate. It panics on an unknown type, exactly as the
// per-call IndirectCall path does — binding just moves the failure to
// init time.
func (s *System) BindIndirect(typeName string) *IndGate {
	ft, ok := s.FPtrType(typeName)
	if !ok {
		panic("core: indirect call through unregistered fptr type " + typeName)
	}
	return &IndGate{ft: ft}
}

// Call performs the kernel-side checked indirect call through the
// pointer stored at slot (the lxfi_check_indcall path of §4.1).
func (g *IndGate) Call(t *Thread, slot mem.Addr, args ...uint64) (uint64, error) {
	frame, base := t.pushArgs(args)
	ret, err := t.indirectCall(g.ft, &g.cache, slot, frame)
	t.popArgs(base)
	return ret, err
}

// CallAddr is the module-side indirect call through the gate's
// interface type: module code invoking a function pointer value it
// holds (e.g. a kernel-provided callback). It checks the caller's CALL
// capability for target and the target's annotation hash against the
// gate's type before the jump.
func (g *IndGate) CallAddr(t *Thread, target mem.Addr, args ...uint64) (uint64, error) {
	frame, base := t.pushArgs(args)
	ret, err := t.callAddrFT(target, g.ft, frame)
	t.popArgs(base)
	return ret, err
}
