// Differential tracing of compiled action programs against their
// annotation trees.
//
// Crossings run only the bind-time compiled action programs
// (program.go). The expression-tree interpreter kept here is their
// test oracle: it evaluates the parsed annot.Set directly, binding
// argument names through its own by-name environment. The tracers
// dry-run both on the same synthetic crossing — resolving conditions,
// capabilities, and ownership exactly as the real executor does, but
// recording grants/revokes/violations instead of applying them — so a
// test can assert that every registered program agrees with its tree
// (differential_test.go runs that differential over the full Fig. 9
// module set: kernel exports, fptr types, and module functions).
package core

import (
	"fmt"

	"lxfi/internal/annot"
	"lxfi/internal/caps"
	"lxfi/internal/mem"
)

// ActionTrace is one recorded annotation effect: Op is the action
// operator ("check", "copy", "transfer", "revoke") for applied
// actions, or "violation" with Err carrying the violation detail the
// real executor would have raised.
type ActionTrace struct {
	Op  string
	Cap string
	Err string
}

// TraceCrossing dry-runs one phase ("pre" or "post") of f's annotation
// contract for a synthetic crossing, under the tree oracle and the
// compiled program. from is the principal whose ownership the phase
// checks.
func (f *FuncDecl) TraceCrossing(t *Thread, phase string, args []uint64, ret uint64, from *caps.Principal) (tree, compiled []ActionTrace) {
	return t.traceBoth(f.Name, f.Params, f.Annot, f.prog, phase, args, ret, from)
}

// TraceCrossing is the FPtrType analogue of FuncDecl.TraceCrossing.
func (ft *FPtrType) TraceCrossing(t *Thread, phase string, args []uint64, ret uint64, from *caps.Principal) (tree, compiled []ActionTrace) {
	return t.traceBoth(ft.Name, ft.Params, ft.Annot, ft.prog, phase, args, ret, from)
}

// TracePrincipalValue evaluates f's principal annotation under the tree
// oracle and the compiled program without materializing an instance
// principal. kind is the annotation's principal kind; for PrincipalExpr
// the values and error texts are the comparison surface.
func (f *FuncDecl) TracePrincipalValue(t *Thread, args []uint64) (kind annot.PrincipalKind, treeVal, progVal int64, treeErr, progErr error) {
	return t.tracePrincipal(f.Params, f.Annot, f.prog, args)
}

// TracePrincipalValue is the FPtrType analogue.
func (ft *FPtrType) TracePrincipalValue(t *Thread, args []uint64) (kind annot.PrincipalKind, treeVal, progVal int64, treeErr, progErr error) {
	return t.tracePrincipal(ft.Params, ft.Annot, ft.prog, args)
}

// treeEnv is the oracle's by-name binding of a call's arguments (and,
// for post actions, its return value) to annotation identifiers.
type treeEnv struct {
	sys    *System
	params []Param
	args   []uint64
	ret    uint64
	hasRet bool
}

// Arg implements annot.Env.
func (e *treeEnv) Arg(name string) (int64, bool) {
	if name == "return" {
		if !e.hasRet {
			return 0, false
		}
		return int64(e.ret), true
	}
	for i, p := range e.params {
		if p.Name == name && i < len(e.args) {
			return int64(e.args[i]), true
		}
	}
	return 0, false
}

// Const implements annot.Env.
func (e *treeEnv) Const(name string) (int64, bool) {
	return e.sys.Const(name)
}

func (t *Thread) tracePrincipal(params []Param, set *annot.Set, prog *annotProg, args []uint64) (kind annot.PrincipalKind, treeVal, progVal int64, treeErr, progErr error) {
	if set == nil {
		return annot.PrincipalDefault, 0, 0, nil, nil
	}
	kind = set.Principal.Kind
	if kind != annot.PrincipalExpr {
		return kind, 0, 0, nil, nil
	}
	treeVal, treeErr = set.Principal.Expr.Eval(&treeEnv{sys: t.Sys, params: params, args: args})
	env := t.getEnv(args)
	defer t.putEnv(env)
	progVal, progErr = prog.prinProg.Eval(env)
	return kind, treeVal, progVal, treeErr, progErr
}

func (t *Thread) traceBoth(name string, params []Param, set *annot.Set, prog *annotProg, phase string, args []uint64, ret uint64, from *caps.Principal) (tree, compiled []ActionTrace) {
	if set == nil {
		return nil, nil
	}
	tenv := &treeEnv{sys: t.Sys, params: params, args: args}
	env := t.getEnv(args)
	defer t.putEnv(env)
	actions, steps := set.Pre, prog.pre
	if phase == "post" {
		actions, steps = set.Post, prog.post
		tenv.ret, tenv.hasRet = ret, true
		env.ret, env.hasRet = ret, true
	}
	tree = t.traceTreeActions(phase, name, actions, tenv, from)
	compiled = t.traceProgActions(phase, name, steps, env, from)
	return tree, compiled
}

// traceTreeActions interprets an action list over the annotation trees
// with recording effects. The violation formats are kept textually
// identical to runProgram so traces compare exactly.
func (t *Thread) traceTreeActions(phase, fnName string, actions []*annot.Action, env *treeEnv, from *caps.Principal) []ActionTrace {
	var out []ActionTrace
	for _, a := range actions {
		var stop bool
		out, stop = t.traceTreeAction(phase, fnName, a, env, from, out)
		if stop {
			return out
		}
	}
	return out
}

func (t *Thread) traceTreeAction(phase, fnName string, a *annot.Action, env *treeEnv, from *caps.Principal, out []ActionTrace) ([]ActionTrace, bool) {
	if a.Op == annot.If {
		v, err := a.Cond.Eval(env)
		if err != nil {
			return append(out, ActionTrace{Op: "violation",
				Err: fmt.Sprintf("%s %s: bad condition %q: %v", phase, fnName, a.Cond, err)}), true
		}
		if v == 0 {
			return out, false
		}
		return t.traceTreeAction(phase, fnName, a.Then, env, from, out)
	}
	capsList, err := t.resolveCaps(a.Caps, env)
	if err != nil {
		return append(out, ActionTrace{Op: "violation",
			Err: fmt.Sprintf("%s %s: %v", phase, fnName, err)}), true
	}
	for _, c := range capsList {
		var stop bool
		out, stop = t.traceCapOp(phase, fnName, a.Op, c, from, out)
		if stop {
			return out, true
		}
	}
	return out, false
}

// resolveCaps materializes the capability list of one action from its
// tree: expressions evaluate by name, iterators and sizeof(*ptr)
// resolve at call time.
func (t *Thread) resolveCaps(cl *annot.CapList, env *treeEnv) ([]caps.Cap, error) {
	if cl.IsIterator() {
		iter, ok := t.Sys.iterator(cl.Iter)
		if !ok {
			return nil, fmt.Errorf("core: unknown capability iterator %q", cl.Iter)
		}
		iargs := make([]int64, 0, len(cl.IterArgs))
		for _, e := range cl.IterArgs {
			v, err := e.Eval(env)
			if err != nil {
				return nil, err
			}
			iargs = append(iargs, v)
		}
		var out []caps.Cap
		err := iter(t, iargs, func(c caps.Cap) error {
			out = append(out, c)
			return nil
		})
		return out, err
	}

	ptr, err := cl.Ptr.Eval(env)
	if err != nil {
		return nil, err
	}
	addr := mem.Addr(uint64(ptr))
	switch cl.Kind {
	case annot.CapCall:
		return []caps.Cap{caps.CallCap(addr)}, nil
	case annot.CapRef:
		return []caps.Cap{caps.RefCap(cl.RefType, addr)}, nil
	case annot.CapWrite:
		var size uint64
		if cl.Size != nil {
			v, err := cl.Size.Eval(env)
			if err != nil {
				return nil, err
			}
			if v < 0 {
				v = 0
			}
			size = uint64(v)
		} else {
			// sizeof(*ptr): look up the declared type of the parameter
			// the pointer expression names.
			ok := false
			if cl.Ptr.Ident != "" {
				for _, p := range env.params {
					if p.Name == cl.Ptr.Ident {
						size, ok = t.Sys.sizeofType(p.Type)
						break
					}
				}
			}
			if !ok {
				return nil, fmt.Errorf("core: cannot resolve sizeof for %q", cl.Ptr)
			}
		}
		return []caps.Cap{caps.WriteCap(addr, size)}, nil
	}
	return nil, fmt.Errorf("core: bad caplist")
}

func (t *Thread) traceProgActions(phase, fnName string, steps []actionStep, env *argEnv, from *caps.Principal) []ActionTrace {
	var out []ActionTrace
steps:
	for i := range steps {
		st := &steps[i]
		for j := range st.conds {
			v, err := st.conds[j].prog.Eval(env)
			if err != nil {
				return append(out, ActionTrace{Op: "violation",
					Err: fmt.Sprintf("%s %s: bad condition %q: %v", phase, fnName, st.conds[j].src, err)})
			}
			if v == 0 {
				continue steps
			}
		}
		if st.isIterator() {
			buf, err := t.resolveIterCaps(st, env, t.getCapBuf())
			if err != nil {
				t.putCapBuf(buf)
				return append(out, ActionTrace{Op: "violation",
					Err: fmt.Sprintf("%s %s: %v", phase, fnName, err)})
			}
			for _, c := range buf {
				var stop bool
				out, stop = t.traceCapOp(phase, fnName, st.op, c, from, out)
				if stop {
					t.putCapBuf(buf)
					return out
				}
			}
			t.putCapBuf(buf)
			continue
		}
		c, err := t.resolveStepCap(st, env)
		if err != nil {
			return append(out, ActionTrace{Op: "violation",
				Err: fmt.Sprintf("%s %s: %v", phase, fnName, err)})
		}
		var stop bool
		out, stop = t.traceCapOp(phase, fnName, st.op, c, from, out)
		if stop {
			return out
		}
	}
	return out
}

// traceCapOp records the effect of one operator on one capability.
// Ownership consults the authoritative tables directly (no per-thread
// cache) so both executors read the same verdict; nothing is granted
// or revoked.
func (t *Thread) traceCapOp(phase, fnName string, op annot.Op, c caps.Cap, from *caps.Principal, out []ActionTrace) ([]ActionTrace, bool) {
	if op == annot.Revoke {
		return append(out, ActionTrace{Op: "revoke", Cap: c.String()}), false
	}
	owned := from == nil || from.IsTrusted() || t.Sys.Caps.Check(from, c)
	if !owned {
		return append(out, ActionTrace{Op: "violation", Cap: c.String(),
			Err: fmt.Sprintf("%s %s: %s action: %s does not own %s", phase, fnName, op, from, c)}), true
	}
	return append(out, ActionTrace{Op: op.String(), Cap: c.String()}), false
}
