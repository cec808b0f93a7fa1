// Bind-time compilation of annotation sets into action programs.
//
// The paper's loader compiles annotations into checking wrappers once,
// at module load (§4.2); calls then run the compiled checks. This file
// is that compile step for the simulation: when a function or
// function-pointer type is registered, its annot.Set is lowered into an
// annotProg — a flat slice of fixed-size actionSteps whose expressions
// are opcode programs (annot.ExprProg) with parameter names resolved to
// argument indices, whose iterators and REF cache tags are
// pre-resolved, and whose if-chains are flattened into per-step
// condition lists. Programs are the only annotation executor on the
// crossing paths (calls.go): parameter names are bound here, at
// registration, and a set that cannot be bound or compiled is a
// registration error. The expression-tree interpreter survives only
// as the differential test oracle (diff_test.go).
package core

import (
	"errors"

	"lxfi/internal/annot"
	"lxfi/internal/caps"
)

// compiledCond is one flattened if-condition. src is kept only for the
// cold violation path's error message.
type compiledCond struct {
	prog annot.ExprProg
	src  *annot.Expr
}

// actionStep is one compiled action: the opcode-program form of
// annot.Action with every bind-time-resolvable reference resolved.
type actionStep struct {
	op annot.Op // Copy, Transfer, Check, or Revoke (If is flattened into conds)

	// conds must all evaluate nonzero for the step to run (a flattened
	// `if (a) if (b) action` chain, evaluated in order with the tree
	// interpreter's short-circuit semantics).
	conds []compiledCond

	// src is the source caplist, used only in cold-path error text.
	src *annot.CapList

	// Inline caplist form:
	kind    annot.CapKind
	refType string
	refTag  uint64 // packed check-cache tag for REF verdicts (0 = uncacheable)
	ptr     annot.ExprProg
	size    annot.ExprProg
	hasSize bool
	// sizeof(*ptr) resolution when the size expression is omitted:
	// sizeofVal is the layout size resolved at compile time; when 0,
	// sizeofType (the named parameter's declared C type) is resolved
	// against the layout registry at run time, matching the tree
	// interpreter for layouts defined after registration.
	sizeofType string
	sizeofVal  uint64

	// Iterator form (iterName != "" selects it): iter is the function
	// resolved at compile time, nil when the iterator was registered
	// later (run time then resolves by name, as the tree does).
	iterName string
	iter     IterFunc
	iterArgs []annot.ExprProg
}

// isIterator reports whether the step is an iterator-func caplist.
func (st *actionStep) isIterator() bool { return st.iterName != "" }

// annotProg is the compiled form of one annot.Set for a specific
// parameter list.
type annotProg struct {
	pre, post []actionStep
	prinKind  annot.PrincipalKind
	prinProg  annot.ExprProg
	prinSrc   *annot.Expr
}

// bindEnv is the compile environment for bind-time lowering:
// parameter names resolve to argument indices, and registered
// constants fold to literals once the constant table has frozen at
// the first module load.
type bindEnv struct {
	params []Param
	sys    *System
}

// ParamIndex implements annot.CompileEnv.
func (e bindEnv) ParamIndex(name string) (int, bool) {
	for i, prm := range e.params {
		if prm.Name == name {
			return i, true
		}
	}
	return 0, false
}

// ConstValue implements annot.ConstEnv. It resolves nothing before the
// freeze: a pre-freeze RegisterConst may still rebind the name, so
// programs compiled that early (kernel exports registered at boot)
// keep runtime constant resolution.
func (e bindEnv) ConstValue(name string) (int64, bool) {
	if !e.sys.constsFrozen.Load() {
		return 0, false
	}
	return e.sys.Const(name)
}

// compileAnnot lowers set into an action program against params. An
// error is a registration error for the caller to report.
func (s *System) compileAnnot(params []Param, set *annot.Set) (*annotProg, error) {
	cenv := bindEnv{params: params, sys: s}
	prog := &annotProg{prinKind: set.Principal.Kind}
	if set.Principal.Kind == annot.PrincipalExpr {
		p, err := annot.Compile(set.Principal.Expr, cenv)
		if err != nil {
			return nil, err
		}
		prog.prinProg, prog.prinSrc = p, set.Principal.Expr
	}
	var err error
	if prog.pre, err = s.compileActions(set.Pre, cenv, params); err != nil {
		return nil, err
	}
	if prog.post, err = s.compileActions(set.Post, cenv, params); err != nil {
		return nil, err
	}
	return prog, nil
}

func (s *System) compileActions(actions []*annot.Action, cenv annot.CompileEnv, params []Param) ([]actionStep, error) {
	if len(actions) == 0 {
		return nil, nil
	}
	steps := make([]actionStep, 0, len(actions))
	for _, a := range actions {
		st, err := s.compileStep(a, cenv, params)
		if err != nil {
			return nil, err
		}
		steps = append(steps, st)
	}
	return steps, nil
}

func (s *System) compileStep(a *annot.Action, cenv annot.CompileEnv, params []Param) (actionStep, error) {
	var st actionStep
	for a != nil && a.Op == annot.If {
		prog, err := annot.Compile(a.Cond, cenv)
		if err != nil {
			return st, err
		}
		st.conds = append(st.conds, compiledCond{prog: prog, src: a.Cond})
		a = a.Then
	}
	if a == nil || a.Caps == nil {
		return st, errors.New("uncompilable action")
	}
	st.op = a.Op
	cl := a.Caps
	st.src = cl
	if cl.IsIterator() {
		st.iterName = cl.Iter
		st.iter, _ = s.iterator(cl.Iter)
		st.iterArgs = make([]annot.ExprProg, 0, len(cl.IterArgs))
		for _, e := range cl.IterArgs {
			p, err := annot.Compile(e, cenv)
			if err != nil {
				return st, err
			}
			st.iterArgs = append(st.iterArgs, p)
		}
		return st, nil
	}
	st.kind = cl.Kind
	ptr, err := annot.Compile(cl.Ptr, cenv)
	if err != nil {
		return st, err
	}
	st.ptr = ptr
	switch cl.Kind {
	case annot.CapRef:
		st.refType = cl.RefType
		st.refTag = s.refTypeTag(cl.RefType)
	case annot.CapWrite:
		if cl.Size != nil {
			sz, err := annot.Compile(cl.Size, cenv)
			if err != nil {
				return st, err
			}
			st.size, st.hasSize = sz, true
		} else if cl.Ptr.Ident != "" {
			for _, p := range params {
				if p.Name == cl.Ptr.Ident {
					st.sizeofType = p.Type
					break
				}
			}
			if st.sizeofType != "" {
				if v, ok := s.sizeofType(st.sizeofType); ok {
					st.sizeofVal = v
				}
			}
		}
	}
	return st, nil
}

// refTypeTag interns a REF type name and returns its packed check-cache
// tag: a process-unique nonzero ID below the kind shift, or'd with the
// Ref kind bits. Tag equality therefore implies RefType string
// equality, which is what makes cached REF verdicts sound. Bind-time
// only; the hot path carries the tag in its actionStep.
func (s *System) refTypeTag(typ string) uint64 {
	s.refMu.Lock()
	defer s.refMu.Unlock()
	if s.refIDs == nil {
		s.refIDs = make(map[string]uint64)
	}
	id, ok := s.refIDs[typ]
	if !ok {
		id = uint64(len(s.refIDs)) + 1
		s.refIDs[typ] = id
	}
	return id | uint64(caps.Ref)<<sizeKindShift
}
