package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"mlec/internal/lint/cfg"
)

// This file is the allocation/escape half of the hot-path analysis
// family (hotness propagation lives in hot.go): a conservative
// intraprocedural engine that classifies every allocation-prone
// expression of a function body. The hot* analyzers filter the
// resulting sites; the fact store folds them into per-function
// "allocates" summaries so a caller three packages away can know that
// a helper it pulled onto a hot path heap-allocates.
//
// The engine is deliberately a classifier, not a prover: Go's real
// escape analysis is interprocedural and version-dependent, so the
// classes are calibrated to be conservative in the direction that
// matters for enforcement — a site reported as HeapAlloc may in some
// builds be stack-allocated, but a site reported AllocFree never
// allocates on the steady-state path.

// AllocClass is the engine's verdict for one site.
type AllocClass int

const (
	// AllocFree marks a site proven not to allocate on the steady
	// state: a sanitized append (capacity planned by an explicit-cap
	// make or a [:0] reuse reslice), a pointer-shaped interface
	// conversion, a capture-free function literal. Also used for the
	// zero-allocation perf sites (dynamic dispatch, defer) that other
	// analyzers report on different grounds.
	AllocFree AllocClass = iota
	// StackPlausible marks an allocation whose result is bound to a
	// local that the engine cannot see escaping — returned, captured,
	// passed as an argument, or stored through a pointer — so the
	// compiler's escape analysis plausibly keeps it on the stack.
	StackPlausible
	// ColdAlloc marks a heap allocation on an early-exit path: inside
	// an if/case body whose last statement is a return or a panic.
	// Error formatting and precondition panics live here; they run
	// once per call at most and never per iteration.
	ColdAlloc
	// HeapAlloc marks a steady-state heap allocation.
	HeapAlloc
)

func (c AllocClass) String() string {
	switch c {
	case AllocFree:
		return "alloc-free"
	case StackPlausible:
		return "stack-plausible"
	case ColdAlloc:
		return "cold-path"
	case HeapAlloc:
		return "heap"
	}
	return "?"
}

// allocKind names the source pattern of a site; each hot* analyzer
// owns a disjoint subset.
type allocKind int

const (
	akMake        allocKind = iota // make(slice/map/chan)
	akNew                          // new(T)
	akLit                          // slice/map composite literal, &T{...}
	akAppend                       // append without a capacity proof (hotprealloc)
	akIfaceBox                     // concrete non-pointer value boxed into an interface (hotiface)
	akDispatch                     // interface method call / indirect call (hotiface; no allocation)
	akClosure                      // function literal capturing locals
	akMethodValue                  // bound method value (closure allocation)
	akStringConv                   // string <-> []byte/[]rune conversion
	akVariadic                     // implicit slice for a variadic call
	akFmt                          // call into fmt/log (formats and boxes)
	akDefer                        // defer statement (hotdefer; allocation only in loops)
)

// AllocSite is one classified expression or statement.
type AllocSite struct {
	Node   ast.Node
	kind   allocKind
	Class  AllocClass
	What   string // short human description for diagnostics
	InLoop bool   // the site's CFG block lies on a cycle
}

// escapeSites runs the engine over one function body and returns its
// sites in source order. The body's function literals are not
// descended into — a closure body runs on its invoker's schedule and
// is analyzed as its own scope; only the closure allocation itself is
// a site of this body.
func escapeSites(info *types.Info, fset *token.FileSet, body *ast.BlockStmt) []AllocSite {
	if body == nil {
		return nil
	}
	w := &escapeWalker{info: info, fset: fset}
	w.prepare(body)
	w.walk(body)
	return w.sites
}

type escapeWalker struct {
	info *types.Info
	fset *token.FileSet

	// topLoop maps each CFG block node to whether its block lies on a
	// cycle; the walk derives every nested node's loop state from its
	// nearest enclosing block node.
	topLoop map[ast.Node]bool
	// coldRoots marks subtree roots (if/case bodies ending in return
	// or panic) whose contents are cold.
	coldRoots map[ast.Node]bool
	// escaped holds local objects the engine saw escaping.
	escaped map[types.Object]bool
	// capProven holds local slice objects defined by an explicit-cap
	// make or a [:0] reuse reslice, with the definition position.
	capProven map[types.Object]token.Pos
	// bound maps an allocation expression to the local it is directly
	// bound to by an assignment or var declaration.
	bound map[ast.Expr]types.Object

	sites []AllocSite
}

// prepare computes the walk's node metadata: loop membership from the
// CFG (goto-formed loops included), cold roots, escape bits and the
// append-capacity sanitizer index.
func (w *escapeWalker) prepare(body *ast.BlockStmt) {
	g := cfg.Build(body)
	loops := g.LoopBlocks()
	w.topLoop = make(map[ast.Node]bool)
	for _, blk := range g.Blocks {
		in := loops[blk]
		for _, n := range blk.Nodes {
			w.topLoop[n] = in
		}
	}

	w.coldRoots = make(map[ast.Node]bool)
	w.escaped = make(map[types.Object]bool)
	w.capProven = make(map[types.Object]token.Pos)
	w.bound = make(map[ast.Expr]types.Object)

	ast.Inspect(body, func(n ast.Node) bool {
		for _, e := range earlyExits(n) {
			w.coldRoots[e] = true
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			// The literal's free variables escape into the closure;
			// its body is out of scope.
			w.markFreeVars(n)
			return false
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				w.markEscape(r)
			}
		case *ast.SendStmt:
			w.markEscape(n.Value)
		case *ast.CallExpr:
			for _, a := range n.Args {
				w.markEscape(a)
			}
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					w.markEscape(kv.Value)
				} else {
					w.markEscape(e)
				}
			}
		case *ast.AssignStmt:
			w.prepareAssign(n)
		case *ast.ValueSpec:
			for i, name := range n.Names {
				obj := w.info.Defs[name]
				if obj == nil || i >= len(n.Values) {
					continue
				}
				w.indexBinding(obj, n.Values[i])
			}
		}
		return true
	})
}

// earlyExits returns the branches of n that end in return or panic:
// an if's body or else block, or a case or comm clause. Each runs at
// most once per enclosing loop, so the hot-path checks treat it as cold.
func earlyExits(n ast.Node) []ast.Node {
	var out []ast.Node
	switch n := n.(type) {
	case *ast.IfStmt:
		if terminates(n.Body.List) {
			out = append(out, n.Body)
		}
		if els, ok := n.Else.(*ast.BlockStmt); ok && terminates(els.List) {
			out = append(out, els)
		}
	case *ast.CaseClause:
		if terminates(n.Body) {
			out = append(out, n)
		}
	case *ast.CommClause:
		if terminates(n.Body) {
			out = append(out, n)
		}
	}
	return out
}

// terminates reports whether a statement list ends in a return or a
// call to panic — the early-exit shape that makes a block cold.
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// markEscape records the root object of an expression as escaping.
func (w *escapeWalker) markEscape(e ast.Expr) {
	if obj := rootObj(w.info, e); obj != nil {
		w.escaped[obj] = true
	}
}

// markFreeVars records every variable a function literal captures.
func (w *escapeWalker) markFreeVars(lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := w.info.Uses[id].(*types.Var)
		if !ok || obj.Pkg() == nil {
			return true
		}
		// A variable declared outside the literal but inside some
		// function is a capture; package-level variables are not.
		if obj.Parent() != nil && obj.Parent() != obj.Pkg().Scope() &&
			(obj.Pos() < lit.Pos() || obj.Pos() > lit.End()) {
			w.escaped[obj] = true
		}
		return true
	})
}

// prepareAssign records escapes through non-local stores, direct
// allocation bindings, and the append-capacity sanitizer index.
func (w *escapeWalker) prepareAssign(a *ast.AssignStmt) {
	if len(a.Lhs) == len(a.Rhs) {
		for i := range a.Lhs {
			lhs, rhs := a.Lhs[i], a.Rhs[i]
			id, isIdent := ast.Unparen(lhs).(*ast.Ident)
			if !isIdent {
				// Store through a selector/index/deref: the value
				// escapes into whatever holds the target.
				w.markEscape(rhs)
				continue
			}
			obj := w.info.Defs[id]
			if obj == nil {
				obj = w.info.Uses[id]
			}
			if obj == nil {
				continue
			}
			v, isVar := obj.(*types.Var)
			if !isVar || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
				// Assignment to a package-level variable escapes.
				w.markEscape(rhs)
				continue
			}
			w.indexBinding(obj, rhs)
		}
		return
	}
	// Multi-value assignment from a single call: nothing to index.
}

// indexBinding records that obj is directly bound to rhs — the hook
// for StackPlausible classification and the capacity sanitizer.
func (w *escapeWalker) indexBinding(obj types.Object, rhs ast.Expr) {
	rhs = ast.Unparen(rhs)
	w.bound[rhs] = obj
	switch e := rhs.(type) {
	case *ast.CallExpr:
		if name, ok := builtinName(w.info, e); ok && name == "make" && len(e.Args) == 3 {
			// make(T, len, cap): an explicit capacity is the author's
			// capacity plan; appends to obj are alloc-free-after-warmup.
			w.capProven[obj] = rhs.Pos()
		}
	case *ast.SliceExpr:
		// s = s[:0]: reusing a warm buffer keeps its capacity.
		if root := rootObj(w.info, e.X); root == obj && e.Low == nil && e.High != nil && e.Max == nil {
			if lit, ok := ast.Unparen(e.High).(*ast.BasicLit); ok && lit.Value == "0" {
				w.capProven[obj] = rhs.Pos()
			}
		}
	}
}

// builtinName resolves a call to a builtin function.
func builtinName(info *types.Info, call *ast.CallExpr) (string, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return "", false
	}
	if _, ok := info.Uses[id].(*types.Builtin); ok {
		return id.Name, true
	}
	return "", false
}

// walkState is the per-node traversal state.
type walkState struct {
	inLoop bool
	cold   bool
}

// walk runs the main classification traversal, deriving each node's
// state from the stacks maintained through ast.Inspect's push/pop
// protocol.
func (w *escapeWalker) walk(body *ast.BlockStmt) {
	type frame struct {
		node ast.Node
		st   walkState
	}
	var stack []frame
	cur := func() walkState {
		if len(stack) == 0 {
			return walkState{}
		}
		return stack[len(stack)-1].st
	}
	parent := func() ast.Node {
		if len(stack) == 0 {
			return nil
		}
		return stack[len(stack)-1].node
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		st := cur()
		if in, ok := w.topLoop[n]; ok {
			st.inLoop = in
		}
		if w.coldRoots[n] {
			st.cold = true
		}
		descend := w.visit(n, st, parent())
		if !descend {
			return false
		}
		stack = append(stack, frame{n, st})
		return true
	})
}

// classify picks the class for an allocating expression: cold path
// beats everything, then a non-escaping direct binding is plausibly
// stacked, otherwise it is a steady-state heap allocation.
func (w *escapeWalker) classify(e ast.Expr, st walkState) AllocClass {
	if st.cold {
		return ColdAlloc
	}
	if obj, ok := w.bound[e]; ok && !w.escaped[obj] {
		return StackPlausible
	}
	return HeapAlloc
}

func (w *escapeWalker) add(n ast.Node, kind allocKind, class AllocClass, what string, st walkState) {
	w.sites = append(w.sites, AllocSite{Node: n, kind: kind, Class: class, What: what, InLoop: st.inLoop})
}

// visit records the sites of one node; it returns false to prune the
// subtree (function literals only).
func (w *escapeWalker) visit(n ast.Node, st walkState, parent ast.Node) bool {
	switch n := n.(type) {
	case *ast.FuncLit:
		w.visitFuncLit(n, st)
		return false
	case *ast.DeferStmt:
		w.add(n, akDefer, AllocFree, "defer", st)
	case *ast.CallExpr:
		w.visitCall(n, st)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				w.add(n, akLit, w.classify(n, st), "address of composite literal", st)
			}
		}
	case *ast.CompositeLit:
		// A slice or map literal allocates its backing store; struct
		// and array literals are values (their &lit form is handled
		// above).
		switch w.typeOf(n).Underlying().(type) {
		case *types.Slice:
			w.add(n, akLit, w.classify(n, st), "slice literal", st)
		case *types.Map:
			w.add(n, akLit, w.classify(n, st), "map literal", st)
		}
	case *ast.SelectorExpr:
		w.visitSelector(n, st, parent)
	case *ast.AssignStmt:
		w.visitAssignBoxing(n, st)
	case *ast.ValueSpec:
		for i, name := range n.Names {
			if i < len(n.Values) {
				w.checkBoxing(n.Values[i], w.info.Defs[name], st)
			}
		}
	}
	return true
}

func (w *escapeWalker) typeOf(e ast.Expr) types.Type {
	if t := w.info.TypeOf(e); t != nil {
		return t
	}
	return types.Typ[types.Invalid]
}

// visitFuncLit records the closure allocation: a literal capturing at
// least one variable materializes a closure object; a capture-free
// literal is a static function value and free.
func (w *escapeWalker) visitFuncLit(lit *ast.FuncLit, st walkState) {
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captures {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := w.info.Uses[id].(*types.Var)
		if !ok || obj.Pkg() == nil || obj.Parent() == nil || obj.Parent() == obj.Pkg().Scope() {
			return true
		}
		if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
			captures = true
		}
		return true
	})
	if captures {
		w.add(lit, akClosure, w.classify(lit, st), "closure capturing locals", st)
	}
}

// visitSelector records bound method values: a method used as a value
// allocates a closure binding the receiver.
func (w *escapeWalker) visitSelector(sel *ast.SelectorExpr, st walkState, parent ast.Node) {
	if call, ok := parent.(*ast.CallExpr); ok && ast.Unparen(call.Fun) == sel {
		return // a direct method call, not a method value
	}
	if s, ok := w.info.Selections[sel]; ok && s.Kind() == types.MethodVal {
		w.add(sel, akMethodValue, w.classify(sel, st), "bound method value", st)
	}
}

// visitAssignBoxing flags concrete non-pointer values assigned into
// interface-typed targets.
func (w *escapeWalker) visitAssignBoxing(a *ast.AssignStmt, st walkState) {
	if len(a.Lhs) != len(a.Rhs) {
		return
	}
	for i := range a.Lhs {
		var obj types.Object
		if id, ok := ast.Unparen(a.Lhs[i]).(*ast.Ident); ok {
			obj = w.info.Defs[id]
			if obj == nil {
				obj = w.info.Uses[id]
			}
		}
		if obj != nil {
			w.checkBoxing(a.Rhs[i], obj, st)
		} else if t := w.typeOf(a.Lhs[i]); t != nil {
			w.checkBoxingTo(a.Rhs[i], t, st)
		}
	}
}

// checkBoxing flags rhs if assigning it to obj boxes a concrete value
// into an interface.
func (w *escapeWalker) checkBoxing(rhs ast.Expr, obj types.Object, st walkState) {
	if obj == nil {
		return
	}
	w.checkBoxingTo(rhs, obj.Type(), st)
}

// checkBoxingTo flags rhs when it is a concrete non-pointer-shaped
// value converted to an interface target type.
func (w *escapeWalker) checkBoxingTo(rhs ast.Expr, target types.Type, st walkState) {
	if target == nil || !types.IsInterface(target) {
		return
	}
	rt := w.typeOf(rhs)
	if rt == nil || types.IsInterface(rt) || pointerShaped(rt) {
		return
	}
	if tv, ok := w.info.Types[rhs]; ok && tv.IsNil() {
		return
	}
	w.add(rhs, akIfaceBox, w.classify(ast.Unparen(rhs), st), "interface boxing of "+rt.String(), st)
}

// pointerShaped reports whether values of t fit an interface's data
// word without allocating: pointers, channels, maps, functions and
// unsafe pointers.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

// visitCall dispatches the call-shaped sources: builtins (make, new,
// append), type conversions (string/byte, interface boxing), fmt and
// log calls, variadic boxing, interface dispatch and indirect calls.
func (w *escapeWalker) visitCall(call *ast.CallExpr, st walkState) {
	if name, ok := builtinName(w.info, call); ok {
		switch name {
		case "make":
			what := "make"
			if len(call.Args) > 0 {
				what = "make(" + types.TypeString(w.typeOf(call), nil) + ")"
			}
			w.add(call, akMake, w.classify(call, st), what, st)
		case "new":
			w.add(call, akNew, w.classify(call, st), "new("+types.TypeString(w.typeOf(call), nil)+")", st)
		case "append":
			w.visitAppend(call, st)
		}
		return
	}
	if tv, ok := w.info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() {
		w.visitConversion(call, tv.Type, st)
		return
	}

	fn := calleeFunc(w.info, call)
	if fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "fmt", "log":
			w.add(call, akFmt, w.coldOrHeap(st), fn.Pkg().Name()+"."+fn.Name()+" call", st)
			return // one site per fmt call; skip the per-arg boxing
		}
	}

	// Dispatch: an interface method call (calleeFunc resolves these to
	// the interface's *types.Func, so check the selection, not fn) or,
	// when nothing resolves, a call through a function value.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := w.info.Selections[sel]; ok && s.Kind() == types.MethodVal && types.IsInterface(s.Recv()) {
			w.add(call, akDispatch, AllocFree, "interface method call "+sel.Sel.Name, st)
		}
	} else if fn == nil {
		// A directly-invoked function literal is a static call, not
		// dispatch through a value.
		if _, isLit := ast.Unparen(call.Fun).(*ast.FuncLit); !isLit {
			if _, ok := w.typeOf(ast.Unparen(call.Fun)).Underlying().(*types.Signature); ok {
				w.add(call, akDispatch, AllocFree, "indirect call through function value", st)
			}
		}
	}

	sig := w.callSignature(call)
	if sig != nil {
		if sig.Variadic() && call.Ellipsis == token.NoPos && len(call.Args) >= sig.Params().Len() {
			w.add(call, akVariadic, w.coldOrHeap(st), "variadic argument slice", st)
		} else {
			w.checkArgBoxing(call, sig, st)
		}
	}
}

// coldOrHeap classifies sites that always heap-allocate when executed
// (fmt, variadic boxing): only the cold-path exemption applies.
func (w *escapeWalker) coldOrHeap(st walkState) AllocClass {
	if st.cold {
		return ColdAlloc
	}
	return HeapAlloc
}

// callSignature returns the called function's signature, nil for
// builtins and conversions.
func (w *escapeWalker) callSignature(call *ast.CallExpr) *types.Signature {
	t := w.typeOf(call.Fun)
	sig, _ := t.Underlying().(*types.Signature)
	return sig
}

// checkArgBoxing flags concrete values passed to interface-typed
// parameters of a non-variadic (or spread) call.
func (w *escapeWalker) checkArgBoxing(call *ast.CallExpr, sig *types.Signature, st walkState) {
	n := sig.Params().Len()
	for i, arg := range call.Args {
		if i >= n {
			break
		}
		pt := sig.Params().At(i).Type()
		if sig.Variadic() && i == n-1 {
			continue // spread slice passes through
		}
		w.checkBoxingTo(arg, pt, st)
	}
}

// visitAppend classifies an append call: sanitized when the appended
// slice has a capacity plan (explicit-cap make or [:0] reuse) defined
// before the call and the result is assigned back to the same slice.
func (w *escapeWalker) visitAppend(call *ast.CallExpr, st walkState) {
	if len(call.Args) == 0 {
		return
	}
	if root := rootObj(w.info, call.Args[0]); root != nil {
		if def, ok := w.capProven[root]; ok && def < call.Pos() {
			if obj, bound := w.bound[call]; bound && obj == root {
				w.add(call, akAppend, AllocFree, "append within proven capacity", st)
				return
			}
		}
	}
	w.add(call, akAppend, w.coldOrHeap(st), "append without a capacity proof", st)
}

// visitConversion classifies explicit conversions T(x): string/byte
// materializations and interface boxing.
func (w *escapeWalker) visitConversion(call *ast.CallExpr, target types.Type, st walkState) {
	if len(call.Args) != 1 {
		return
	}
	arg := call.Args[0]
	at := w.typeOf(arg)
	if isStringType(target) && isByteOrRuneSlice(at) || isStringType(at) && isByteOrRuneSlice(target) {
		w.add(call, akStringConv, w.coldOrHeap(st), "string conversion", st)
		return
	}
	w.checkBoxingTo(arg, target, st)
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

// steadyAlloc reports whether a site is a steady-state heap
// allocation — the bit the per-function "allocates" summary tracks.
func (s AllocSite) steadyAlloc() bool {
	if s.Class != HeapAlloc {
		return false
	}
	switch s.kind {
	case akDispatch, akDefer:
		return false
	}
	return true
}

// FuncAllocSites runs the escape engine over a declaration in this
// pass, memoized through the fact store so the four hot* analyzers
// share one classification per function.
func (p *Pass) FuncAllocSites(fd *ast.FuncDecl) []AllocSite {
	fn := p.declFunc(fd)
	if fn == nil {
		return escapeSites(p.Info, p.Fset, fd.Body)
	}
	return p.Facts.sitesOf(fn)
}

// sitesOf memoizes escapeSites per declared function.
func (f *Facts) sitesOf(fn *types.Func) []AllocSite {
	if sites, ok := f.siteCache[fn]; ok {
		return sites
	}
	site := f.decls[fn]
	if site == nil {
		return nil
	}
	sites := escapeSites(site.pkg.Info, f.fset, site.decl.Body)
	if f.siteCache == nil {
		f.siteCache = make(map[*types.Func][]AllocSite)
	}
	f.siteCache[fn] = sites
	return sites
}

// computeAllocates folds the escape engine's verdicts into the
// per-function summaries, bottom-up over the condensation: a function
// allocates when its own body has a steady-state heap site or when a
// direct callee allocates. Within an SCC every member reaches every
// other, so the whole component shares one verdict.
func (f *Facts) computeAllocates(g *callGraph) {
	for _, scc := range g.sccs {
		alloc := false
		for _, n := range scc {
			for _, s := range f.sitesOf(n.fn) {
				if s.steadyAlloc() {
					alloc = true
					break
				}
			}
			if alloc {
				break
			}
			for _, c := range n.callees {
				// Callees outside this SCC are final (bottom-up
				// order); callees inside share the verdict below.
				if f.allocates[c.fn] {
					alloc = true
					break
				}
			}
			if alloc {
				break
			}
		}
		for _, n := range scc {
			f.allocates[n.fn] = alloc
		}
	}
}

// Allocates reports whether a module function (or one of its direct
// callees, transitively) performs a steady-state heap allocation;
// known is false for functions outside the module.
func (f *Facts) Allocates(fn *types.Func) (alloc, known bool) {
	if _, ok := f.decls[fn]; !ok {
		return false, false
	}
	return f.allocates[fn], true
}
