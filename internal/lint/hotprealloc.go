package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPrealloc owns the append family on hot paths: an append with no
// capacity proof may grow its backing array — a heap allocation plus
// a copy, amortized but never free, and in a loop a repeated
// reallocation cascade. The compiler reports no diagnostic for a
// growing append, so this is a syntactic check that accepts two proofs
// (capacityPlans):
//
//   - the appended slice was defined by an explicit-capacity make
//     (make(T, len, cap)) earlier in the function — the author's
//     reviewed capacity plan, making appends alloc-free after warmup;
//   - the slice was re-sliced to s[:0] — the warm-buffer reuse
//     pattern, which keeps the previous capacity.
//
// In both cases the append result must flow back into the same slice
// variable (s = append(s, ...)); appending into a different variable
// abandons the plan. Cold-path appends (error branches) are exempt.
var HotPrealloc = &Analyzer{
	Name: "hotprealloc",
	Doc:  "require a capacity plan (explicit-cap make or [:0] reuse) for appends on hot paths",
	Run:  runHotPrealloc,
}

func runHotPrealloc(pass *Pass) error {
	var fd *ast.FuncDecl
	var plans map[types.Object]token.Pos
	var into map[*ast.CallExpr]types.Object
	eachHotNode(pass, false, func(h hotNode) {
		call, ok := h.node.(*ast.CallExpr)
		if !ok || h.cold || len(call.Args) == 0 {
			return
		}
		if builtinName(pass.Info, call) != "append" {
			return
		}
		if h.fd != fd {
			fd = h.fd
			plans, into = capacityPlans(pass.Info, fd.Body)
		}
		root := rootObj(pass.Info, call.Args[0])
		if at, ok := plans[root]; ok && at < call.Pos() && into[call] == root {
			return
		}
		if h.inLoop {
			pass.Report(call.Pos(),
				"%s appends in a hot loop without a capacity plan (%s); preallocate with make(T, 0, n) before the loop or reuse a buffer via s = s[:0]",
				h.fd.Name.Name, h.label)
			return
		}
		pass.Report(call.Pos(),
			"%s appends on the hot path without a capacity plan (%s); preallocate with an explicit-capacity make",
			h.fd.Name.Name, h.label)
	})
	return nil
}

// capacityPlans indexes a body's capacity plans: where each variable
// was bound to an explicit-capacity make or reset by s = s[:0], and
// which variable each append's result is bound to.
func capacityPlans(info *types.Info, body *ast.BlockStmt) (map[types.Object]token.Pos, map[*ast.CallExpr]types.Object) {
	plans, into := make(map[types.Object]token.Pos), make(map[*ast.CallExpr]types.Object)
	bind := func(lhs, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		obj := info.ObjectOf(id)
		if obj == nil {
			return
		}
		switch x := ast.Unparen(rhs).(type) {
		case *ast.CallExpr:
			if name := builtinName(info, x); name == "append" {
				into[x] = obj
			} else if name == "make" && len(x.Args) == 3 {
				plans[obj] = x.Pos()
			}
		case *ast.SliceExpr:
			if lit, ok := x.High.(*ast.BasicLit); ok && lit.Value == "0" && x.Low == nil && !x.Slice3 && rootObj(info, x.X) == obj {
				plans[obj] = x.Pos()
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					bind(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					bind(name, n.Values[i])
				}
			}
		}
		return true
	})
	return plans, into
}
