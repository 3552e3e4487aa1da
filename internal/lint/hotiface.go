package lint

import (
	"go/ast"
	"go/types"
)

// HotIface owns the interface costs of hot paths:
//
//  1. Boxing — a concrete value converted into an interface (explicit
//     T(x) conversions, assignments to interface-typed variables,
//     arguments to interface-typed parameters) that the compiler's
//     escape analysis says escapes to heap (hotalloc.go). A
//     pointer-shaped value rides the interface data word and a
//     constant boxes into read-only data, so neither is reported.
//  2. Dispatch — an interface method call or a call through a
//     function value inside a hot loop. No allocation, but the
//     indirect call defeats inlining and reloads the itable every
//     iteration, which is exactly the cost the gf256 kernels avoid by
//     taking concrete slices. No compiler diagnostic names it, so this
//     half is a syntactic check.
//
// Boxing is reported anywhere in hot scope; dispatch only inside
// loops, where the per-iteration cost accumulates. Cold-path boxing
// (error formatting) is exempt, as everywhere in the family.
var HotIface = &Analyzer{
	Name: "hotiface",
	Doc:  "forbid interface boxing on hot paths (-m=2) and dynamic dispatch in hot loops",
	Run:  runHotIface,
}

func runHotIface(pass *Pass) error {
	if err := runEscapeCheck(pass); err != nil {
		return err
	}
	eachHotNode(pass, false, func(h hotNode) {
		call, ok := h.node.(*ast.CallExpr)
		if !ok || !h.inLoop {
			return
		}
		what := ""
		fun := ast.Unparen(call.Fun)
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			if s := pass.Info.Selections[sel]; s != nil && s.Kind() == types.MethodVal && types.IsInterface(s.Recv()) {
				what = "interface method call " + sel.Sel.Name
			}
		} else if tv := pass.Info.Types[fun]; !tv.IsType() && !tv.IsBuiltin() && calleeFunc(pass.Info, call) == nil {
			// A directly invoked function literal is a static call.
			if _, lit := fun.(*ast.FuncLit); !lit {
				what = "indirect call through function value"
			}
		}
		if what != "" {
			pass.Report(call.Pos(), "%s has %s in a hot loop (%s); devirtualize to a concrete call or hoist the decision out of the loop",
				h.fd.Name.Name, what, h.label)
		}
	})
	return nil
}
