package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc enforces the core hot-path contract: no steady-state heap
// allocation inside a //mlec:hot function or region. What allocates is
// the compiler's escape analysis verdict, from the one build behind the
// hot-path checks (compilercheck.go). hotalloc owns the `escapes to
// heap` and `moved to heap` verdicts on make, new, slice/map/&T
// literals, capturing closures, bound method values, string
// conversions and concatenations, implicit variadic slices, escaped
// locals and fmt/log calls. Interface boxing is hotiface's and
// heap-allocated defers are hotdefer's, so each verdict is reported
// exactly once across the family; appends are hotprealloc's, because
// the compiler does not report a growing append at all.
//
// An allocation on an early-exit branch (an if/case body ending in
// return or panic: error formatting, precondition panics) runs at most
// once per call and is exempt.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "forbid steady-state heap allocations in //mlec:hot functions and regions (-m=2)",
	Run:  runEscapeCheck,
}

// runEscapeCheck is the Run of hotalloc, hotiface and hotdefer: it maps
// the build's escape verdicts onto hot scope and reports those the
// running analyzer owns.
func runEscapeCheck(pass *Pass) error {
	gc, err := pass.Facts.compile()
	if err != nil {
		return err
	}
	escapes := make(map[token.Pos][]gcEscape)
	analyzed := false
	for _, f := range pass.Files {
		tf := pass.Fset.File(f.Pos())
		analyzed = analyzed || gc.escFiles[tf.Name()]
		for _, e := range gc.escapes[tf.Name()] {
			if e.line <= tf.LineCount() {
				pos := tf.LineStart(e.line) + token.Pos(e.col-1)
				escapes[pos] = append(escapes[pos], e)
			}
		}
	}
	inScope := false
	reported := make(map[ast.Node]bool)
	eachHotNode(pass, false, func(h hotNode) {
		inScope = true
		switch h.node.(type) {
		case ast.Expr, *ast.DeferStmt:
		default:
			return // a statement's position is its first expression's
		}
		key := gcKey(pass.Info, h.node)
		es := escapes[key]
		delete(escapes, key) // a conversion shares its operand's key
		for _, e := range es {
			owner, node, what := attribute(pass, h, e)
			if h.cold || owner != pass.Analyzer.Name || reported[node] {
				continue
			}
			reported[node] = true
			where := "on the hot path"
			if h.inLoop {
				where = "in a hot loop"
			}
			switch owner {
			case "hotalloc":
				pass.Report(node.Pos(), "%s %s heap-allocates %s (%s); hoist it out, reuse a buffer, or annotate the function //mlec:cold with a rationale",
					h.fd.Name.Name, where, what, h.label)
			case "hotiface":
				pass.Report(node.Pos(), "%s %s performs %s (%s); keep the concrete type or use a pointer-shaped value",
					h.fd.Name.Name, where, what, h.label)
			case "hotdefer":
				pass.Report(node.Pos(), "%s defers inside a hot loop (%s); each iteration allocates a defer record that only runs at return — call directly or wrap the iteration in a function",
					h.fd.Name.Name, h.label)
			}
		}
	})
	if inScope && !analyzed {
		return fmt.Errorf("compiler check: no escape-analysis line (`escapes to heap`, `does not escape`) for hot package %s; has the -m=2 format changed?", pass.Pkg.Path())
	}
	return nil
}

// gcKey returns the position at which the compiler reports an
// allocation of node n: the `(` of a call, the operand of a conversion,
// the `{` of a composite literal, the dot, bracket or operator of other
// compound expressions, and the start of everything else.
func gcKey(info *types.Info, n ast.Node) token.Pos {
	switch x := n.(type) {
	case *ast.CallExpr:
		if info.Types[x.Fun].IsType() && len(x.Args) == 1 {
			return gcKey(info, x.Args[0])
		}
		return x.Lparen
	case *ast.CompositeLit:
		return x.Lbrace
	case *ast.SelectorExpr:
		return x.X.End()
	case *ast.TypeAssertExpr:
		return x.X.End()
	case *ast.IndexExpr:
		return x.Lbrack
	case *ast.SliceExpr:
		return x.Lbrack
	case *ast.BinaryExpr:
		return x.OpPos
	}
	return n.Pos()
}

// attribute names the analyzer that owns escape verdict e at hot node
// h, the node to report and what allocates, taken from the node's
// syntax. An empty owner means e is no allocation of this scope.
func attribute(pass *Pass, h hotNode, e gcEscape) (owner string, node ast.Node, what string) {
	info := pass.Info
	if e.kind == escDefer {
		return "hotdefer", h.node, e.what
	}
	if h.fmt != nil {
		fn := calleeFunc(info, h.fmt)
		return "hotalloc", h.fmt, fn.Pkg().Name() + "." + fn.Name() + " call"
	}
	boxed, _ := h.node.(ast.Expr)
	switch n := h.node.(type) {
	case *ast.Ident:
		if e.kind == escMoved {
			return "hotalloc", n, "variable " + n.Name
		}
		if info.Defs[n] != nil {
			return "", nil, "" // the explanation of a moved-to-heap line
		}
	case *ast.CallExpr:
		if tv := info.Types[n.Fun]; tv.IsType() {
			if from := info.TypeOf(n.Args[0]); isStringType(from) != isStringType(tv.Type) {
				return "hotalloc", n, "string conversion"
			}
			if types.IsInterface(tv.Type) {
				boxed = n.Args[0]
			}
		} else if e.what == "... argument" {
			return "hotalloc", n, "variadic argument slice"
		} else if name := builtinName(info, n); name == "make" || name == "new" {
			return "hotalloc", n, name + "(" + types.TypeString(info.TypeOf(n), nil) + ")"
		} else if e.inlined && !strings.HasPrefix(e.what, "~r") {
			// The inlined callee's own allocation: reported in the
			// callee when it is in hot scope, never when it is cold.
			if fn := calleeFunc(info, n); fn != nil && (pass.Facts.IsHot(fn.Origin()) || pass.Facts.IsCold(fn.Origin())) {
				return "", nil, ""
			}
			return "hotalloc", n, "inside inlined " + types.ExprString(n.Fun)
		}
	case *ast.CompositeLit:
		switch info.TypeOf(n).Underlying().(type) {
		case *types.Slice:
			return "hotalloc", n, "slice literal"
		case *types.Map:
			return "hotalloc", n, "map literal"
		}
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			return "hotalloc", n, "address of composite literal"
		}
	case *ast.FuncLit:
		if !captures(info, n) {
			return "", nil, "" // a static closure
		}
		return "hotalloc", n, "closure capturing locals"
	case *ast.SelectorExpr:
		if sel := info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal {
			return "hotalloc", n, "bound method value"
		}
	case *ast.BinaryExpr:
		if isStringType(info.TypeOf(n)) {
			return "hotalloc", n, "string concatenation"
		}
	}
	if boxed == nil {
		return "", nil, "" // a defer statement's wrapper closure
	}
	tv := info.Types[boxed]
	if tv.Value != nil {
		return "", nil, "" // a constant boxes into read-only data
	}
	if tv.Type == nil || types.IsInterface(tv.Type) {
		return "hotalloc", h.node, types.ExprString(boxed)
	}
	return "hotiface", h.node, "interface boxing of " + tv.Type.String()
}

// captures reports whether a function literal refers to a local
// variable declared outside it.
func captures(info *types.Info, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !found {
			v, ok := info.Uses[id].(*types.Var)
			found = ok && v.Pkg() != nil && v.Parent() != nil && v.Parent() != v.Pkg().Scope() &&
				(v.Pos() < lit.Pos() || v.Pos() > lit.End())
		}
		return !found
	})
	return found
}
