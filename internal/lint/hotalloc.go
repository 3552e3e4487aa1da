package lint

import (
	"go/ast"
)

// HotAlloc enforces the core hot-path contract: no steady-state heap
// allocation inside a //mlec:hot function or region. It owns the
// general allocation sources — make, new, slice/map composite
// literals, closures capturing locals, bound method values,
// string<->[]byte conversions, implicit variadic slices and fmt/log
// calls. Appends are hotprealloc's (they have a dedicated remedy) and
// interface boxing is hotiface's, so each site is reported exactly
// once across the family.
//
// The escape engine's two exemptions apply: an allocation on a
// cold path (an if/case body ending in return or panic — error
// formatting, precondition panics) is not a steady-state cost, and an
// allocation bound to a local the engine cannot see escaping is
// plausibly stack-allocated by the compiler and reported by nothing.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "forbid steady-state heap allocations in //mlec:hot functions and regions",
	Run:  runHotAlloc,
}

// hotScope names why a site is in hot scope, for diagnostics.
type hotScope struct {
	fd    *ast.FuncDecl
	label string
}

// eachHotSite walks every declaration of the pass and invokes fn for
// each escape-engine site that lies in hot scope: anywhere in a hot
// function, or inside a //mlec:hot region statement of any function.
// Cold functions are skipped wholesale — the annotation is the
// reviewed opt-out.
func eachHotSite(pass *Pass, fn func(scope hotScope, s AllocSite)) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if pass.FuncCold(fd) {
				continue
			}
			if pass.FuncHot(fd) {
				scope := hotScope{fd, pass.HotLabel(fd)}
				for _, s := range pass.FuncAllocSites(fd) {
					fn(scope, s)
				}
				continue
			}
			regions := pass.HotRegions(fd)
			if len(regions) == 0 {
				continue
			}
			scope := hotScope{fd, "inside //mlec:hot region of " + fd.Name.Name}
			for _, s := range pass.FuncAllocSites(fd) {
				if inside(s.Node, regions) {
					fn(scope, s)
				}
			}
		}
	}
}

func runHotAlloc(pass *Pass) error {
	eachHotSite(pass, func(scope hotScope, s AllocSite) {
		if s.Class != HeapAlloc {
			return
		}
		switch s.kind {
		case akMake, akNew, akLit, akClosure, akMethodValue, akStringConv, akVariadic, akFmt:
		default:
			return
		}
		where := "on the hot path"
		if s.InLoop {
			where = "in a hot loop"
		}
		pass.Report(s.Node.Pos(),
			"%s %s heap-allocates %s (%s); hoist it out, reuse a buffer, or annotate the function //mlec:cold with a rationale",
			scope.fd.Name.Name, where, s.What, scope.label)
	})
	return nil
}
