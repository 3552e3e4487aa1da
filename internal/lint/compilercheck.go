package lint

import (
	"cmp"
	"context"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// The compiler is the analyzer for //mlec:hot code (DESIGN.md §13).
// Once per Run, under its context,
//
//	go build -o /dev/null -gcflags='<pkg>=-d=defer,ssa/check_bce -m=2' <pkgs>
//
// builds the loaded packages that carry a //mlec:hot directive. The
// flags go to those packages, their in-module imports and every package
// holding a function hot by propagation, so every callee has a verdict
// and every hot function an escape analysis. hotbce and hotinline map
// `Found IsInBounds`, `inlining call to F` and `[can|cannot] inline F`
// lines onto the loop sites of directly annotated functions and hot
// regions: index and slice expressions by their `[`, calls by their
// `(`, where the compiler puts its column. hotalloc, hotiface and
// hotdefer map `… escapes to heap`, `moved to heap: x` and
// `heap-allocated defer` onto all of hot scope (hotalloc.go). Closure
// bodies and early-exit branches (an if/case body ending in return or
// panic) are out of scope. A package that does not compile fails the
// Run, and so does a directly hot function without an inliner verdict
// or a hot package without a single escape-analysis line, so a change
// in the diagnostic format cannot pass as a clean kernel.

// HotBCE reports the bounds checks the compiler keeps in hot loops.
var HotBCE = &Analyzer{
	Name: "hotbce",
	Doc:  "report bounds checks the compiler keeps in //mlec:hot loops (-d=ssa/check_bce)",
	Run:  runCompilerCheck,
}

// HotInline reports hot-loop calls the compiler did not inline because
// the in-module callee's shape defeats the inliner. Size-only
// rejections ("function too complex": the callee amortizes its call),
// //mlec:cold and out-of-module callees, and calls through interfaces
// or function values (hotiface's) are exempt.
var HotInline = &Analyzer{
	Name: "hotinline",
	Doc:  "report hot-loop calls the inliner rejects for their callee's shape (-m=2)",
	Run:  runCompilerCheck,
}

// gcPos is a compiler diagnostic position with an absolute file name.
type gcPos struct {
	file      string
	line, col int
}

// gcVerdict is the inliner's verdict on one function.
type gcVerdict struct {
	name   string // as printed: F, (*T).M, F.func1, G[go.shape.int]
	reason string // "" when the function can inline
}

// gcEscape is one heap allocation the escape analysis reports.
type gcEscape struct {
	line, col int
	kind      escKind
	what      string // as printed: make([]byte, n), ... argument, ~r0, x
	inlined   bool   // printed at a call site the inliner expanded
}

type escKind int

const (
	escHeap  escKind = iota // `what escapes to heap`
	escMoved                // `moved to heap: what`
	escDefer                // `heap-allocated defer`
)

// gcDiags is the parsed output of one build.
type gcDiags struct {
	bce      map[string][]gcPos    // file -> kept bounds checks
	inlined  map[gcPos]bool        // call sites the inliner expanded
	verdicts map[gcPos]gcVerdict   // keyed as verdict() looks them up
	escapes  map[string][]gcEscape // file -> heap allocations, deduplicated
	escFiles map[string]bool       // files with any escape-analysis line
}

var gcLineRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// parseCompilerOutput reads the build output; dir resolves the relative
// paths the go command prints.
func parseCompilerOutput(dir string, out []byte) *gcDiags {
	d := &gcDiags{bce: map[string][]gcPos{}, inlined: map[gcPos]bool{}, verdicts: map[gcPos]gcVerdict{},
		escapes: map[string][]gcEscape{}, escFiles: map[string]bool{}}
	for _, line := range strings.Split(string(out), "\n") {
		m := gcLineRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(dir, file)
		}
		ln, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		pos, msg := gcPos{file, ln, col}, m[4]
		if rest, ok := strings.CutPrefix(msg, "cannot inline "); ok {
			name, reason, _ := strings.Cut(rest, ": ")
			d.verdicts[pos] = gcVerdict{name, reason}
		} else if rest, ok := strings.CutPrefix(msg, "can inline "); ok {
			name, _, _ := strings.Cut(rest, " ")
			d.verdicts[pos] = gcVerdict{name: name}
		} else if strings.HasPrefix(msg, "inlining call to ") {
			d.inlined[pos] = true
		} else if (msg == "Found IsInBounds" || msg == "Found IsSliceInBounds") && !slices.Contains(d.bce[file], pos) {
			d.bce[file] = append(d.bce[file], pos)
		} else if e, ok := parseEscape(msg); ok {
			d.escFiles[file] = true
			e.line, e.col = ln, col
			if e.what != "" && !slices.Contains(d.escapes[file], e) {
				d.escapes[file] = append(d.escapes[file], e)
			}
		}
	}
	for file, es := range d.escapes {
		for i := range es {
			es[i].inlined = d.inlined[gcPos{file, es[i].line, es[i].col}]
		}
	}
	return d
}

// parseEscape reads one escape-analysis message. ok reports any escape
// verdict, including `does not escape` and leaking parameters, whose
// gcEscape carries no what and is no allocation.
func parseEscape(msg string) (e gcEscape, ok bool) {
	if what, ok := strings.CutSuffix(strings.TrimSuffix(msg, ":"), " escapes to heap"); ok {
		return gcEscape{kind: escHeap, what: what}, true
	}
	if what, ok := strings.CutPrefix(msg, "moved to heap: "); ok {
		return gcEscape{kind: escMoved, what: what}, true
	}
	if msg == "heap-allocated defer" {
		return gcEscape{kind: escDefer, what: "defer"}, true
	}
	return gcEscape{}, strings.HasSuffix(msg, "does not escape") || strings.HasPrefix(msg, "leaking param")
}

// verdict returns the inliner's verdict on fd, which the compiler
// prints at the token after `func`: the receiver's `(` or the name.
func (d *gcDiags) verdict(fset *token.FileSet, fd *ast.FuncDecl) (gcVerdict, bool) {
	at := fd.Name.Pos()
	if fd.Recv != nil {
		at = fd.Recv.Opening
	}
	p := fset.Position(at)
	v, ok := d.verdicts[gcPos{p.Filename, p.Line, p.Column}]
	return v, ok
}

// runCompiler builds the hot packages among pkgs and parses the output.
func runCompiler(ctx context.Context, pkgs []*Package, facts *Facts) (*gcDiags, error) {
	var targets []string
	dir, flagged := "", make(map[string]bool)
	for _, p := range pkgs {
		if len(p.hots) == 0 {
			continue
		}
		dir = p.loader.moduleDir
		targets = append(targets, p.Path)
		flagged[p.Path] = true
		for _, imp := range p.Types.Imports() {
			if path := imp.Path(); strings.HasPrefix(path+"/", p.loader.modulePath+"/") {
				flagged[path] = true
			}
		}
	}
	if len(targets) == 0 {
		return parseCompilerOutput(dir, nil), nil
	}
	for fn := range facts.hot {
		flagged[fn.Pkg().Path()] = true
	}
	args := []string{"build", "-o", os.DevNull}
	for _, path := range slices.Sorted(maps.Keys(flagged)) {
		args = append(args, "-gcflags="+path+"=-d=defer,ssa/check_bce -m=2")
	}
	cmd := exec.CommandContext(ctx, "go", append(args, targets...)...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("compiler check: go build %s: %w\n%s", strings.Join(targets, " "), cmp.Or(ctx.Err(), err), out)
	}
	return parseCompilerOutput(dir, out), nil
}

// funcDirectHot reports whether fd itself carries the //mlec:hot
// annotation (as opposed to hotness inherited through the call graph).
func (p *Pass) funcDirectHot(fd *ast.FuncDecl) bool {
	return p.Facts.hotIdx.at(p.Fset.Position(fd.Pos())) && !p.FuncCold(fd)
}

// loopSite is an index, slice or call expression run once per iteration.
type loopSite struct {
	fd   *ast.FuncDecl
	node ast.Node
}

// hotLoopSites returns the loop sites of the pass's directly hot
// functions and hot regions, keyed by the `[` or `(` position.
func hotLoopSites(pass *Pass, gc *gcDiags) (map[token.Pos]loopSite, error) {
	sites := make(map[token.Pos]loopSite)
	var err error
	eachHotNode(pass, true, func(h hotNode) {
		switch x := h.node.(type) {
		case *ast.FuncDecl:
			// Generic functions only get verdicts per instantiation.
			sig := pass.declFunc(x).Type().(*types.Signature)
			if _, ok := gc.verdict(pass.Fset, x); !ok && sig.TypeParams().Len()+sig.RecvTypeParams().Len() == 0 && err == nil {
				err = fmt.Errorf("compiler check: no `can inline`/`cannot inline %s` line at %s; has the -m=2 format changed?", x.Name.Name, pass.Fset.Position(x.Pos()))
			}
		case *ast.IndexExpr:
			if h.inLoop && !h.cold {
				sites[x.Lbrack] = loopSite{h.fd, x}
			}
		case *ast.SliceExpr:
			if h.inLoop && !h.cold {
				sites[x.Lbrack] = loopSite{h.fd, x}
			}
		case *ast.CallExpr:
			if h.inLoop && !h.cold {
				sites[x.Lparen] = loopSite{h.fd, x}
			}
		}
	})
	return sites, err
}

// runCompilerCheck is the Run of both hotbce and hotinline.
func runCompilerCheck(pass *Pass) error {
	gc, err := pass.Facts.compile()
	if err != nil {
		return err
	}
	sites, err := hotLoopSites(pass, gc)
	if err != nil {
		return err
	}
	if pass.Analyzer.Name == "hotbce" {
		for _, f := range pass.Files {
			tf := pass.Fset.File(f.Pos())
			for _, p := range gc.bce[tf.Name()] {
				if p.line > tf.LineCount() {
					continue
				}
				pos := tf.LineStart(p.line) + token.Pos(p.col-1)
				if s, ok := sites[pos]; ok {
					reportBCE(pass, pos, s)
				}
			}
		}
		return nil
	}
	for _, pos := range slices.Sorted(maps.Keys(sites)) {
		call, ok := sites[pos].node.(*ast.CallExpr)
		p := pass.Fset.Position(pos)
		if !ok || gc.inlined[gcPos{p.Filename, p.Line, p.Column}] {
			continue
		}
		if msg := judgeCall(pass, gc, call); msg != "" {
			pass.Report(call.Pos(), "%s calls %s", sites[pos].fd.Name.Name, msg)
		}
	}
	return nil
}

// reportBCE reports the bounds check the compiler kept at loop site s.
func reportBCE(pass *Pass, pos token.Pos, s loopSite) {
	fn := s.fd.Name.Name
	switch n := s.node.(type) {
	case *ast.IndexExpr:
		base := types.ExprString(n.X)
		pass.Report(pos, "%s indexes %s in a hot loop without a provable bound; the compiler keeps the check: guard the loop with a len(%s) comparison or a `_ = %s[n-1]` hint, or restructure to slice-advance form",
			fn, types.ExprString(n), base, base)
	case *ast.SliceExpr:
		pass.Report(pos, "%s slices %s in a hot loop without a provable bound; the compiler keeps the check: establish len(%s) before the loop, or restructure to slice-advance form",
			fn, types.ExprString(n), types.ExprString(n.X))
	case *ast.CallExpr:
		pass.Report(pos, "%s calls %s in a hot loop, and its inlined body keeps a bounds check; establish the length it needs before the loop (length guard or `_ = s[k]` hint)",
			fn, types.ExprString(n.Fun))
	}
}

// blockers names the shape rejections hotinline reports in the words
// of the source.
var blockers = map[string]string{"unhandled op DEFER": "defer", "unhandled op GO": "go statement", "call to recover": "recover"}

// judgeCall explains why a hot-loop call the compiler did not inline
// deserves a finding, or returns "" when it does not.
func judgeCall(pass *Pass, gc *gcDiags, call *ast.CallExpr) string {
	fun := ast.Unparen(call.Fun)
	if tv := pass.Info.Types[fun]; tv.IsType() || tv.IsBuiltin() {
		return "" // a conversion or a builtin
	}
	if ix, ok := fun.(*ast.IndexExpr); ok {
		fun = ix.X // explicit instantiation
	}
	var callee *types.Func
	switch x := fun.(type) {
	case *ast.FuncLit:
		return "" // its body is in scope itself
	case *ast.Ident:
		callee, _ = pass.Info.Uses[x].(*types.Func)
	case *ast.SelectorExpr:
		callee, _ = pass.Info.Uses[x.Sel].(*types.Func)
	}
	if callee == nil {
		return "" // a call through a function value: hotiface's
	}
	callee = callee.Origin()
	if recv := callee.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return "" // hotiface's
	}
	ds, known := pass.Facts.decls[callee]
	if !known || ds.decl.Body == nil || pass.Facts.IsCold(callee) {
		return ""
	}
	v, ok := gc.verdict(ds.pkg.Fset, ds.decl)
	if !ok || v.reason == "" || strings.HasPrefix(v.reason, "function too complex") {
		return ""
	}
	return callee.Name() + " in a hot loop, but its " + cmp.Or(blockers[v.reason], v.reason) + " defeats the inliner (cannot inline " + v.name + ": " + v.reason +
		"); restructure the callee (hoist the blocker out) or annotate it //mlec:cold with a rationale if the call is off the steady-state path"
}
