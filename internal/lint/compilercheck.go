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

	"mlec/internal/lint/cfg"
)

// hotbce and hotinline report what the compiler itself says about the
// //mlec:hot loops (DESIGN.md §13). Once per Run, under its context,
//
//	go build -o /dev/null -gcflags='<pkg>=-d=ssa/check_bce -m=2' <pkgs>
//
// builds the loaded packages that carry a //mlec:hot directive (their
// in-module imports get the flags too, so every callee has a verdict).
// `Found IsInBounds`, `inlining call to F` and `[can|cannot] inline F`
// lines are mapped onto the loop sites of directly annotated functions
// and hot regions: index and slice expressions by their `[`, calls by
// their `(`, where the compiler puts its column. Closure bodies and
// early-exit branches (an if/case body ending in return or panic) are
// not loop sites. A package that does not compile fails the Run, and so
// does a directly hot function without a verdict, so a change in the
// diagnostic format cannot pass as a clean kernel.

// HotBCE reports the bounds checks the compiler keeps in hot loops.
var HotBCE = &Analyzer{
	Name: "hotbce",
	Doc:  "report bounds checks the compiler keeps in //mlec:hot loops (-d=ssa/check_bce)",
	Run:  runCompilerCheck,
}

// HotInline reports hot-loop calls the compiler did not inline because
// the call is indirect or the in-module callee's shape defeats the
// inliner. Size-only rejections ("function too complex": the callee
// amortizes its call), //mlec:cold and out-of-module callees, and
// interface calls (hotiface's) are exempt.
var HotInline = &Analyzer{
	Name: "hotinline",
	Doc:  "report hot-loop calls the inliner rejects for shape, or indirect calls (-m=2)",
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

// gcDiags is the parsed output of one build.
type gcDiags struct {
	bce      map[string][]gcPos  // file -> kept bounds checks
	inlined  map[gcPos]bool      // call sites the inliner expanded
	verdicts map[gcPos]gcVerdict // keyed as verdict() looks them up
}

var gcLineRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// parseCompilerOutput reads the build output; dir resolves the relative
// paths the go command prints.
func parseCompilerOutput(dir string, out []byte) *gcDiags {
	d := &gcDiags{bce: map[string][]gcPos{}, inlined: map[gcPos]bool{}, verdicts: map[gcPos]gcVerdict{}}
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
		}
	}
	return d
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
func runCompiler(ctx context.Context, pkgs []*Package) (*gcDiags, error) {
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
	args := []string{"build", "-o", os.DevNull}
	for _, path := range slices.Sorted(maps.Keys(flagged)) {
		args = append(args, "-gcflags="+path+"=-d=ssa/check_bce -m=2")
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
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.FuncCold(fd) {
				continue
			}
			var regions []ast.Stmt
			if !pass.funcDirectHot(fd) {
				if regions = pass.HotRegions(fd); len(regions) == 0 {
					continue
				}
			} else if sig := pass.declFunc(fd).Type().(*types.Signature); sig.TypeParams().Len()+sig.RecvTypeParams().Len() == 0 {
				// Generic functions only get verdicts per instantiation.
				if _, ok := gc.verdict(pass.Fset, fd); !ok {
					return nil, fmt.Errorf("compiler check: no `can inline`/`cannot inline %s` line at %s; has the -m=2 format changed?", fd.Name.Name, pass.Fset.Position(fd.Pos()))
				}
			}
			var skip []ast.Node // closures and early-exit branches
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					skip = append(skip, n)
				}
				skip = append(skip, earlyExits(n)...)
				return true
			})
			g := cfg.Build(fd.Body)
			loops := g.LoopBlocks()
			for _, b := range g.Blocks {
				for _, node := range b.Nodes {
					if !loops[b] || (regions != nil && !inside(node, regions)) {
						continue
					}
					ast.Inspect(node, func(n ast.Node) bool {
						if n == nil || inside(n, skip) {
							return false
						}
						switch x := n.(type) {
						case *ast.IndexExpr:
							sites[x.Lbrack] = loopSite{fd, x}
						case *ast.SliceExpr:
							sites[x.Lbrack] = loopSite{fd, x}
						case *ast.CallExpr:
							sites[x.Lparen] = loopSite{fd, x}
						}
						return true
					})
				}
			}
		}
	}
	return sites, nil
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
		return types.ExprString(call.Fun) + " through a function value in a hot loop; an indirect call cannot be inlined — " +
			"devirtualize it (call the function directly) or hoist the dispatch out of the loop"
	}
	callee = callee.Origin()
	if recv := callee.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return "" // hotiface's domain
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
