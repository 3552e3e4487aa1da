package lint

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseCompilerOutput(t *testing.T) {
	const out = `# mlec/internal/gf256
internal/gf256/gf256.go:98:9: Found IsInBounds
internal/gf256/gf256.go:98:9: Found IsInBounds
internal/gf256/gf256.go:140:12: Found IsSliceInBounds
internal/gf256/gf256.go:132:6: can inline MulByte with cost 4 as: func(byte, byte) byte { return mulTable[a][b] }
internal/gf256/gf256.go:183:6: cannot inline MulAddSlice: function too complex: cost 492 exceeds budget 80
internal/gf256/gf256.go:20:6: can inline (*Table).Row with cost 5 as: method(*Table) func() []byte { return t.row }
internal/gf256/gf256.go:31:6: can inline Gen[go.shape.int] with cost 2 as: func(*[1]uintptr, go.shape.int) go.shape.int { return x }
/abs/other.go:7:6: cannot inline lockedBump: unhandled op DEFER
internal/gf256/gf256.go:150:19: inlining call to MulByte
internal/gf256/gf256.go:68:14:   flow: out = *rem:
internal/gf256/gf256.go:60:13: make([]byte, n) escapes to heap:
internal/gf256/gf256.go:60:13: make([]byte, n) escapes to heap
internal/gf256/gf256.go:61:2: moved to heap: x
internal/gf256/gf256.go:62:3: heap-allocated defer
internal/gf256/gf256.go:63:3: open-coded defer
internal/gf256/gf256.go:150:19: ~r0 escapes to heap
internal/gf256/gf256.go:70:20: s does not escape
/abs/other.go:9:2: leaking param: p
not a diagnostic line
`
	d := parseCompilerOutput("/mod", []byte(out))
	file := "/mod/internal/gf256/gf256.go"
	if want := []gcPos{{file, 98, 9}, {file, 140, 12}}; !reflect.DeepEqual(d.bce[file], want) {
		t.Errorf("bounds checks = %v, want %v (deduplicated, paths made absolute)", d.bce[file], want)
	}
	if !d.inlined[gcPos{file, 150, 19}] {
		t.Errorf("missing inlined call at 150:19")
	}
	want := map[gcPos]gcVerdict{
		{file, 132, 6}:          {"MulByte", ""},
		{file, 183, 6}:          {"MulAddSlice", "function too complex: cost 492 exceeds budget 80"},
		{file, 20, 6}:           {"(*Table).Row", ""},
		{file, 31, 6}:           {"Gen[go.shape.int]", ""},
		{"/abs/other.go", 7, 6}: {"lockedBump", "unhandled op DEFER"},
	}
	if !reflect.DeepEqual(d.verdicts, want) {
		t.Errorf("verdicts = %v, want %v", d.verdicts, want)
	}
	wantEsc := []gcEscape{
		{line: 60, col: 13, kind: escHeap, what: "make([]byte, n)"},
		{line: 61, col: 2, kind: escMoved, what: "x"},
		{line: 62, col: 3, kind: escDefer, what: "defer"},
		{line: 150, col: 19, kind: escHeap, what: "~r0", inlined: true},
	}
	if !reflect.DeepEqual(d.escapes[file], wantEsc) {
		t.Errorf("escapes = %v, want %v (deduplicated, inlined sites marked)", d.escapes[file], wantEsc)
	}
	if wantFiles := map[string]bool{file: true, "/abs/other.go": true}; !reflect.DeepEqual(d.escFiles, wantFiles) {
		t.Errorf("files with escape-analysis lines = %v, want %v", d.escFiles, wantFiles)
	}
}

// TestCompilerCheckNeedsVerdicts: if the -m=2 format drifted so that
// no verdict line parses, a parse that matches nothing must not pass
// as a clean kernel.
func TestCompilerCheckNeedsVerdicts(t *testing.T) {
	l := newFixtureLoader(t)
	pkg := loadFixture(t, l, "hotbce")
	facts := NewFacts([]*Package{pkg})
	canned := parseCompilerOutput(l.moduleDir, []byte(
		"internal/lint/testdata/src/hotbce/hotbce.go:11:6: inlinable SliceAdvance (cost 73)\n"+
			"internal/lint/testdata/src/hotbce/hotbce.go:32:11: Found IsInBounds\n"))
	facts.compile = func() (*gcDiags, error) { return canned, nil }
	for _, a := range []*Analyzer{HotBCE, HotInline} {
		var diags []Diagnostic
		pass := &Pass{Analyzer: a, Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info,
			Facts: facts, pkg: pkg, diag: &diags}
		err := a.Run(pass)
		if err == nil || !strings.Contains(err.Error(), "cannot inline SliceAdvance") {
			t.Errorf("%s: err = %v, want a missing-verdict error for SliceAdvance", a.Name, err)
		}
	}
}

// TestCompilerCheckNeedsEscapeLines: if the escape-analysis wording
// drifted so that a hot package gets no escape line at all, the
// allocation checks must fail rather than report a clean kernel.
func TestCompilerCheckNeedsEscapeLines(t *testing.T) {
	l := newFixtureLoader(t)
	pkg := loadFixture(t, l, "hotalloc")
	facts := NewFacts([]*Package{pkg})
	canned := parseCompilerOutput(l.moduleDir, []byte(
		"internal/lint/testdata/src/hotalloc/hotalloc.go:15:6: can inline Kernel with cost 4\n"+
			"internal/lint/testdata/src/hotalloc/hotalloc.go:16:13: make([]byte, len(src)) escapes to the heap\n"))
	facts.compile = func() (*gcDiags, error) { return canned, nil }
	for _, a := range []*Analyzer{HotAlloc, HotIface, HotDefer} {
		var diags []Diagnostic
		pass := &Pass{Analyzer: a, Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info,
			Facts: facts, pkg: pkg, diag: &diags}
		err := a.Run(pass)
		if err == nil || !strings.Contains(err.Error(), "no escape-analysis line") {
			t.Errorf("%s: err = %v, want a missing-escape-analysis error", a.Name, err)
		}
	}
}

// TestCompilerCheckWarmCache: the build shares the GOCACHE, and a
// cached compile must replay the same diagnostics. The package lives
// in a fresh module directory, so the first run compiles it (the
// directory is part of the cache key) and the second replays it.
func TestCompilerCheckWarmCache(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module hotcache\n\ngo 1.24\n",
		"hot.go": `package hotcache

import "sync"

var mu sync.Mutex

func bump(n *int) {
	mu.Lock()
	defer mu.Unlock()
	*n++
}

//mlec:hot
func Sum(s []byte, n int) int {
	total := 0
	for i := 0; i < n; i++ {
		total += int(s[i])
		bump(&total)
	}
	return total
}
`,
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	run := func() []string {
		l, err := NewLoader(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkgs, err := l.Load("./...")
		if err != nil {
			t.Fatal(err)
		}
		diags, err := Run(context.Background(), pkgs, []*Analyzer{HotBCE, HotInline})
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, d := range diags {
			out = append(out, d.String())
		}
		return out
	}
	cold, warm := run(), run()
	if len(cold) != 2 {
		t.Fatalf("cold run: got %d findings, want 2 (s[i] and bump):\n%s", len(cold), strings.Join(cold, "\n"))
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("warm run differs from cold run:\ncold:\n%s\nwarm:\n%s", strings.Join(cold, "\n"), strings.Join(warm, "\n"))
	}
}
