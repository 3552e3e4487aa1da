package main

import (
	"errors"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mlec/internal/lint"
)

// TestMain lets a test re-execute this binary as mlecvet itself: with
// MLECVET_AS_MAIN=1 set, the process runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("MLECVET_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUncompilableHotPackageExits2: the hot-path analyzers report the
// compiler's own verdicts, so a //mlec:hot package the compiler cannot
// build is a load failure (exit 2), never a clean run.
func TestUncompilableHotPackageExits2(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-timeout", "60s", "./internal/lint/testdata/src/hotbroken")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "MLECVET_AS_MAIN=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2; stdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "missing function body") {
		t.Errorf("stderr lacks the compiler's error:\n%s", stderr.String())
	}
}

// TestBuildReportOrdering locks down the -json contract: findings come
// out sorted by (file, line, analyzer) and malformed directives by
// (file, line), whatever order the analyzers and packages produced
// them in. CI archives the document and diffs runs against each other,
// so any order leak is churn.
func TestBuildReportOrdering(t *testing.T) {
	pos := func(file string, line int) token.Position {
		return token.Position{Filename: file, Line: line, Column: 1}
	}
	diags := []lint.Diagnostic{
		{Pos: pos("b.go", 4), Analyzer: "lockcheck", Message: "m"},
		{Pos: pos("a.go", 9), Analyzer: "goleak", Message: "m"},
		{Pos: pos("a.go", 9), Analyzer: "atomicmix", Message: "m"},
		{Pos: pos("a.go", 2), Analyzer: "lockcheck", Message: "m"},
	}
	pkgs := []*lint.Package{
		{
			MalformedHot:   []token.Position{pos("z.go", 3)},
			MalformedGuard: []token.Position{pos("a.go", 7)},
		},
		{
			Malformed:     []token.Position{pos("a.go", 1)},
			MalformedUnit: []token.Position{pos("z.go", 1)},
		},
	}

	report := buildReport(pkgs, diags)

	wantFindings := []struct {
		file     string
		line     int
		analyzer string
	}{
		{"a.go", 2, "lockcheck"},
		{"a.go", 9, "atomicmix"},
		{"a.go", 9, "goleak"},
		{"b.go", 4, "lockcheck"},
	}
	if len(report.Findings) != len(wantFindings) {
		t.Fatalf("got %d findings, want %d", len(report.Findings), len(wantFindings))
	}
	for i, w := range wantFindings {
		g := report.Findings[i]
		if g.File != w.file || g.Line != w.line || g.Analyzer != w.analyzer {
			t.Errorf("finding[%d] = %s:%d %s, want %s:%d %s",
				i, g.File, g.Line, g.Analyzer, w.file, w.line, w.analyzer)
		}
	}

	wantMalformed := []struct {
		file string
		line int
	}{
		{"a.go", 1}, {"a.go", 7}, {"z.go", 1}, {"z.go", 3},
	}
	if len(report.MalformedDirectives) != len(wantMalformed) {
		t.Fatalf("got %d malformed directives, want %d",
			len(report.MalformedDirectives), len(wantMalformed))
	}
	for i, w := range wantMalformed {
		g := report.MalformedDirectives[i]
		if g.File != w.file || g.Line != w.line {
			t.Errorf("malformed[%d] = %s:%d, want %s:%d", i, g.File, g.Line, w.file, w.line)
		}
	}
}
