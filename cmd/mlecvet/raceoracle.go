package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"

	"mlec/internal/lint"
)

// runRaceOracle cross-checks the concurrency analyzers against the race
// detector and returns the process exit code: 0 when every observed
// race is claimed by a static finding (or none fire), 1 when a race has
// no static explanation, 2 when the harness itself fails.
//
// Protocol (see internal/lint/raceoracle.go for the rationale):
//
//  1. Run the concurrency analyzers (lockcheck, atomicmix, goleak,
//     waitgroupcapture, copylock) over the loaded packages.
//  2. Generate the //mlec:guardedby stress harness into every annotated
//     package directory (deleted again before returning).
//  3. Run `go test -race -count=1` over the annotated packages plus
//     every package with a concurrency finding, under a throwaway
//     GOCACHE so stale race-free builds cannot mask instrumentation.
//  4. Parse the WARNING: DATA RACE blocks and demand each one touch a
//     file carrying a finding. Unexplained blocks go to stdout (the CI
//     artifact) and fail the run.
func runRaceOracle(ctx context.Context, pkgs []*lint.Package) int {
	diags, err := lint.Run(ctx, pkgs, lint.ConcurrencyAnalyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlecvet:", err)
		return 2
	}

	paths, dirs, err := lint.WriteStressTests(pkgs)
	defer func() {
		for _, p := range paths {
			os.Remove(p)
		}
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlecvet:", err)
		return 2
	}

	// Test the annotated packages plus any package a finding points at:
	// those are the only places a race could be cross-checked.
	testDirs := make(map[string]bool)
	for _, d := range dirs {
		testDirs[d] = true
	}
	byDir := make(map[string]bool)
	for _, d := range diags {
		byDir[d.Pos.Filename] = true
	}
	for _, pkg := range pkgs {
		if testDirs[pkg.Dir] {
			continue
		}
		for _, f := range pkg.Files {
			if byDir[pkg.Fset.Position(f.Pos()).Filename] {
				testDirs[pkg.Dir] = true
				break
			}
		}
	}
	if len(testDirs) == 0 {
		fmt.Fprintln(os.Stderr, "mlecvet: race oracle: no //mlec:guardedby annotations and no concurrency findings; nothing to cross-check")
		return 0
	}
	args := []string{"test", "-race", "-count=1"}
	for _, pkg := range pkgs {
		if testDirs[pkg.Dir] {
			args = append(args, pkg.Dir)
		}
	}

	// A warm cache can hold non-instrumented artifacts from an
	// interrupted earlier run; the oracle rebuilds from scratch so the
	// race runtime is provably in the loop.
	cache, err := os.MkdirTemp("", "mlecvet-race-oracle-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlecvet:", err)
		return 2
	}
	defer os.RemoveAll(cache)

	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Env = append(os.Environ(), "GOCACHE="+cache)
	out, runErr := cmd.CombinedOutput()

	reports := lint.ParseRaceReports(bytes.NewReader(out))
	if runErr != nil && len(reports) == 0 {
		fmt.Fprintf(os.Stderr, "mlecvet: race oracle test run failed without a race report: %v\n%s", runErr, out)
		return 2
	}
	unexplained := lint.UnexplainedRaces(reports, diags)
	for _, r := range unexplained {
		fmt.Println("==================")
		fmt.Print(r.Raw)
	}
	fmt.Fprintf(os.Stderr, "mlecvet: %s; %d static finding(s), %d package(s) tested\n",
		lint.FormatRaceSummary(len(reports), len(unexplained)), len(diags), len(args)-3)
	if len(unexplained) > 0 {
		return 1
	}
	return 0
}
