package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-execute this binary as mlecdur itself: with
// MLECDUR_AS_MAIN=1 set, the process runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("MLECDUR_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsStrayArgument: mlecdur takes only flags, so a positional
// argument is a mistake to report (exit 2 with the usage text), not
// input to ignore.
func TestRejectsStrayArgument(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-scheme", "C/D", "-seed", "1", "bogus")
	cmd.Env = append(os.Environ(), "MLECDUR_AS_MAIN=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), `unexpected argument "bogus"`) || !strings.Contains(stderr.String(), "Usage of") {
		t.Errorf("stderr lacks the rejection and usage text:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout = %q, want nothing", stdout.String())
	}
}
