package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mlec/internal/obs"
)

// TestMain lets a test re-execute this binary as mlectrace itself: with
// MLECTRACE_AS_MAIN=1 set, the process runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("MLECTRACE_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs mlectrace with args and stdin, returning stdout, stderr
// and the exit code.
func runMain(t *testing.T, stdin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MLECTRACE_AS_MAIN=1")
	cmd.Stdin = strings.NewReader(stdin)
	var out, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errb.String(), code
}

// TestInputFileArgument: the reading subcommands take their input from
// one optional file argument, fall back to stdin without one, and reject
// extra arguments with exit 2 and the usage text.
func TestInputFileArgument(t *testing.T) {
	dir := t.TempDir()
	spans := filepath.Join(dir, "run.jsonl")
	const spanFile = `{"id":1,"name":"campaign","begin_ms":0,"end_ms":100}
{"id":2,"parent":1,"name":"level","begin_ms":5,"end_ms":60}
`
	events := filepath.Join(dir, "trace.jsonl")
	const eventFile = `{"seq":1,"t":3.5,"kind":"failure","pool":0,"disk":4}
`
	trace := filepath.Join(dir, "pool.trace")
	const traceFile = "3,10\n5,20\n"
	for path, body := range map[string]string{spans: spanFile, events: eventFile, trace: traceFile} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		cmd, path, body, want string
	}{
		{"spans", spans, spanFile, "spans: 2"},
		{"events", events, eventFile, "events:         1"},
		{"stats", trace, traceFile, "events:            2"},
		{"replay", trace, traceFile, "2 failures applied"},
	} {
		t.Run(tc.cmd, func(t *testing.T) {
			fromFile, stderr, code := runMain(t, "", tc.cmd, tc.path)
			if code != 0 || !strings.Contains(fromFile, tc.want) {
				t.Fatalf("%s FILE: exit %d, stdout %q, stderr %q; want %q", tc.cmd, code, fromFile, stderr, tc.want)
			}
			fromStdin, _, code := runMain(t, tc.body, tc.cmd)
			if code != 0 || fromStdin != fromFile {
				t.Fatalf("%s < FILE: exit %d, stdout %q; want the file output %q", tc.cmd, code, fromStdin, fromFile)
			}
			_, stderr, code = runMain(t, "", tc.cmd, tc.path, tc.path)
			if code != 2 || !strings.Contains(stderr, "at most one input file") || !strings.Contains(stderr, "usage:") {
				t.Fatalf("%s FILE FILE: exit %d, stderr %q; want exit 2 with usage", tc.cmd, code, stderr)
			}
		})
	}

	if _, stderr, code := runMain(t, "", "spans", filepath.Join(dir, "missing.jsonl")); code != 1 || !strings.Contains(stderr, "missing.jsonl") {
		t.Errorf("spans on a missing file: exit %d, stderr %q; want exit 1 naming the file", code, stderr)
	}
	if _, stderr, code := runMain(t, "", "gen", "extra"); code != 2 || !strings.Contains(stderr, "usage:") {
		t.Errorf("gen with an argument: exit %d, stderr %q; want exit 2 with usage", code, stderr)
	}
}

// TestEventSummaryKnowsEveryKind is the table test ISSUE 10 asks for:
// one event of every kind the tree emits, summarized, and each kind
// must surface with its description — no kind may fall through as
// unexplained.
func TestEventSummaryKnowsEveryKind(t *testing.T) {
	kinds := obs.KnownEventKinds()
	if len(kinds) == 0 {
		t.Fatal("obs reports no known event kinds")
	}
	var evs []obs.TraceEvent
	seq := uint64(0)
	for _, kv := range obs.SortedSnapshot(kinds) {
		seq++
		evs = append(evs, obs.TraceEvent{Seq: seq, T: float64(seq), Kind: kv.Key, Method: "R_ALL", Bytes: 10})
	}
	var out strings.Builder
	writeEventSummary(&out, evs)
	got := out.String()
	for kind, desc := range kinds {
		t.Run(kind, func(t *testing.T) {
			if !strings.Contains(got, kind) {
				t.Fatalf("summary omits kind %q:\n%s", kind, got)
			}
			if desc == "" {
				t.Fatalf("kind %q has no description", kind)
			}
			if !strings.Contains(got, desc) {
				t.Fatalf("summary lacks description %q for kind %q:\n%s", desc, kind, got)
			}
		})
	}
	// The post-PR5 kinds specifically — the ones summaries used to lump
	// as unknown.
	for _, kind := range []string{
		obs.EvFaultInjected, obs.EvStreamRetry, obs.EvCheckpointFallback, obs.EvStall, obs.EvLevelPromotion,
	} {
		if _, ok := kinds[kind]; !ok {
			t.Errorf("KnownEventKinds lacks %q", kind)
		}
	}
	if strings.Contains(got, "repair traffic by method:") != true {
		t.Errorf("repair traffic section missing:\n%s", got)
	}
}

func TestWriteSpanReport(t *testing.T) {
	recs := []obs.SpanRecord{
		{ID: 1, Name: "campaign", BeginMS: 0, EndMS: 100},
		{ID: 2, Parent: 1, Name: "level", BeginMS: 5, EndMS: 60, Note: "level 1"},
		{ID: 3, Parent: 1, Name: "level", BeginMS: 60, EndMS: 95},
		{ID: 4, Parent: 2, Name: "stream", BeginMS: 6, EndMS: 50},
		{ID: 5, Parent: 9, Name: "orphan", BeginMS: 1, EndMS: 2}, // parent never ended
	}
	var out strings.Builder
	writeSpanReport(&out, recs)
	got := out.String()
	for _, want := range []string{
		"spans: 5",
		"span tree:",
		"campaign",
		"level",
		"stream",
		"orphan", // orphans surface as roots, never vanish
		"wall time by phase:",
		"critical path:",
		"level 1", // notes render in the tree
	} {
		if !strings.Contains(got, want) {
			t.Errorf("span report lacks %q:\n%s", want, got)
		}
	}
	// Rollup aggregates the two "level" spans: 55ms + 35ms = 90ms.
	if !strings.Contains(got, "n=2") {
		t.Errorf("rollup does not aggregate repeated phase names:\n%s", got)
	}
	// Critical path descends campaign -> longest level (55ms) -> stream.
	idx := strings.Index(got, "critical path:")
	tail := got[idx:]
	for _, name := range []string{"campaign", "level", "stream"} {
		j := strings.Index(tail, name)
		if j < 0 {
			t.Fatalf("critical path lacks %s:\n%s", name, tail)
		}
		tail = tail[j+len(name):]
	}
}

func TestWriteSpanReportEmpty(t *testing.T) {
	var out strings.Builder
	writeSpanReport(&out, nil)
	if !strings.Contains(out.String(), "no spans") {
		t.Fatalf("empty report = %q", out.String())
	}
}
