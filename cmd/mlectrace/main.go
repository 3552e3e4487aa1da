// Command mlectrace generates, inspects, and replays disk-failure traces
// — the "real traces" input mode of the paper's simulator (§3).
//
// Usage:
//
//	mlectrace gen -disks 120 -years 5 -afr 0.02 > pool.trace
//	mlectrace stats pool.trace
//	mlectrace replay -disks 120 -kl 17 -pl 3 -dp < pool.trace
//
// stats, replay, events and spans read the file named by their one
// optional argument, or stdin without one.
//
// Every subcommand accepts -timeout and handles Ctrl-C: the first
// interrupt stops the replay at the next event boundary and reports the
// span actually covered; a second interrupt exits immediately.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"mlec/internal/failure"
	"mlec/internal/faultinject"
	"mlec/internal/obs"
	"mlec/internal/poolsim"
	"mlec/internal/runctl"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	args := os.Args[2:]
	var err error
	switch cmd {
	case "gen":
		err = cmdGen(args)
	case "stats":
		err = cmdStats(args)
	case "replay":
		err = cmdReplay(args)
	case "events":
		err = cmdEvents(args)
	case "spans":
		err = cmdSpans(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlectrace: %v\n", err)
		if errors.Is(err, errUsage) {
			usage()
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// errUsage marks command-line misuse: main prints the usage text and
// exits 2 rather than 1.
var errUsage = errors.New("usage")

// openInput returns a subcommand's input: the file named by its one
// optional positional argument, or stdin without one. Further arguments
// are rejected rather than silently ignored.
func openInput(fs *flag.FlagSet) (io.ReadCloser, error) {
	switch fs.NArg() {
	case 0:
		return io.NopCloser(os.Stdin), nil
	case 1:
		return os.Open(fs.Arg(0))
	}
	return nil, fmt.Errorf("%w: %s takes at most one input file, got %q", errUsage, fs.Name(), fs.Args())
}

func usage() {
	fmt.Fprintln(os.Stderr, `mlectrace — disk-failure trace tooling

usage:
  mlectrace gen -disks N -years Y [-afr F] [-weibull-shape K] [-seed S]   write a trace to stdout
  mlectrace stats [FILE]                                                   summarize a trace
  mlectrace replay -disks N [-kl K -pl P] [-dp] [-seed S] [FILE]           replay a trace through a pool simulation
  mlectrace events [-kind K] [FILE]                                        summarize a -trace-out JSONL event trace
  mlectrace spans [FILE]                                                   render a -span-out JSONL wall-clock span file

FILE defaults to stdin.`)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	disks := fs.Int("disks", 120, "number of disks")
	years := fs.Float64("years", 5, "trace length in years")
	afr := fs.Float64("afr", 0.01, "annual failure rate (exponential)")
	shape := fs.Float64("weibull-shape", 0, "use Weibull TTF with this shape instead of exponential")
	scale := fs.Float64("weibull-scale", 8760*50, "Weibull scale in hours")
	seed := fs.Int64("seed", 1, "RNG seed")
	timeout := fs.Duration("timeout", 0, "wall-clock budget (0 = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("%w: gen takes no arguments, got %q", errUsage, fs.Args())
	}
	ctx, stop := runctl.CLIContext(*timeout)
	defer stop()
	if err := ctx.Err(); err != nil {
		return err
	}
	var ttf failure.TTFDistribution
	if *shape > 0 {
		ttf = failure.Weibull{Shape: *shape, ScaleHours: *scale}
	} else {
		d, err := failure.NewExponentialAFR(*afr)
		if err != nil {
			return err
		}
		ttf = d
	}
	tr := failure.GenerateTrace(*disks, *years, ttf, *seed)
	fmt.Printf("# mlectrace: disks=%d years=%g events=%d\n", *disks, *years, len(tr.Events))
	_, err := tr.WriteTo(os.Stdout)
	return err
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	timeout := fs.Duration("timeout", 0, "wall-clock budget (0 = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	in, err := openInput(fs)
	if err != nil {
		return err
	}
	defer in.Close()
	ctx, stop := runctl.CLIContext(*timeout)
	defer stop()
	tr, err := failure.ParseTrace(in)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(tr.Events) == 0 {
		fmt.Println("empty trace")
		return nil
	}
	maxDisk, last := 0, 0.0
	perDisk := map[int]int{}
	for _, e := range tr.Events {
		if e.Disk > maxDisk {
			maxDisk = e.Disk
		}
		if e.TimeHours > last {
			last = e.TimeHours
		}
		perDisk[e.Disk]++
	}
	repeat := 0
	for _, c := range perDisk {
		if c > 1 {
			repeat++
		}
	}
	span := last / failure.HoursPerYear
	fmt.Printf("events:            %d\n", len(tr.Events))
	fmt.Printf("distinct disks:    %d (max id %d)\n", len(perDisk), maxDisk)
	fmt.Printf("disks failing >1×: %d\n", repeat)
	fmt.Printf("span:              %.2f years\n", span)
	if span > 0 {
		fmt.Printf("implied AFR:       %.2f%% (assuming %d disks)\n",
			100*float64(len(tr.Events))/(float64(maxDisk+1)*span), maxDisk+1)
	}
	return nil
}

// cmdEvents summarizes a simulated-time observability trace (the JSONL
// file a -trace-out run writes): per-kind event counts, the simulated
// span covered, and repair traffic broken down by method.
func cmdEvents(args []string) error {
	fs := flag.NewFlagSet("events", flag.ExitOnError)
	kind := fs.String("kind", "", "print raw events of this kind instead of the summary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	in, err := openInput(fs)
	if err != nil {
		return err
	}
	defer in.Close()
	evs, err := obs.ParseTraceEvents(in)
	if err != nil {
		return err
	}
	if *kind != "" {
		for _, ev := range evs {
			if ev.Kind != *kind {
				continue
			}
			fmt.Printf("seq=%d t=%.3fh pool=%d disk=%d level=%d method=%s bytes=%g %s\n",
				ev.Seq, ev.T, ev.Pool, ev.Disk, ev.Level, ev.Method, ev.Bytes, ev.Note)
		}
		return nil
	}
	writeEventSummary(os.Stdout, evs)
	return nil
}

// writeEventSummary renders the per-kind counts (with each kind's
// description from the obs event registry), the simulated span covered,
// and repair traffic by method.
func writeEventSummary(w io.Writer, evs []obs.TraceEvent) {
	counts := make(map[string]int)
	repairBytes := make(map[string]float64)
	span := 0.0
	for _, ev := range evs {
		counts[ev.Kind]++
		if ev.Kind == obs.EvRepairEnd {
			repairBytes[ev.Method] += ev.Bytes
		}
		if ev.T > span {
			span = ev.T
		}
	}
	describe := obs.KnownEventKinds()
	fmt.Fprintf(w, "events:         %d\n", len(evs))
	fmt.Fprintf(w, "simulated span: %.2f years\n", span/failure.HoursPerYear)
	for _, kv := range obs.SortedSnapshot(counts) {
		fmt.Fprintf(w, "  %-20s %6d  %s\n", kv.Key, kv.Value, describe[kv.Key])
	}
	if len(repairBytes) > 0 {
		fmt.Fprintln(w, "repair traffic by method:")
		for _, kv := range obs.SortedSnapshot(repairBytes) {
			fmt.Fprintf(w, "  %-8s %.3g bytes\n", kv.Key, kv.Value)
		}
	}
}

// cmdSpans renders a wall-clock span file (the JSONL a -span-out run
// writes): the causal span tree, a per-phase wall-time rollup, and the
// critical path — the chain of longest spans from the longest root down
// to a leaf, the first place to look when deciding what to optimize.
func cmdSpans(args []string) error {
	fs := flag.NewFlagSet("spans", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	in, err := openInput(fs)
	if err != nil {
		return err
	}
	defer in.Close()
	recs, err := obs.ParseSpans(in)
	if err != nil {
		return err
	}
	writeSpanReport(os.Stdout, recs)
	return nil
}

func writeSpanReport(w io.Writer, recs []obs.SpanRecord) {
	if len(recs) == 0 {
		fmt.Fprintln(w, "no spans")
		return
	}
	byID := make(map[uint64]obs.SpanRecord, len(recs))
	children := make(map[uint64][]obs.SpanRecord)
	var roots []obs.SpanRecord
	for _, r := range recs {
		byID[r.ID] = r
	}
	for _, r := range recs {
		if _, ok := byID[r.Parent]; r.Parent != 0 && ok {
			children[r.Parent] = append(children[r.Parent], r)
		} else {
			// True roots, plus orphans whose parent never ended (an
			// unended span writes no record).
			roots = append(roots, r)
		}
	}
	byBegin := func(s []obs.SpanRecord) {
		sort.Slice(s, func(i, j int) bool {
			if s[i].BeginMS < s[j].BeginMS {
				return true
			}
			if s[i].BeginMS > s[j].BeginMS {
				return false
			}
			return s[i].ID < s[j].ID
		})
	}
	byBegin(roots)
	for _, c := range children {
		byBegin(c)
	}

	fmt.Fprintf(w, "spans: %d\n", len(recs))
	fmt.Fprintln(w, "span tree:")
	var walk func(r obs.SpanRecord, depth int)
	walk = func(r obs.SpanRecord, depth int) {
		note := ""
		if r.Note != "" {
			note = "  " + r.Note
		}
		fmt.Fprintf(w, "  %s%s %s%s\n", strings.Repeat("  ", depth), r.Name, formatMS(r.Dur()), note)
		for _, c := range children[r.ID] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}

	type rollup struct {
		count int
		total float64
		max   float64
	}
	byName := make(map[string]rollup)
	for _, r := range recs {
		ru := byName[r.Name]
		ru.count++
		ru.total += r.Dur()
		if r.Dur() > ru.max {
			ru.max = r.Dur()
		}
		byName[r.Name] = ru
	}
	fmt.Fprintln(w, "wall time by phase:")
	for _, kv := range obs.SortedSnapshot(byName) {
		ru := kv.Value
		fmt.Fprintf(w, "  %-28s n=%-6d total %s  max %s\n", kv.Key, ru.count, formatMS(ru.total), formatMS(ru.max))
	}

	// Critical path: from the longest root, repeatedly descend into the
	// longest child. Concurrent siblings overlap in wall time, so this
	// chain is the one whose spans bound the run's duration.
	longest := roots[0]
	for _, r := range roots[1:] {
		if r.Dur() > longest.Dur() {
			longest = r
		}
	}
	fmt.Fprintln(w, "critical path:")
	for cur, depth := longest, 0; ; depth++ {
		fmt.Fprintf(w, "  %s%s %s\n", strings.Repeat("  ", depth), cur.Name, formatMS(cur.Dur()))
		kids := children[cur.ID]
		if len(kids) == 0 {
			break
		}
		next := kids[0]
		for _, c := range kids[1:] {
			if c.Dur() > next.Dur() {
				next = c
			}
		}
		cur = next
	}
}

// formatMS renders a millisecond duration compactly.
func formatMS(ms float64) string {
	switch {
	case ms >= 60_000:
		return fmt.Sprintf("%.1fmin", ms/60_000)
	case ms >= 1000:
		return fmt.Sprintf("%.2fs", ms/1000)
	}
	return fmt.Sprintf("%.1fms", ms)
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	disks := fs.Int("disks", 120, "pool size")
	kl := fs.Int("kl", 17, "local data chunks")
	pl := fs.Int("pl", 3, "local parity chunks")
	dp := fs.Bool("dp", true, "declustered pool (false: clustered, disks must equal kl+pl)")
	segments := fs.Int("segments", 120, "simulated chunks per disk")
	seed := fs.Int64("seed", 1, "layout seed")
	timeout := fs.Duration("timeout", 0, "wall-clock budget (0 = none); partial replay on expiry")
	chaosFlags := faultinject.BindCLIFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *disks <= 0 || *kl <= 0 || *pl <= 0 {
		return fmt.Errorf("replay: -disks, -kl, and -pl must be positive (got %d, %d, %d)", *disks, *kl, *pl)
	}
	in, err := openInput(fs)
	if err != nil {
		return err
	}
	defer in.Close()
	stopChaos, err := chaosFlags.Activate(os.Stderr)
	if err != nil {
		return err
	}
	defer stopChaos()
	ctx, stop := runctl.CLIContext(*timeout)
	defer stop()
	tr, err := failure.ParseTrace(in)
	if err != nil {
		return err
	}
	cfg := poolsim.Config{
		Disks: *disks, Width: *kl + *pl, Parity: *pl, Clustered: !*dp,
		SegmentsPerDisk:   *segments,
		DiskCapacityBytes: 20e12, DiskRepairBW: 40e6,
		DetectionDelayHours: failure.DefaultDetectionDelayHours,
	}
	stats, err := poolsim.ReplayTraceContext(ctx, cfg, tr, 0, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("replayed %.2f pool-years: %d failures applied, %d catastrophic pool events\n",
		stats.SimYears, stats.DiskFailures, stats.CatastrophicCount)
	if stats.Partial {
		fmt.Println("PARTIAL: replay interrupted; statistics cover only the span above.")
	}
	for i, smp := range stats.Samples {
		fmt.Printf("  catastrophe %d at %.1f h: %d failed disks, %d lost stripes\n",
			i+1, smp.TimeHours, smp.FailedDisks, smp.LostStripes)
	}
	return nil
}
