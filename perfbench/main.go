// Command perfbench is the repository's benchmark: four workloads that
// drive the simulator's engines and the live storage system through
// their public calls, check the results, and print end-to-end metrics
// (untraced runs) or per-layer metrics (traced runs). See README.md.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload burst-heatmap --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

// put records a metric; a value that could not be measured (no
// samples) is reported as 0.
func (m metricSet) put(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// outDir receives the traced run's span file, relative to the
	// working directory.
	outDir string
}

// A run makes at least minPasses untraced passes (a traced run at
// least minTracedPasses of each kind), however long they take: a
// pool-split pass takes about 15 s.
const (
	minPasses       = 2
	minTracedPasses = 1
	maxPasses       = 1000
)

func main() {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, 1: per-layer metrics")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "traces"), "directory for traced runs' span files")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if fs.NArg() != 0 || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload NAME --seed N --seconds S (≥1) --trace 0|1 and no other arguments")
		os.Exit(2)
	}
	o.trace = trace == 1
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run and writes its human-readable report
// to log. Errors are returned only where nothing could be measured.
func run(o options, log io.Writer) (*result, error) {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(log, hostLine())
	// The inputs stay live through set-up. live_heap_bytes leaves them
	// out: it is the heap after set-up less what prepare added. The
	// program's package-level heap stays in, as it does for a user;
	// without it burst-heatmap's set-up state, a few hundred bytes,
	// would read as runtime noise.
	baseHeap := liveHeap()
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	inputHeap := liveHeap() - baseHeap
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	// Set-up, repeated for a steady median. The previous repetition's
	// state is dropped and collected first, so each repetition starts
	// from the same heap.
	var setupS []float64
	reps, batch := w.setupReps()
	for i := 0; i < reps; i++ {
		w.dropSetup()
		runtime.GC()
		start := time.Now()
		for j := 0; j < batch; j++ {
			if err := w.setup(tr); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
		}
		setupS = append(setupS, time.Since(start).Seconds()/float64(batch))
	}
	live := liveHeap() - inputHeap
	w.dropSetup()

	res := &result{Metrics: metricSet{}}
	var untraced, traced []passResult
	var profiles [][]byte
	var profile bytes.Buffer
	budget := time.Duration(o.seconds) * time.Second
	if o.trace {
		budget /= 2 // the rest goes to the layer probes
	}
	begin := time.Now()
	for i := 0; i < maxPasses; i++ {
		// Traced runs alternate untraced and traced passes, so the
		// tracing overhead compares passes under the same conditions.
		withTrace := o.trace && i%2 == 1
		enough := len(untraced) >= minPasses
		if o.trace {
			enough = len(untraced) >= minTracedPasses && len(traced) >= minTracedPasses
		}
		if enough && time.Since(begin) >= budget {
			break
		}
		var ptr *tracer
		if withTrace {
			ptr = tr
		}
		if err := w.passSetup(i, ptr); err != nil {
			return nil, fmt.Errorf("pass %d setup: %w", i, err)
		}
		if withTrace {
			profile.Reset()
			if err := pprof.StartCPUProfile(&profile); err != nil {
				return nil, err
			}
		}
		// Each pass starts from a collected heap, so the GC work a pass
		// pays for is its own.
		runtime.GC()
		before := sampleProc()
		p := w.pass(i, ptr)
		p.d = before.to(sampleProc())
		if withTrace {
			pprof.StopCPUProfile()
			profiles = append(profiles, bytes.Clone(profile.Bytes()))
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
		res.Attempted += p.ops
		res.Failed += len(p.fails)
		for _, f := range p.fails {
			fmt.Fprintf(os.Stderr, "perfbench: pass %d: %s\n", i, f)
		}
	}
	if rc, ok := w.(runChecker); ok {
		p := rc.checkRun(append(untraced, traced...))
		res.Attempted += p.ops
		res.Failed += len(p.fails)
		for _, f := range p.fails {
			fmt.Fprintf(os.Stderr, "perfbench: run: %s\n", f)
		}
	}
	steal := stealOver(untraced, traced)
	fmt.Fprintf(log, "passes: %d untraced, %d traced; host steal %.1f%% of CPU time\n",
		len(untraced), len(traced), 100*steal)
	for i, p := range append(untraced, traced...) {
		fmt.Fprintf(log, "pass %d: wall %.4f s, cpu %.4f s, steal %.1f%%, %d GCs\n",
			i, p.d.wall.Seconds(), p.d.cpu.Seconds(), 100*p.d.stealShare(), p.d.gcCycles)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	m := res.Metrics

	if !o.trace {
		var wall, cpu, alloc []float64
		for _, p := range untraced {
			wall = append(wall, p.d.wall.Seconds())
			cpu = append(cpu, p.d.cpu.Seconds())
			alloc = append(alloc, float64(p.d.allocs))
		}
		m.put("setup_s", "s", median(setupS))
		m.put("wall_s", "s", median(wall))
		m.put("cpu_s", "s", median(cpu))
		m.put("alloc_bytes", "bytes", median(alloc))
		m.put("live_heap_bytes", "bytes", live)
		printMetrics(log, m, nil)
		return res, nil
	}

	// Traced run: throughput from its untraced passes, the workload's
	// own layer metrics, then the layer probes.
	w.report(m, untraced)
	var wallU, wallT, cpuU, gcN, gcCPU []float64
	for _, p := range untraced {
		wallU = append(wallU, p.d.wall.Seconds())
		cpuU = append(cpuU, p.d.cpu.Seconds())
		gcN = append(gcN, float64(p.d.gcCycles))
		gcCPU = append(gcCPU, p.d.gcCPU)
	}
	for _, p := range traced {
		wallT = append(wallT, p.d.wall.Seconds())
	}
	m.put("obs.trace_overhead_s", "s", median(wallT)-median(wallU))
	m.put("runctl.cores_busy", "cores", median(cpuU)/median(wallU))
	m.put("runtime.gc_cycles", "count", median(gcN))
	m.put("runtime.gc_cpu_s", "s", median(gcCPU))
	m.put("host.steal_share", "ratio", steal)
	shares, err := cpuShares(profiles)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
	}
	for _, mod := range cpuModules {
		m.put("cpu_share."+mod, "ratio", shares[mod])
	}
	if err := probeLayers(tr, m); err != nil {
		res.Correct = false
		res.Failed++
		res.Attempted++
		fmt.Fprintln(os.Stderr, "perfbench: layer probe:", err)
	}
	m.put("runtime.peak_rss_bytes", "bytes", peakRSS())
	fillMissing(m)
	printMetrics(log, m, tr)
	if err := saveSpans(o, tr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
	}
	return res, nil
}

func stealOver(sets ...[]passResult) float64 {
	var steal, total uint64
	for _, ps := range sets {
		for _, p := range ps {
			steal += p.d.steal
			total += p.d.total
		}
	}
	if total == 0 {
		return 0
	}
	return float64(steal) / float64(total)
}

// fillMissing reports 0 for the per-layer metrics that belong to
// another workload, so every traced run names every per-layer metric.
func fillMissing(m metricSet) {
	for _, d := range perLayerMetrics {
		if _, ok := m[d.name]; !ok {
			m.put(d.name, d.unit, 0)
		}
	}
}

func printMetrics(log io.Writer, m metricSet, tr *tracer) {
	for _, name := range sortedNames(m) {
		v := m[name]
		extra := ""
		if tr != nil {
			if s, ok := tr.samples[name]; ok {
				extra = fmt.Sprintf("  (median of %d)", len(s))
				if _, ok := m[name+".tail"]; ok {
					label, _ := tail(s)
					extra = fmt.Sprintf("  (median of %d; .tail is %s)", len(s), label)
				}
			}
		}
		fmt.Fprintf(log, "%-44s %16.6g %s%s\n", name, v.Value, v.Unit, extra)
	}
	if tr != nil {
		self := selfTimes(tr.spans)
		for _, name := range sortedNames(self) {
			fmt.Fprintf(log, "span self time %-30s %10.4f s over %d spans\n", name, self[name][0], int(self[name][1]))
		}
	}
}

func saveSpans(o options, tr *tracer) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	var buf bytes.Buffer
	if err := writeSpans(&buf, tr.spans); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
