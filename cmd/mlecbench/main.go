// Command mlecbench runs the codec kernel micro-benchmarks through
// testing.Benchmark and writes the results as a committed JSON
// baseline (BENCH_gf256.json at the repository root).
//
// The file exists so that "the kernels are allocation-free" is a
// recorded, diffable fact rather than a claim: each run captures GB/s
// and allocs/op for the gf256 primitives and the Reed-Solomon
// encode/reconstruct paths, and a sweep that accidentally introduces
// an allocation shows up as a nonzero allocs/op in the diff, next to
// the throughput it cost.
//
// Usage:
//
//	mlecbench -label pre-sweep -out BENCH_gf256.json
//	mlecbench -label post-sweep -out BENCH_gf256.json -append
//	mlecbench -label ci -out bench-ci.json -against BENCH_gf256.json
//
// -append keeps earlier runs in the file so before/after pairs stay
// side by side in one document. -label is mandatory and must not repeat
// a label already in the file: every committed run names one measured
// tree state. Each run records the Go version, GOARCH/GOAMD64 level and
// CPU model, because GB/s numbers are only comparable within a machine.
// -against compares the fresh run to the last run of a committed
// baseline and warns (never fails) on kernels that lost more than
// -warn-frac of their throughput.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"mlec/internal/gf256"
	"mlec/internal/rs"
)

const shardBytes = 128 << 10

type benchResult struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	GBPerSec    float64 `json:"gb_per_sec"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"alloced_bytes_per_op"`
}

type benchRun struct {
	Label     string        `json:"label"`
	GoVersion string        `json:"go_version"`
	GOARCH    string        `json:"goarch"`
	GOAMD64   string        `json:"goamd64,omitempty"`
	CPUModel  string        `json:"cpu_model,omitempty"`
	Results   []benchResult `json:"results"`
}

type benchFile struct {
	Schema string     `json:"schema"`
	Runs   []benchRun `json:"runs"`
}

func main() {
	out := flag.String("out", "BENCH_gf256.json", "output JSON file")
	label := flag.String("label", "", "label for this run (e.g. pre-sweep, post-sweep); required")
	appendRun := flag.Bool("append", false, "append to the runs already in the output file")
	against := flag.String("against", "", "baseline JSON file: warn when GB/s drops more than -warn-frac below its last run")
	warnFrac := flag.Float64("warn-frac", 0.20, "fractional GB/s drop vs -against that triggers a warning")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "mlecbench: unexpected argument %q; every option is a flag\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	// A throughput number without a label is unusable in a diff: every
	// committed run must say what state of the tree it measured.
	if *label == "" {
		fmt.Fprintln(os.Stderr, "mlecbench: -label is required (e.g. -label post-sweep)")
		os.Exit(2)
	}

	// Load the existing document (and refuse a duplicate label) before
	// spending minutes on the benchmarks themselves.
	doc := benchFile{Schema: "mlec-kernel-bench/v1"}
	if *appendRun {
		if data, err := os.ReadFile(*out); err == nil {
			if err := json.Unmarshal(data, &doc); err != nil {
				fmt.Fprintf(os.Stderr, "mlecbench: %s: %v\n", *out, err)
				os.Exit(1)
			}
		}
		doc.Schema = "mlec-kernel-bench/v1"
	}
	for _, prev := range doc.Runs {
		if prev.Label == *label {
			fmt.Fprintf(os.Stderr,
				"mlecbench: %s already has a %q run; a label names one measured tree state — pick a new label or drop the old run first\n",
				*out, *label)
			os.Exit(2)
		}
	}

	run := benchRun{
		Label:     *label,
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		GOAMD64:   goamd64(),
		CPUModel:  cpuModel(),
	}
	for _, bm := range kernelBenchmarks() {
		r := testing.Benchmark(bm.fn)
		gbps := 0.0
		if r.Bytes > 0 && r.T > 0 {
			gbps = float64(r.Bytes) * float64(r.N) / r.T.Seconds() / 1e9
		}
		res := benchResult{
			Name:        bm.name,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			GBPerSec:    gbps,
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		run.Results = append(run.Results, res)
		fmt.Printf("%-24s %12d ops  %10.1f ns/op  %7.2f GB/s  %4d allocs/op\n",
			bm.name, r.N, res.NsPerOp, res.GBPerSec, res.AllocsPerOp)
	}

	if *against != "" {
		warnRegressions(run, *against, *warnFrac)
	}

	doc.Runs = append(doc.Runs, run)

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlecbench:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "mlecbench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d runs)\n", *out, len(doc.Runs))
}

// warnRegressions compares the fresh run against the last run in the
// committed baseline file and prints a warning per kernel whose GB/s
// fell more than frac below it. Warnings only: shared CI runners are
// noisy enough that a hard gate would flake, but a >20% drop deserves a
// line in the log next to the numbers.
func warnRegressions(run benchRun, path string, frac float64) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlecbench: -against %s: %v\n", path, err)
		return
	}
	var base benchFile
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "mlecbench: -against %s: %v\n", path, err)
		return
	}
	if len(base.Runs) == 0 {
		fmt.Fprintf(os.Stderr, "mlecbench: -against %s: no runs to compare with\n", path)
		return
	}
	ref := base.Runs[len(base.Runs)-1]
	refBy := make(map[string]benchResult, len(ref.Results))
	for _, r := range ref.Results {
		refBy[r.Name] = r
	}
	warned := 0
	for _, r := range run.Results {
		b, ok := refBy[r.Name]
		if !ok || b.GBPerSec <= 0 {
			continue
		}
		if r.GBPerSec < b.GBPerSec*(1-frac) {
			fmt.Fprintf(os.Stderr,
				"mlecbench: WARNING: %s at %.2f GB/s is %.0f%% below the %q baseline of %.2f GB/s\n",
				r.Name, r.GBPerSec, (1-r.GBPerSec/b.GBPerSec)*100, ref.Label, b.GBPerSec)
			warned++
		}
	}
	if warned == 0 {
		fmt.Fprintf(os.Stderr, "mlecbench: all kernels within %.0f%% of the %q baseline in %s\n",
			frac*100, ref.Label, path)
	}
}

// goamd64 reports the microarchitecture level the binary was built for;
// the compiler bakes it in at build time, so the environment value (or
// the v1 default) is the provenance that matters for comparing runs.
func goamd64() string {
	if runtime.GOARCH != "amd64" {
		return ""
	}
	if v := os.Getenv("GOAMD64"); v != "" {
		return v
	}
	return "v1"
}

// cpuModel extracts the processor model from /proc/cpuinfo; GB/s
// numbers are not comparable across CPUs, so each run records the one
// it ran on. Returns "" where the file or field is unavailable.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok &&
			strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return ""
}

type namedBench struct {
	name string
	fn   func(b *testing.B)
}

// kernelBenchmarks mirrors the hot-path micro-benchmarks of
// bench_test.go: same shard size, same fixed seeds, so `go test
// -bench` and the committed baseline measure the same work.
func kernelBenchmarks() []namedBench {
	return []namedBench{
		{"gf256.MulSlice", func(b *testing.B) {
			src, dst := randSlice(1), make([]byte, shardBytes)
			b.SetBytes(shardBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gf256.MulSlice(0x1d, src, dst)
			}
		}},
		{"gf256.MulAddSlice", func(b *testing.B) {
			src, dst := randSlice(1), make([]byte, shardBytes)
			b.SetBytes(shardBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gf256.MulAddSlice(0x1d, src, dst)
			}
		}},
		{"gf256.XorSlice", func(b *testing.B) {
			src, dst := randSlice(1), make([]byte, shardBytes)
			b.SetBytes(shardBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gf256.XorSlice(src, dst)
			}
		}},
		{"rs.Encode_10_2", rsEncodeBench(10, 2)},
		{"rs.Encode_17_3", rsEncodeBench(17, 3)},
		{"rs.Encode_28_12", rsEncodeBench(28, 12)},
		{"rs.Reconstruct_17_3", func(b *testing.B) {
			codec := rs.MustNew(17, 3)
			ref := make([][]byte, 20)
			rng := rand.New(rand.NewSource(3))
			for i := range ref {
				ref[i] = make([]byte, shardBytes)
				if i < 17 {
					rng.Read(ref[i])
				}
			}
			if err := codec.Encode(ref); err != nil {
				b.Fatal(err)
			}
			shards := make([][]byte, 20)
			b.SetBytes(3 * shardBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(shards, ref)
				shards[0], shards[7], shards[19] = nil, nil, nil
				if err := codec.Reconstruct(shards); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

func rsEncodeBench(k, p int) func(b *testing.B) {
	return func(b *testing.B) {
		codec := rs.MustNew(k, p)
		shards := make([][]byte, k+p)
		rng := rand.New(rand.NewSource(2))
		for i := range shards {
			shards[i] = make([]byte, shardBytes)
			if i < k {
				rng.Read(shards[i])
			}
		}
		b.SetBytes(int64(k) * shardBytes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := codec.Encode(shards); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func randSlice(seed int64) []byte {
	s := make([]byte, shardBytes)
	rand.New(rand.NewSource(seed)).Read(s)
	return s
}
