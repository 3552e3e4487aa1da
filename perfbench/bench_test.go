package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"

	"mlec/internal/burst"
	"mlec/internal/cluster"
	"mlec/internal/gf256"
	"mlec/internal/mathx"
	"mlec/internal/poolsim"
	"mlec/internal/syssim"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, nameRE)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q does not match %s", d.name, d.unit, unitRE)
		}
		if seen[d.name] {
			t.Errorf("metric %s defined twice", d.name)
		}
		seen[d.name] = true
	}
	if n := len(perLayerMetrics); n > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", n)
	}
}

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics the
// code reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, code has %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloadNames[i])
		}
	}
	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code has %d", len(b.EndToEnd), len(endToEndMetrics))
	}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		d := endToEndMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end %d: BENCHMARK.json %s/%s/%s, code %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if b.EndToEnd[0].Name != "setup_s" || b.EndToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must come first with the largest bound")
	}
	if len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code has %d", len(b.PerLayer), len(perLayerMetrics))
	}
	for i, m := range b.PerLayer {
		if d := perLayerMetrics[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s/%s, code %s/%s", i, m.Name, m.Unit, d.name, d.unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
}

// TestEveryWorkloadEmitsEndToEnd runs each workload untraced at the
// shortest length and requires every end-to-end metric, non-zero, with
// no failed operation.
func TestEveryWorkloadEmitsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			res, err := run(options{workload: w, seed: 7, seconds: 1}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(endToEndMetrics) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(endToEndMetrics))
			}
			for _, d := range endToEndMetrics {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || !(m.Value > 0) {
					t.Errorf("%s: got %+v (present %v)", d.name, m, ok)
				}
			}
		})
	}
}

// TestTracedRunEmitsPerLayer runs the cheapest workload traced and
// requires exactly the per-layer metrics, and a span file.
func TestTracedRunEmitsPerLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a traced workload")
	}
	dir := t.TempDir()
	res, err := run(options{workload: "object-io", seed: 3, seconds: 1, trace: true, outDir: dir}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced run not correct: %d of %d failed", res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(perLayerMetrics) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(perLayerMetrics))
	}
	for _, d := range perLayerMetrics {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("%s: got %+v (present %v)", d.name, m, ok)
		}
	}
	for _, name := range []string{"write_mb_per_s", "repair_mb_per_s", "cpu_share.gf256", "rs.encode_gbps.local", "syssim.new_s.dd"} {
		if !(res.Metrics[name].Value > 0) {
			t.Errorf("%s = %g, want > 0 on object-io", name, res.Metrics[name].Value)
		}
	}
	if _, err := os.Stat(dir + "/object-io-seed3.jsonl"); err != nil {
		t.Error(err)
	}
}

// Each check accepts a real engine result and rejects a perturbed one.

func TestCheckLocCpCell(t *testing.T) {
	_, lc, err := newBurstEvals()
	if err != nil {
		t.Fatal(err)
	}
	exact, err := burst.ExactLocalCpPDL(lc, 1, 60)
	if err != nil {
		t.Fatal(err)
	}
	r, err := burst.PDL(burst.NewSLECEvaluator(lc), 1, 60, burstTrials, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkLocCpCell(r, exact); err != nil {
		t.Fatalf("real cell rejected: %v", err)
	}
	bad := r
	bad.PDL += 0.1
	bad.PDL = math.Round(bad.PDL*float64(bad.Trials)) / float64(bad.Trials)
	if checkLocCpCell(bad, exact) == nil {
		t.Error("cell 0.1 above its exact PDL accepted")
	}
	if checkLocCpCell(burst.Result{Racks: 5, Failures: 32, PDL: 1.0 / 600, Trials: 600}, 0) == nil {
		t.Error("a hit on an exact-zero cell accepted")
	}
	if checkLocCpCell(burst.Result{Racks: 5, Failures: 32, PDL: 0.5 / 600, Trials: 600}, 0) == nil {
		t.Error("a fractional hit count accepted")
	}
	partial := r
	partial.Partial = true
	if checkLocCpCell(partial, exact) == nil {
		t.Error("partial cell accepted")
	}
}

func TestCheckMLECCell(t *testing.T) {
	evals, _, err := newBurstEvals()
	if err != nil {
		t.Fatal(err)
	}
	r, err := burst.PDL(evals[1].ev, 5, 60, burstTrials, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkMLECCell("mlec_dd", r, paperParams.PN); err != nil {
		t.Fatalf("real cell rejected: %v", err)
	}
	zero, err := burst.PDL(evals[1].ev, 25, 32, burstTrials, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkMLECCell("mlec_dd", zero, paperParams.PN); err != nil {
		t.Fatalf("real exact-zero cell rejected: %v", err)
	}
	zero.PDL = 1e-9
	if checkMLECCell("mlec_dd", zero, paperParams.PN) == nil {
		t.Error("non-zero PDL in the exact-zero region accepted")
	}
	r.PDL = math.NaN()
	if checkMLECCell("mlec_dd", r, paperParams.PN) == nil {
		t.Error("NaN PDL accepted")
	}
}

func TestCheckSplit(t *testing.T) {
	const markov = 9e-14
	type runs = []poolsim.SplitResult
	cp := poolsim.SplitResult{CatRatePerPoolHour: 1.2e-13, CatRateLo: 5e-14, CatRateHi: 1.9e-13}
	// The undershoot a correct engine produced: one level-3 catastrophe.
	low := poolsim.SplitResult{CatRatePerPoolHour: 1.155e-14, CatRateHi: 3.381e-14}
	for name, good := range map[string]runs{
		"consistent":              {cp, cp},
		"observed undershoot":     {low, low},
		"one campaign saw none":   {cp, {}},
		"undershoot and one none": {low, {}},
	} {
		if err := checkClusteredSplit(good, markov); err != nil {
			t.Errorf("%s rejected: %v", name, err)
		}
	}
	for name, bad := range map[string]runs{
		"no campaign":       nil,
		"every rate zero":   {{}, {}},
		"50 times too low":  {{CatRatePerPoolHour: markov / 50, CatRateHi: markov / 25}, {CatRatePerPoolHour: markov / 50}},
		"50 times too high": {{CatRatePerPoolHour: 50 * markov, CatRateLo: 40 * markov, CatRateHi: 60 * markov}, {CatRatePerPoolHour: 50 * markov}},
		"partial":           {cp, {CatRatePerPoolHour: markov, CatRateHi: 2 * markov, Partial: true}},
	} {
		if checkClusteredSplit(bad, markov) == nil {
			t.Errorf("%s accepted", name)
		}
	}
	dp := poolsim.SplitResult{CatRatePerPoolHour: 1e-19, CatRateHi: 1e-18}
	if err := checkFig7Order(dp, markov, 2880, 480); err != nil {
		t.Errorf("Figure 7 order rejected: %v", err)
	}
	dp.CatRatePerPoolHour = markov * 2880 / 480 * 1.01
	if checkFig7Order(dp, markov, 2880, 480) == nil {
		t.Error("declustered system rate above the clustered one accepted")
	}
}

func TestCheckFleetRun(t *testing.T) {
	const disks, rate, years = 57600, 0.01005, 10.0
	good := syssim.Stats{SimYears: years, DiskFailures: 5800}
	if err := checkFleetRun("C/C", good, disks, rate, years); err != nil {
		t.Errorf("expected failure count rejected: %v", err)
	}
	for name, bad := range map[string]syssim.Stats{
		"half the failures": {SimYears: years, DiskFailures: 2900},
		"partial":           {SimYears: years, DiskFailures: 5800, Partial: true},
		"stranded":          {SimYears: years, DiskFailures: 5800, StrandedStripes: 1},
	} {
		if checkFleetRun("C/C", bad, disks, rate, years) == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestCheckObjectIO(t *testing.T) {
	want := []byte("payload")
	if err := checkRead("o", []byte("payload"), want, nil); err != nil {
		t.Error(err)
	}
	if checkRead("o", []byte("paYload"), want, nil) == nil {
		t.Error("flipped byte accepted")
	}
	if checkRead("o", want, want, errors.New("lost")) == nil {
		t.Error("read error accepted")
	}
	if err := checkRepair(4096, nil); err != nil {
		t.Error(err)
	}
	if checkRepair(0, nil) == nil {
		t.Error("repair of nothing accepted")
	}
	if checkRepair(4096, []int{3}) == nil {
		t.Error("catastrophic pool after repair accepted")
	}
	if err := checkScrub(cluster.ScrubReport{LocalStripesChecked: 10}, nil); err != nil {
		t.Error(err)
	}
	if checkScrub(cluster.ScrubReport{LocalParityMismatches: 1}, nil) == nil {
		t.Error("scrub mismatch accepted")
	}
	if checkScrub(cluster.ScrubReport{SkippedDegraded: 1}, nil) == nil {
		t.Error("degraded stripe after repair accepted")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "a", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "b", Start: 1, End: 4},
		{ID: 2, Parent: 0, Name: "b", Start: 5, End: 7},
		{ID: 3, Parent: 2, Name: "c", Start: 5, End: 6},
	}
	got := selfTimes(spans)
	want := map[string][2]float64{"a": {5, 1}, "b": {4, 2}, "c": {1, 1}}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: self %v, want %v", k, got[k], v)
		}
	}
}

func TestMedianAndTail(t *testing.T) {
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g", m)
	}
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if l, x := tail(v); l != "p90" || x != 90 {
		t.Errorf("tail of 1..100 = %s %g, want p90 90", l, x)
	}
	if l, x := tail(v[:5]); l != "max" || x != 5 {
		t.Errorf("tail of 1..5 = %s %g, want max 5", l, x)
	}
}

func TestCoverProb(t *testing.T) {
	// Two racks of three disks, three failures: 18 of the C(6,3) = 20
	// subsets touch both racks.
	if p := coverProb(2, 3, 3); math.Abs(p-0.9) > 1e-12 {
		t.Errorf("coverProb(2,3,3) = %g, want 0.9", p)
	}
	if p := coverProb(1, 40, 960); math.Abs(p-1) > 1e-12 {
		t.Errorf("one rack is always covered, got %g", p)
	}
	// y = x: one failed disk in every rack, dpr^x of C(x·dpr, x) sets.
	want := math.Exp(33*math.Log(960) - mathx.LogChoose(33*960, 33))
	if p := coverProb(33, 33, 960); math.Abs(p-want) > 1e-9*want {
		t.Errorf("coverProb(33,33,960) = %g, want %g", p, want)
	}
	if p := coverProb(3, 2, 960); p != 0 {
		t.Errorf("two failures cannot cover three racks, got %g", p)
	}
}

// TestCPUShares profiles a loop that spends its time in gf256 and
// requires the decoder to charge most of it there.
func TestCPUShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiling unavailable:", err)
	}
	src, dst := make([]byte, 1<<16), make([]byte, 1<<16)
	for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); {
		gf256.MulAddSlice(7, src, dst)
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares([][]byte{buf.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	// Without the race detector gf256 takes nearly all of it; with it,
	// the detector's own code takes most.
	sum := 0.0
	for _, mod := range cpuModules {
		sum += shares[mod]
	}
	for _, mod := range mlecLayers {
		if mod != "gf256" && shares[mod] >= shares["gf256"] {
			t.Errorf("%s share %g not below gf256's %g", mod, shares[mod], shares["gf256"])
		}
	}
	if shares["gf256"] < 0.15 || math.Abs(sum-1) > 1e-9 {
		t.Errorf("gf256 share %g of %g, want the largest layer: %v", shares["gf256"], sum, shares)
	}
}
