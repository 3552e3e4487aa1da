package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"mlec"
	"mlec/internal/burst"
	"mlec/internal/failure"
	"mlec/internal/markov"
	"mlec/internal/mathx/rngsplit"
	"mlec/internal/obs"
	"mlec/internal/placement"
	"mlec/internal/poolsim"
	"mlec/internal/syssim"
	"mlec/internal/topology"
)

// A workload is set up, then run pass after pass. A pass is a fixed
// amount of work whose inputs depend only on the seed and the pass
// index, so its cost does not depend on the seed: that keeps
// seed-to-seed spread down to the machine's own noise.
type workload interface {
	// prepare builds inputs and exact references. It is not timed.
	prepare() error
	// setup builds what the engines need before the measured phase
	// (layouts, evaluators, pools, systems). It is timed and repeated;
	// the state of the last call stays live for the live-heap reading.
	setup(tr *tracer) error
	// setupReps is how many timings the setup_s median is over, and how
	// many setup calls each timing averages: a set-up of microseconds is
	// timed in batches so that one timing is not mostly clock noise.
	setupReps() (reps, batch int)
	// dropSetup releases set-up state: before each set-up repetition,
	// and before the passes, which do not use it.
	dropSetup()
	// passSetup prepares pass i outside its measured time.
	passSetup(i int, tr *tracer) error
	// pass runs pass i. tr is nil in untraced passes.
	pass(i int, tr *tracer) passResult
	// report adds the workload's own per-layer metrics from its passes.
	report(m metricSet, passes []passResult)
}

// runChecker is a workload with checks over all of a run's passes.
type runChecker interface {
	checkRun(passes []passResult) passResult
}

// passResult is what one pass did. The harness fills d.
type passResult struct {
	d      delta
	ops    int
	fails  []string
	work   float64 // trials, trajectories or disk-years; object-io counts bytes per phase
	phases map[string]phase
	events int64 // syssim events (fleet-sim)
	split  [2]poolsim.SplitResult
}

type phase struct{ bytes, seconds float64 }

func (p *passResult) check(err error) {
	p.ops++
	if err != nil {
		p.fails = append(p.fails, err.Error())
	}
}

func passSeed(seed int64, i int) int64 { return rngsplit.Mix(seed, i) }

var (
	paperTopo   = topology.Default()
	paperParams = placement.DefaultParams()
)

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "burst-heatmap":
		return &burstWL{seed: seed}, nil
	case "pool-split":
		return &splitWL{seed: seed}, nil
	case "fleet-sim":
		return &fleetWL{seed: seed}, nil
	case "object-io":
		return &objectWL{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

var workloadNames = []string{"burst-heatmap", "pool-split", "fleet-sim", "object-io"}

// ---- burst-heatmap ----

// The burst grid is a fixed subset of the fig5/fig13 axes (x odd from
// 1 to 59, y from 4 to 60 by 4) at the figures' 600 trials per cell.
// x ≤ 10 is the low band, where per-cell overhead shows; x ≥ 20 is the
// high band, where rejection sampling and its fallback dominate. The
// product holds cells in F#3's exact-zero region (x ≤ pn, y ≤ x+8) and
// one undefined cell (y < x) that the engine skips.
var (
	burstXs     = []int{1, 5, 9, 25, 33}
	burstYs     = []int{32, 60}
	burstTrials = 600
)

type burstEval struct {
	name string // metric suffix
	ev   burst.Evaluator
}

type burstWL struct {
	seed  int64
	evals []burstEval
	exact map[[2]int]float64 // Loc-Cp exact PDL per (x, y)
}

// newBurstEvals builds the three evaluators the workload runs: MLEC C/C
// and D/D, and SLEC Loc-Cp (7+3).
func newBurstEvals() ([]burstEval, *placement.SLECLayout, error) {
	cc, err := placement.NewLayout(paperTopo, paperParams, placement.SchemeCC)
	if err != nil {
		return nil, nil, err
	}
	dd, err := placement.NewLayout(paperTopo, paperParams, placement.SchemeDD)
	if err != nil {
		return nil, nil, err
	}
	lc, err := placement.NewSLECLayout(paperTopo, placement.SLECParams{K: 7, P: 3}, placement.LocalCp)
	if err != nil {
		return nil, nil, err
	}
	return []burstEval{
		{"mlec_cc", burst.NewMLECEvaluator(cc)},
		{"mlec_dd", burst.NewMLECEvaluator(dd)},
		{"slec_loc_cp", burst.NewSLECEvaluator(lc)},
	}, lc, nil
}

func (w *burstWL) prepare() error {
	_, lc, err := newBurstEvals()
	if err != nil {
		return err
	}
	w.exact = map[[2]int]float64{}
	for _, y := range burstYs {
		for _, x := range burstXs {
			if y < x {
				continue
			}
			p, err := burst.ExactLocalCpPDL(lc, x, y)
			if err != nil {
				return err
			}
			w.exact[[2]int{x, y}] = p
		}
	}
	return nil
}

func (w *burstWL) setup(tr *tracer) error {
	id := tr.begin("burst.setup")
	defer tr.end(id)
	var err error
	w.evals, _, err = newBurstEvals()
	return err
}

func (w *burstWL) setupReps() (int, int) { return 21, 1000 }
func (w *burstWL) dropSetup()            {}

func (w *burstWL) passSetup(int, *tracer) error { return nil }

func (w *burstWL) pass(i int, tr *tracer) passResult {
	var p passResult
	ctx := context.Background()
	seed := passSeed(w.seed, i)
	for _, e := range w.evals {
		var g *burst.Grid
		var err error
		tr.call("burst.HeatmapContext", func() {
			g, err = burst.HeatmapContext(ctx, e.ev, burstXs, burstYs, burstTrials, seed, "")
		})
		if err != nil {
			p.check(fmt.Errorf("%s heatmap: %w", e.name, err))
			continue
		}
		for iy, y := range burstYs {
			for ix, x := range burstXs {
				if y < x {
					continue
				}
				r := g.Cells[iy][ix]
				p.work += float64(r.Trials)
				if e.name == "slec_loc_cp" {
					p.check(checkLocCpCell(r, w.exact[[2]int{x, y}]))
				} else {
					p.check(checkMLECCell(e.name, r, paperParams.PN))
				}
			}
		}
	}
	return p
}

func (w *burstWL) report(m metricSet, passes []passResult) {
	putThroughput(m, "trials_per_s", "trials/s", passes)
}

// ---- pool-split ----

// Stage-1 geometry of fig7/fig10: a 20-disk clustered pool at 100
// segments per disk and a 120-disk declustered pool at 240 segments per
// disk, at 1% AFR, each at the figures' 20,000 trajectories per level.
// A pass is one fig7 stage-1 computation. Fewer trajectories widen the
// estimates' spread: at 2,000 a single catastrophic declustered
// trajectory can lift the declustered system rate above the clustered
// one.
const (
	splitAFR  = 0.01
	splitTraj = 20000
)

type splitWL struct {
	seed             int64
	cp, dp           poolsim.Config
	ttf              failure.Exponential
	markovRate       float64
	cpPools, dpPools int
	pools            [2]*poolsim.Pool // set-up state, held for live_heap_bytes
}

func splitConfigs() (cp, dp poolsim.Config) {
	base := poolsim.Config{
		Width: paperParams.LocalWidth(), Parity: paperParams.PL,
		DiskCapacityBytes:   paperTopo.DiskCapacityBytes,
		DiskRepairBW:        paperTopo.DiskRepairBandwidth(),
		DetectionDelayHours: failure.DefaultDetectionDelayHours,
	}
	cp, dp = base, base
	cp.Disks, cp.Clustered, cp.SegmentsPerDisk = paperParams.LocalWidth(), true, 100
	dp.Disks, dp.SegmentsPerDisk = paperTopo.DisksPerEnclosure, 240
	return cp, dp
}

func (w *splitWL) prepare() error {
	w.cp, w.dp = splitConfigs()
	var err error
	if w.ttf, err = failure.NewExponentialAFR(splitAFR); err != nil {
		return err
	}
	cc, err := placement.NewLayout(paperTopo, paperParams, placement.SchemeCC)
	if err != nil {
		return err
	}
	cd, err := placement.NewLayout(paperTopo, paperParams, placement.SchemeCD)
	if err != nil {
		return err
	}
	w.cpPools, w.dpPools = cc.TotalLocalPools(), cd.TotalLocalPools()
	w.markovRate, err = markov.MLECRAllModel{Layout: cc, LambdaPerHour: w.ttf.RatePerHour}.CatRatePerPoolHour()
	return err
}

// setup builds the two pools SplitContext builds for itself; the
// campaign's set-up is this and nothing else.
func (w *splitWL) setup(tr *tracer) error {
	for i, c := range []poolsim.Config{w.cp, w.dp} {
		var err error
		tr.call("poolsim.NewPool", func() { w.pools[i], err = poolsim.NewPool(c, w.seed) })
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *splitWL) setupReps() (int, int) { return 31, 1 }
func (w *splitWL) dropSetup()            {}

func (w *splitWL) passSetup(int, *tracer) error { return nil }

func (w *splitWL) pass(i int, tr *tracer) passResult {
	var p passResult
	ctx := context.Background()
	seed := passSeed(w.seed, i)
	for k, c := range []poolsim.Config{w.cp, w.dp} {
		var err error
		tr.call("poolsim.SplitContext", func() {
			p.split[k], err = poolsim.SplitContext(ctx, c, w.ttf, poolsim.SplitConfig{TrajectoriesPerLevel: splitTraj, Seed: seed})
		})
		if err != nil {
			p.check(fmt.Errorf("split %d disks: %w", c.Disks, err))
			return p
		}
		for _, t := range p.split[k].LevelTrajectories {
			p.work += float64(t)
		}
	}
	p.check(checkFig7Order(p.split[1], w.markovRate, w.cpPools, w.dpPools))
	return p
}

// checkRun checks the clustered estimates of all of a run's passes
// together; see checkClusteredSplit.
func (w *splitWL) checkRun(passes []passResult) passResult {
	var cp []poolsim.SplitResult
	for _, p := range passes {
		if len(p.split[0].LevelTrajectories) > 0 {
			cp = append(cp, p.split[0])
		}
	}
	var p passResult
	p.check(checkClusteredSplit(cp, w.markovRate))
	return p
}

// splitLevels is how many per-level up-shares the report names: levels
// 1..pl+1, up to the first one that can be catastrophic.
const splitLevels = 4

func (w *splitWL) report(m metricSet, passes []passResult) {
	putThroughput(m, "trajectories_per_s", "trajectories/s", passes)
	for k, kind := range []string{"cp", "dp"} {
		var rel []float64
		for l := 0; l < splitLevels; l++ {
			var ups []float64
			for _, p := range passes {
				if lp := p.split[k].LevelProbs; l < len(lp) {
					ups = append(ups, lp[l])
				}
			}
			m.put(fmt.Sprintf("poolsim.level_up_share.%s.l%d", kind, l+1), "ratio", median(ups))
		}
		for _, p := range passes {
			r := p.split[k]
			if r.CatRatePerPoolHour > 0 {
				rel = append(rel, (r.CatRateHi-r.CatRateLo)/2/r.CatRatePerPoolHour)
			}
		}
		m.put("poolsim.rel_ci_halfwidth."+kind, "ratio", median(rel))
	}
}

// ---- fleet-sim ----

// Every scheme runs the paper's 57,600-disk datacenter for fleetYears
// under R_MIN at 1% AFR.
const (
	fleetAFR   = 0.01
	fleetYears = 10.0
)

type fleetWL struct {
	seed    int64
	ttf     failure.Exponential
	systems []*syssim.System
}

func (w *fleetWL) config(s placement.Scheme, seed int64) syssim.Config {
	return syssim.Config{Topo: paperTopo, Params: paperParams, Scheme: s, Method: mlec.RepairMinimum, TTF: w.ttf, Seed: seed}
}

func (w *fleetWL) prepare() error {
	var err error
	w.ttf, err = failure.NewExponentialAFR(fleetAFR)
	return err
}

func (w *fleetWL) setup(tr *tracer) error {
	w.systems = nil
	for _, s := range placement.AllSchemes {
		var sys *syssim.System
		var err error
		tr.call("syssim.New", func() { sys, err = syssim.New(w.config(s, w.seed)) })
		if err != nil {
			return err
		}
		w.systems = append(w.systems, sys)
	}
	return nil
}

func (w *fleetWL) setupReps() (int, int) { return 7, 1 }
func (w *fleetWL) dropSetup()            { w.systems = nil }

func (w *fleetWL) passSetup(int, *tracer) error { return nil }

func (w *fleetWL) pass(i int, tr *tracer) passResult {
	var p passResult
	events := obs.Default.Counter("syssim_events_total")
	before := events.Value()
	for k, s := range placement.AllSchemes {
		var st syssim.Stats
		var err error
		tr.call("syssim.RunContext", func() {
			st, err = syssim.RunContext(context.Background(), w.config(s, 0), fleetYears, passSeed(w.seed, i*len(placement.AllSchemes)+k))
		})
		if err != nil {
			p.check(fmt.Errorf("%v: %w", s, err))
			continue
		}
		p.check(checkFleetRun(s.String(), st, paperTopo.TotalDisks(), w.ttf.RatePerHour*failure.HoursPerYear, fleetYears))
		p.work += float64(paperTopo.TotalDisks()) * st.SimYears
	}
	p.events = events.Value() - before
	return p
}

func (w *fleetWL) report(m metricSet, passes []passResult) {
	putThroughput(m, "disk_years_per_s", "disk-years/s", passes)
	var ev, rate []float64
	for _, p := range passes {
		ev = append(ev, float64(p.events))
		rate = append(rate, float64(p.events)/p.d.wall.Seconds())
	}
	m.put("syssim.events", "count", median(ev))
	m.put("syssim.events_per_s", "1/s", median(rate))
}

// ---- object-io ----

// A live C/D system with the paper's (10+2)/(17+3) code over the paper
// topology, with 4 KiB chunks so a network stripe holds 680 KiB.
// Objects have fixed sizes (three stripes plus a partial one), so the
// seed changes their contents and the failed disks, not the work.
const (
	objChunk   = 4 << 10
	objCount   = 12
	objMethod  = mlec.RepairMinimum
	objPerPool = 3 // = pl: disks failed in every pool, always locally recoverable
)

type objectWL struct {
	seed     int64
	payloads [][]byte
	sys      *mlec.System
}

func objConfig(seed int64) mlec.Config {
	return mlec.Config{Topology: paperTopo, Params: paperParams, Scheme: mlec.SchemeCD, ChunkBytes: objChunk, Seed: seed}
}

func objName(i int) string { return fmt.Sprintf("obj-%02d", i) }

func (w *objectWL) prepare() error {
	stripe := paperParams.KN * paperParams.KL * objChunk
	rng := rand.New(rand.NewSource(w.seed))
	w.payloads = make([][]byte, objCount)
	for i := range w.payloads {
		w.payloads[i] = make([]byte, 3*stripe+(i+1)*stripe/(objCount+1))
		rng.Read(w.payloads[i])
	}
	return nil
}

func (w *objectWL) setup(tr *tracer) error {
	var err error
	tr.call("mlec.NewSystem", func() { w.sys, err = mlec.NewSystem(objConfig(w.seed)) })
	return err
}

func (w *objectWL) setupReps() (int, int) { return 15, 1 }
func (w *objectWL) dropSetup()            { w.sys = nil }

// passSetup builds the fresh, empty system pass i writes into.
func (w *objectWL) passSetup(i int, tr *tracer) error {
	var err error
	tr.call("mlec.NewSystem", func() { w.sys, err = mlec.NewSystem(objConfig(passSeed(w.seed, i))) })
	return err
}

func (w *objectWL) pass(i int, tr *tracer) passResult {
	p := passResult{phases: map[string]phase{}}
	sys := w.sys
	var err error
	timed := func(ph string, bytes float64, fn func()) {
		id := tr.begin("objectio." + ph)
		start := time.Now()
		fn()
		d := time.Since(start).Seconds()
		tr.end(id)
		v := p.phases[ph]
		v.bytes += bytes
		v.seconds += d
		p.phases[ph] = v
	}
	readAll := func(ph string) {
		for k, want := range w.payloads {
			name := objName(k)
			var got []byte
			var err error
			timed(ph, float64(len(want)), func() {
				tr.call("mlec.System.Read", func() { got, err = sys.Read(name) })
			})
			p.check(checkRead(name, got, want, err))
		}
	}

	for k, data := range w.payloads {
		name := objName(k)
		timed("write", float64(len(data)), func() {
			tr.call("mlec.System.Write", func() { err = sys.Write(name, data) })
		})
		p.check(err)
	}
	readAll("read")

	// Fail pl disks in every enclosure (one local pool each under C/D):
	// every local stripe keeps at least kl chunks. Then fail disks of
	// the first written pool until it is catastrophic, which forces
	// reads and R_MIN through the network level.
	rng := rand.New(rand.NewSource(passSeed(w.seed, i)))
	var catErr error
	timed("fail", 0, func() {
		for r := 0; r < paperTopo.Racks; r++ {
			for e := 0; e < paperTopo.EnclosuresPerRack; e++ {
				for _, d := range rng.Perm(paperTopo.DisksPerEnclosure)[:objPerPool] {
					sys.FailDisk(topology.DiskID{Rack: r, Enclosure: e, Disk: d})
				}
			}
		}
		for _, d := range rng.Perm(paperTopo.DisksPerEnclosure) {
			if len(sys.CatastrophicPools()) > 0 {
				return
			}
			sys.FailDisk(topology.DiskID{Rack: 0, Enclosure: 0, Disk: d})
		}
		if len(sys.CatastrophicPools()) == 0 {
			catErr = fmt.Errorf("no catastrophic pool after failing enclosure (0,0)")
		}
	})
	p.check(catErr)
	readAll("degraded_read")

	sys.ResetTraffic()
	var repErr error
	timed("repair", 0, func() { tr.call("mlec.System.Repair", func() { repErr = sys.Repair(objMethod) }) })
	p.check(repErr)
	tf := sys.Traffic()
	rebuilt := tf.LocalWritten + tf.CrossRackWritten
	v := p.phases["repair"]
	v.bytes = rebuilt
	p.phases["repair"] = v
	p.check(checkRepair(rebuilt, sys.CatastrophicPools()))
	readAll("post_repair_read")

	var sr mlec.ScrubReport
	timed("scrub", 0, func() { tr.call("mlec.System.Scrub", func() { sr, err = sys.Scrub() }) })
	p.check(checkScrub(sr, err))
	return p
}

func (w *objectWL) report(m metricSet, passes []passResult) {
	for _, ph := range []struct{ phase, metric string }{
		{"write", "write_mb_per_s"}, {"read", "read_mb_per_s"},
		{"degraded_read", "degraded_read_mb_per_s"}, {"repair", "repair_mb_per_s"},
	} {
		var rate, bytes []float64
		for _, p := range passes {
			v := p.phases[ph.phase]
			bytes = append(bytes, v.bytes)
			if v.seconds > 0 {
				rate = append(rate, v.bytes/1e6/v.seconds)
			}
		}
		m.put(ph.metric, "MB/s", median(rate))
		m.put("objectio.bytes."+ph.phase, "bytes", median(bytes))
	}
}

// putThroughput reports the median over passes of work per wall second.
func putThroughput(m metricSet, name, unit string, passes []passResult) {
	var v []float64
	for _, p := range passes {
		if s := p.d.wall.Seconds(); s > 0 {
			v = append(v, p.work/s)
		}
	}
	m.put(name, unit, median(v))
}
