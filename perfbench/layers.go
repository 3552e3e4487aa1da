package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"mlec"
	"mlec/internal/burst"
	"mlec/internal/gf256"
	"mlec/internal/mathx"
	"mlec/internal/placement"
	"mlec/internal/poolsim"
	"mlec/internal/rs"
	"mlec/internal/runctl"
	"mlec/internal/sim"
	"mlec/internal/syssim"
)

// The layer probes time public calls of each module at the geometry the
// workloads use. They run in every traced run, whatever the workload,
// with fixed sample counts and a fixed probe seed, so every traced run
// reports every layer the same way.
const (
	probeSeed = 20231112
	// fleetQueueDepth is the event-queue depth fleet-sim's event loop
	// runs at: the failure clock plus a few repairs in flight
	// (syssim_event_queue_depth reads 3 to 11 over a run).
	fleetQueueDepth = 8
	// fleetSegments is syssim's default segments per disk.
	fleetSegments = 60
)

func probeLayers(tr *tracer, m metricSet) error {
	for _, p := range []struct {
		name string
		fn   func(*tracer, metricSet) error
	}{
		{"burst", probeBurst},
		{"runctl", probeRunctl},
		{"placement", probePlacement},
		{"poolsim", probePoolsim},
		{"sim", probeSim},
		{"syssim", probeSyssim},
		{"codec", probeCodec},
	} {
		id := tr.begin("probe." + p.name)
		err := p.fn(tr, m)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return nil
}

// heapAllocs returns the cumulative bytes allocated on the heap.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func probeBurst(tr *tracer, m metricSet) error {
	evals, _, err := newBurstEvals()
	if err != nil {
		return err
	}
	racks, dpr := paperTopo.Racks, paperTopo.DisksPerRack()
	rng := rand.New(rand.NewSource(probeSeed))

	// SampleLayout per band, over the workload grid's defined cells.
	var low, high []float64
	var lowAlloc, highAlloc uint64
	const perCell = 40
	for _, y := range burstYs {
		for _, x := range burstXs {
			if y < x || (x > 10 && x < 20) {
				continue
			}
			a := heapAllocs()
			var err error
			s := timeIt(perCell, time.Microsecond, func() {
				if _, e := burst.SampleLayout(rng, racks, dpr, x, y); e != nil {
					err = e
				}
			})
			if err != nil {
				return err
			}
			if x <= 10 {
				low, lowAlloc = append(low, s...), lowAlloc+heapAllocs()-a
			} else {
				high, highAlloc = append(high, s...), highAlloc+heapAllocs()-a
			}
		}
	}
	m.timing(tr, "burst.sample_us.low_x", "us", low)
	m.timing(tr, "burst.sample_us.high_x", "us", high)
	m.put("burst.sample_alloc_bytes.low_x", "bytes", float64(lowAlloc)/float64(len(low)))
	m.put("burst.sample_alloc_bytes.high_x", "bytes", float64(highAlloc)/float64(len(high)))

	// ConditionalPDL per evaluator over layouts from the same cells.
	var layouts []*burst.BurstLayout
	for _, y := range burstYs {
		for _, x := range burstXs {
			if y < x {
				continue
			}
			for i := 0; i < 20; i++ {
				l, err := burst.SampleLayout(rng, racks, dpr, x, y)
				if err != nil {
					return err
				}
				layouts = append(layouts, l)
			}
		}
	}
	for _, e := range evals {
		s := make([]float64, len(layouts))
		for i, l := range layouts {
			start := time.Now()
			e.ev.ConditionalPDL(l)
			s[i] = float64(time.Since(start)) / float64(time.Microsecond)
		}
		m.timing(tr, "burst.eval_us."+e.name, "us", s)
	}

	// Per-cell overhead at a low-band cell, where it matters most: the
	// cell's wall time minus its trials' sequential sample+evaluate
	// cost spread over the workers.
	const ox, oy, reps = 5, 60, 30
	ev := evals[0].ev
	workers := math.Min(float64(runtime.GOMAXPROCS(0)), math.Ceil(float64(burstTrials)/64))
	var over []float64
	for i := 0; i < reps; i++ {
		const n = 64
		start := time.Now()
		for k := 0; k < n; k++ {
			l, err := burst.SampleLayout(rng, racks, dpr, ox, oy)
			if err != nil {
				return err
			}
			ev.ConditionalPDL(l)
		}
		perTrial := time.Since(start).Seconds() / n
		var cellErr error
		wall := tr.call("burst.PDLContext", func() {
			_, cellErr = burst.PDLContext(context.Background(), ev, ox, oy, burstTrials, probeSeed+int64(i), "")
		})
		if cellErr != nil {
			return cellErr
		}
		over = append(over, (wall.Seconds()-float64(burstTrials)*perTrial/workers)*1e3)
	}
	m.timing(tr, "burst.cell_overhead_ms", "ms", over)

	m.put("burst.fallback_cell_share", "ratio", fallbackShare(burstXs, burstYs, racks, dpr))
	var figXs, figYs []int
	for x := 1; x <= 60; x += 2 {
		figXs = append(figXs, x)
	}
	for y := 4; y <= 60; y += 4 {
		figYs = append(figYs, y)
	}
	m.put("burst.fallback_cell_share.figure", "ratio", fallbackShare(figXs, figYs, racks, dpr))
	return nil
}

// coverProb is the exact probability that y distinct disks drawn from x
// racks of dpr disks hit every rack: the number of rack-covering disk
// sets, the coefficient of z^y in (Σ_{c≥1} C(dpr,c) z^c)^x, over
// C(x·dpr, y). The count is convolved rack by rack in the log domain,
// where every term is positive and nothing cancels.
func coverProb(x, y, dpr int) float64 {
	acc := []float64{0} // log count of covering sets by size, racks so far
	for r := 0; r < x; r++ {
		next := make([]float64, y+1)
		for j := range next {
			next[j] = math.Inf(-1)
			for c := 1; c <= dpr && c <= j; c++ {
				if j-c < len(acc) && !math.IsInf(acc[j-c], -1) {
					next[j] = logAdd(next[j], acc[j-c]+mathx.LogChoose(dpr, c))
				}
			}
		}
		acc = next
	}
	if y >= len(acc) || math.IsInf(acc[y], -1) {
		return 0
	}
	return math.Exp(acc[y] - mathx.LogChoose(x*dpr, y))
}

func logAdd(a, b float64) float64 {
	if a < b {
		a, b = b, a
	}
	if math.IsInf(b, -1) {
		return a
	}
	return a + math.Log1p(math.Exp(b-a))
}

// fallbackShare is the share of defined cells whose all-racks-covered
// probability is below 1/64: there SampleLayout's 64 rejection attempts
// usually fail and it falls back to its approximate constructive draw.
func fallbackShare(xs, ys []int, racks, dpr int) float64 {
	var cells, fallback int
	for _, y := range ys {
		for _, x := range xs {
			if y < x || x > racks {
				continue
			}
			cells++
			if coverProb(x, y, dpr) < 1.0/64 {
				fallback++
			}
		}
	}
	return float64(fallback) / float64(cells)
}

func probeRunctl(tr *tracer, m metricSet) error {
	// A burst cell of 600 trials runs as ten 64-trial batches.
	const streams = 10
	var err error
	s := timeIt(300, time.Microsecond, func() {
		p := runctl.NewPool(context.Background())
		for i := 0; i < streams; i++ {
			p.Go(int64(i), func(context.Context) error { return nil })
		}
		if e := p.Wait(); e != nil {
			err = e
		}
	})
	m.timing(tr, "runctl.pool_roundtrip_us", "us", s)
	return err
}

func probePlacement(tr *tracer, m metricSet) error {
	var err error
	i := 0
	s := timeIt(200, time.Millisecond, func() {
		if _, e := placement.NewLayout(paperTopo, paperParams, placement.AllSchemes[i%4]); e != nil {
			err = e
		}
		i++
	})
	if err != nil {
		return err
	}
	m.timing(tr, "placement.new_layout_ms", "ms", s)

	// Declustered stripes of one local pool at fleet-sim's and
	// pool-split's segment counts.
	w, disks := paperParams.LocalWidth(), paperTopo.DisksPerEnclosure
	for _, g := range []struct {
		name     string
		segments int
		n        int
	}{{"fleet", fleetSegments, 100}, {"split", 240, 40}} {
		stripes := disks * g.segments / w
		a := heapAllocs()
		i := 0
		s := timeIt(g.n, time.Millisecond, func() {
			if _, e := placement.DeclusteredStripes(disks, w, stripes, probeSeed+int64(i)); e != nil {
				err = e
			}
			i++
		})
		if err != nil {
			return err
		}
		m.timing(tr, "placement.declustered_stripes_ms."+g.name, "ms", s)
		m.put("placement.declustered_stripes_alloc_bytes."+g.name, "bytes", float64(heapAllocs()-a)/float64(g.n))
	}
	return nil
}

func probePoolsim(tr *tracer, m metricSet) error {
	// NewPool at fleet-sim's local pool geometry (C/D and D/D).
	_, dp := splitConfigs()
	fleet := dp
	fleet.SegmentsPerDisk = fleetSegments
	var err error
	const nNew = 100
	a := heapAllocs()
	i := 0
	s := timeIt(nNew, time.Millisecond, func() {
		if _, e := poolsim.NewPool(fleet, probeSeed+int64(i)); e != nil {
			err = e
		}
		i++
	})
	if err != nil {
		return err
	}
	m.timing(tr, "poolsim.new_pool_ms", "ms", s)
	m.put("poolsim.new_pool_alloc_bytes", "bytes", float64(heapAllocs()-a)/nNew)

	// Repair-state operations on pool-split's declustered pool: clone a
	// healthy pool, fail and detect 1..pl+1 disks, pick the next batch at
	// each failure count, and heal one batch.
	base, err := poolsim.NewPool(dp, probeSeed)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(probeSeed))
	var clone, fail, heal []float64
	next := make([][]float64, paperParams.PL+1)
	us := func(start time.Time) float64 { return float64(time.Since(start)) / float64(time.Microsecond) }
	for k := 0; k < 100; k++ {
		start := time.Now()
		p := base.Clone()
		clone = append(clone, us(start))
		for f, d := range rng.Perm(dp.Disks)[:paperParams.PL+1] {
			start = time.Now()
			p.FailDisk(d)
			fail = append(fail, us(start))
			p.DetectDisk(d)
			start = time.Now()
			b := p.NextBatch()
			next[f] = append(next[f], us(start))
			if b == nil {
				return fmt.Errorf("no repair batch with %d detected failures", f+1)
			}
		}
		b := p.NextBatch()
		start = time.Now()
		p.HealBatch(b)
		heal = append(heal, us(start))
	}
	m.timing(tr, "poolsim.clone_us", "us", clone)
	m.timing(tr, "poolsim.fail_disk_us", "us", fail)
	for f := range next {
		m.timing(tr, fmt.Sprintf("poolsim.next_batch_us.f%d", f+1), "us", next[f])
	}
	m.timing(tr, "poolsim.heal_batch_us", "us", heal)
	return nil
}

func probeSim(tr *tracer, m metricSet) error {
	// Batches of eight schedules then eight steps keep the queue between
	// fleetQueueDepth and twice that.
	e := sim.New()
	rng := rand.New(rand.NewSource(probeSeed))
	noop := func() {}
	for i := 0; i < fleetQueueDepth; i++ {
		e.Schedule(1e12+rng.Float64(), noop)
	}
	const batch, n = 8, 2000
	var sched, step []float64
	for k := 0; k < n; k++ {
		start := time.Now()
		for i := 0; i < batch; i++ {
			e.Schedule(rng.Float64(), noop)
		}
		sched = append(sched, float64(time.Since(start).Nanoseconds())/batch)
		start = time.Now()
		for i := 0; i < batch; i++ {
			e.Step()
		}
		step = append(step, float64(time.Since(start).Nanoseconds())/batch)
	}
	if e.Pending() != fleetQueueDepth {
		return fmt.Errorf("event queue at %d, want %d", e.Pending(), fleetQueueDepth)
	}
	m.timing(tr, "sim.schedule_ns", "ns", sched)
	m.timing(tr, "sim.step_ns", "ns", step)
	return nil
}

func probeSyssim(tr *tracer, m metricSet) error {
	fleet := &fleetWL{}
	if err := fleet.prepare(); err != nil {
		return err
	}
	const n = 3
	for _, s := range placement.AllSchemes {
		var v []float64
		for i := 0; i < n; i++ {
			runtime.GC()
			var e error
			d := tr.call("syssim.New", func() { _, e = syssim.New(fleet.config(s, probeSeed+int64(i))) })
			if e != nil {
				return e
			}
			v = append(v, d.Seconds())
		}
		name := "syssim.new_s." + strings.ToLower(strings.ReplaceAll(s.String(), "/", ""))
		tr.samples[name] = v
		m.put(name, "s", median(v))
	}
	m.put("syssim.new_s.n", "count", n)
	return nil
}

// probeCodec measures the kernels and codecs at object-io's chunk size
// and the cluster's write path that calls them.
func probeCodec(tr *tracer, m metricSet) error {
	rng := rand.New(rand.NewSource(probeSeed))
	buf := func(n int) []byte { b := make([]byte, n); rng.Read(b); return b }
	gbps := func(bytes int, d time.Duration) float64 { return float64(bytes) / d.Seconds() / 1e9 }

	src, dst := buf(objChunk), buf(objChunk)
	const kernelBatch = 64
	var mulAdd, xor []float64
	for k := 0; k < 200; k++ {
		start := time.Now()
		for i := 0; i < kernelBatch; i++ {
			gf256.MulAddSlice(byte(i|1), src, dst)
		}
		mulAdd = append(mulAdd, gbps(kernelBatch*objChunk, time.Since(start)))
		start = time.Now()
		for i := 0; i < kernelBatch; i++ {
			gf256.XorSlice(src, dst)
		}
		xor = append(xor, gbps(kernelBatch*objChunk, time.Since(start)))
	}
	m.rate(tr, "gf256.mul_add_gbps", "GB/s", mulAdd)
	m.rate(tr, "gf256.xor_gbps", "GB/s", xor)

	// The network code encodes kl-chunk payloads; the local code encodes
	// chunks. Rates count data bytes in.
	p := paperParams
	codecRate := func(k, par, shard, batch, n int, reconstruct bool) ([]float64, float64, error) {
		c, err := rs.New(k, par)
		if err != nil {
			return nil, 0, err
		}
		shards := make([][]byte, k+par)
		for i := range shards {
			shards[i] = buf(shard)
		}
		if err := c.Encode(shards); err != nil {
			return nil, 0, err
		}
		var out, secs []float64
		work := make([][]byte, k+par)
		for j := 0; j < n; j++ {
			var d time.Duration
			for b := 0; b < batch; b++ {
				if reconstruct {
					copy(work, shards)
					for i := 0; i < par; i++ {
						work[i] = nil // lose pl data chunks
					}
					start := time.Now()
					err = c.Reconstruct(work)
					d += time.Since(start)
				} else {
					start := time.Now()
					err = c.Encode(shards)
					d += time.Since(start)
				}
				if err != nil {
					return nil, 0, err
				}
			}
			out = append(out, gbps(batch*k*shard, d))
			secs = append(secs, d.Seconds()/float64(batch))
		}
		return out, median(secs), nil
	}
	netRate, netS, err := codecRate(p.KN, p.PN, p.KL*objChunk, 1, 100, false)
	if err != nil {
		return err
	}
	locRate, locS, err := codecRate(p.KL, p.PL, objChunk, 16, 100, false)
	if err != nil {
		return err
	}
	recRate, _, err := codecRate(p.KL, p.PL, objChunk, 16, 100, true)
	if err != nil {
		return err
	}
	m.rate(tr, "rs.encode_gbps.net", "GB/s", netRate)
	m.rate(tr, "rs.encode_gbps.local", "GB/s", locRate)
	m.rate(tr, "rs.reconstruct_gbps.local", "GB/s", recRate)

	// The cluster write path over object-io's object sizes: bytes
	// allocated per byte written, and the share of Write time the
	// object's encodes account for (one network encode and kn+pn local
	// encodes per network stripe).
	w := &objectWL{seed: probeSeed}
	if err := w.prepare(); err != nil {
		return err
	}
	sys, err := mlec.NewSystem(objConfig(probeSeed))
	if err != nil {
		return err
	}
	stripe := sys.ObjectStripeBytes()
	var share []float64
	var allocs, written uint64
	for k, data := range w.payloads {
		a := heapAllocs()
		d := tr.call("mlec.System.Write", func() { err = sys.Write(objName(k), data) })
		allocs += heapAllocs() - a
		written += uint64(len(data))
		if err != nil {
			return err
		}
		stripes := (len(data) + stripe - 1) / stripe
		share = append(share, float64(stripes)*(netS+float64(p.NetworkWidth())*locS)/d.Seconds())
	}
	m.put("cluster.write_alloc_bytes_per_byte", "ratio", float64(allocs)/float64(written))
	m.put("cluster.codec_share.write", "ratio", median(share))
	return nil
}
