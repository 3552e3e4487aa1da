package poolsim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"mlec/internal/failure"
)

// refBatch is the brute-force repair batch: the full two-pass scan over
// every stripe's members that NextBatch replaced. It is the reference
// the ready index must reproduce exactly.
type refBatch struct {
	stripes     []int
	priority    int
	volumeBytes float64
}

func refDetectedLost(p *Pool, s int) int {
	n := 0
	for m, d := range p.stripeDisks[s] {
		if p.lostMask[s]&(1<<uint(m)) != 0 && p.state[d] == diskRepairing {
			n++
		}
	}
	return n
}

func refNextBatch(p *Pool) *refBatch {
	if p.detected == 0 {
		return nil
	}
	best := 0
	for s, c := range p.lostCount {
		if int(c) > best && refDetectedLost(p, s) > 0 {
			best = int(c)
		}
	}
	if best == 0 {
		return nil
	}
	b := &refBatch{priority: best}
	chunks := 0
	for s, c := range p.lostCount {
		if int(c) == best {
			if dl := refDetectedLost(p, s); dl > 0 {
				b.stripes = append(b.stripes, s)
				chunks += dl
				if len(b.stripes) >= p.Cfg.batchCap() {
					break
				}
			}
		}
	}
	b.volumeBytes = float64(chunks) * p.Cfg.SegmentBytes()
	return b
}

// checkIndex recounts every redundant counter and the ready index from
// the masks and disk states, and compares NextBatch with refNextBatch.
func checkIndex(p *Pool) error {
	diskLost := make([]int, p.Cfg.Disks)
	readyByPrio := make([]int, p.Cfg.Width+1)
	for s, mask := range p.lostMask {
		if got, want := int(p.lostCount[s]), bits.OnesCount64(mask); got != want {
			return fmt.Errorf("stripe %d: lostCount %d, mask holds %d", s, got, want)
		}
		for m, d := range p.stripeDisks[s] {
			if mask&(1<<uint(m)) != 0 {
				diskLost[d]++
			}
		}
		dl := refDetectedLost(p, s)
		if int(p.detLost[s]) != dl {
			return fmt.Errorf("stripe %d: detLost %d, recount %d", s, p.detLost[s], dl)
		}
		for c := 0; c <= p.Cfg.Width; c++ {
			in := p.ready[c*p.readyWords+s>>6]>>uint(s&63)&1 == 1
			if want := dl > 0 && c == int(p.lostCount[s]); in != want {
				return fmt.Errorf("stripe %d (lost %d, detected lost %d): in ready set %d = %v", s, p.lostCount[s], dl, c, in)
			}
		}
		if dl > 0 {
			readyByPrio[p.lostCount[s]]++
		}
	}
	if tail := len(p.lostMask) & 63; tail != 0 {
		for c := 0; c <= p.Cfg.Width; c++ {
			if last := p.ready[(c+1)*p.readyWords-1]; last>>uint(tail) != 0 {
				return fmt.Errorf("ready set %d has bits beyond the last stripe: %#x", c, last)
			}
		}
	}
	if !slices.Equal(p.readyByPrio, readyByPrio) {
		return fmt.Errorf("readyByPrio %v, recount %v", p.readyByPrio, readyByPrio)
	}
	if !slices.Equal(p.diskLost, diskLost) {
		return fmt.Errorf("diskLost %v, recount %v", p.diskLost, diskLost)
	}
	failed, detected := 0, 0
	for d, st := range p.state {
		if st != diskHealthy {
			failed++
		}
		if st == diskRepairing {
			detected++
		}
		if st == diskHealthy && diskLost[d] > 0 {
			return fmt.Errorf("healthy disk %d owns %d lost chunks", d, diskLost[d])
		}
	}
	if failed != p.failedCount || detected != p.detected {
		return fmt.Errorf("failed/detected %d/%d, recount %d/%d", p.failedCount, p.detected, failed, detected)
	}

	got, want := p.NextBatch(), refNextBatch(p)
	switch {
	case got == nil && want == nil:
		return nil
	case got == nil || want == nil:
		return fmt.Errorf("NextBatch %v, reference %v", got, want)
	case got.priority != want.priority || got.volumeBytes != want.volumeBytes || !slices.Equal(got.stripes, want.stripes):
		return fmt.Errorf("NextBatch {prio %d vol %g stripes %v}, reference {prio %d vol %g stripes %v}",
			got.priority, got.volumeBytes, got.stripes, want.priority, want.volumeBytes, want.stripes)
	}
	return nil
}

// disksIn returns the disks in state st.
func disksIn(p *Pool, st diskState) []int {
	var ds []int
	for d, s := range p.state {
		if s == st {
			ds = append(ds, d)
		}
	}
	return ds
}

// TestRepairIndexDifferential drives random mutator sequences and checks
// the ready index against a full recount and the brute-force batch after
// every operation.
func TestRepairIndexDifferential(t *testing.T) {
	small := Config{
		Width: 8, Parity: 2,
		DiskCapacityBytes: 1e12, DiskRepairBW: 5e6, DetectionDelayHours: 0.5,
	}
	clustered, declustered, capped := small, small, small
	clustered.Disks, clustered.Clustered, clustered.SegmentsPerDisk = 8, true, 24
	// 20 disks · 28 segments / 8 = 70 stripes: two ready words, the
	// second partly used.
	declustered.Disks, declustered.SegmentsPerDisk = 20, 28
	capped.Disks, capped.SegmentsPerDisk, capped.MaxBatchStripes = 12, 40, 3

	for name, cfg := range map[string]Config{"clustered": clustered, "declustered": declustered, "capped": capped} {
		t.Run(name, func(t *testing.T) {
			base, err := NewPool(cfg, 3)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(cfg.Disks)))
			p := base.Clone()
			var scratch [2]Pool
			for step := 0; step < 4000; step++ {
				var op string
				switch r := rng.Intn(100); {
				case r < 25:
					op = "FailDisk"
					if hs := disksIn(p, diskHealthy); len(hs) > 0 {
						p.FailDisk(hs[rng.Intn(len(hs))])
					}
				case r < 45:
					op = "DetectDisk"
					if us := disksIn(p, diskFailedUndetected); len(us) > 0 {
						p.DetectDisk(us[rng.Intn(len(us))])
					}
				case r < 75:
					op = "NextBatch+HealBatch"
					if b := p.NextBatch(); b != nil {
						p.HealBatch(b)
					}
				case r < 88:
					op = "HealStripeChunks"
					s := rng.Intn(len(p.lostMask))
					if c := p.StripeLostCount(s); c > 0 {
						p.HealStripeChunks(s, 1+rng.Intn(c))
					}
				case r < 90:
					op = "HealAll"
					p.HealAll()
				case r < 94:
					// The source is wiped after each copy: the copy
					// must share none of its mutable state.
					op = "Clone"
					src := p
					p = p.Clone()
					src.HealAll()
				case r < 98:
					op = "CopyFrom"
					dst := &scratch[0]
					if p == dst {
						dst = &scratch[1]
					}
					dst.CopyFrom(p)
					p.HealAll()
					p = dst
				default:
					op = "checkpoint"
					entries, err := decodeSnapshots(base, encodeSnapshots([]*snapshot{{pool: p}}))
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					p = entries[0].pool
				}
				if err := checkIndex(p); err != nil {
					t.Fatalf("step %d after %s: %v", step, op, err)
				}
			}
		})
	}
}

// TestCloneDoesNotShareBatch: a clone's batch buffer is its own, so a
// pending batch of the original survives NextBatch on the clone.
func TestCloneDoesNotShareBatch(t *testing.T) {
	p, _ := NewPool(paperDpConfig(60), 4)
	p.FailDisk(0)
	p.DetectDisk(0)
	b := p.NextBatch()
	want := slices.Clone(b.stripes)
	c := p.Clone()
	c.FailDisk(1)
	c.DetectDisk(1)
	c.NextBatch()
	if !slices.Equal(b.stripes, want) {
		t.Fatal("NextBatch on a clone rewrote the original's batch")
	}
	var s Pool
	s.CopyFrom(p)
	s.HealBatch(s.NextBatch())
	if !slices.Equal(b.stripes, want) {
		t.Fatal("NextBatch on a CopyFrom scratch rewrote the original's batch")
	}
}

// TestRepairSteadyStateAllocs guards the repair loop: once the pool's
// buffers have grown, failing, detecting, batching and healing allocate
// nothing.
func TestRepairSteadyStateAllocs(t *testing.T) {
	p, err := NewPool(paperDpConfig(240), 5)
	if err != nil {
		t.Fatal(err)
	}
	d := 0
	allocs := testing.AllocsPerRun(200, func() {
		if p.Healthy() {
			p.FailDisk(d)
			p.DetectDisk(d)
			d = (d + 1) % p.Cfg.Disks
		}
		p.HealBatch(p.NextBatch())
	})
	if allocs != 0 {
		t.Fatalf("NextBatch+HealBatch allocate %.1f times per call, want 0", allocs)
	}
}

// BenchmarkNextBatch times NextBatch on the paper's declustered pool with
// f = 1..pl+1 detected failures.
func BenchmarkNextBatch(b *testing.B) {
	for f := 1; f <= 4; f++ {
		b.Run(fmt.Sprintf("f%d", f), func(b *testing.B) {
			p, err := NewPool(paperDpConfig(240), 1)
			if err != nil {
				b.Fatal(err)
			}
			for d := 0; d < f; d++ {
				p.FailDisk(d * 7)
				p.DetectDisk(d * 7)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.NextBatch()
			}
		})
	}
}

// BenchmarkSplitTrajectory times one level-1 splitting trajectory on the
// paper's declustered pool the way a SplitContext worker runs it:
// scratch pool, re-seeded RNG.
func BenchmarkSplitTrajectory(b *testing.B) {
	p, err := NewPool(paperDpConfig(240), 1)
	if err != nil {
		b.Fatal(err)
	}
	p.FailDisk(0)
	entry := &snapshot{pool: p, detectRemaining: map[int]float64{0: p.Cfg.DetectionDelayHours}}
	ttf := failure.MustExponentialAFR(0.01)
	var scratch Pool
	rng := rand.New(rand.NewSource(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng.Seed(int64(i))
		runTrajectory(entry.pool.Cfg, ttf, entry, &scratch, rng)
	}
}
