// Package poolsim simulates a single MLEC local pool at segment
// granularity: disks fail following a TTF distribution, failures are
// detected after a delay, and a priority repairer rebuilds the most
// damaged stripes first at the pool's (degraded) repair bandwidth.
//
// It supplies stage 1 of the paper's splitting methodology (§3): the rate
// at which a local pool becomes catastrophic (some stripe exceeds pl
// failed chunks — Figure 7) and state samples at those events, which the
// splitting package injects at the network level.
//
// Granularity: each disk holds SegmentsPerDisk stripe-chunks; stripes are
// pseudorandom width-subsets of the pool's disks (or the trivial spanning
// layout for clustered pools). Repair volumes scale to real bytes, so
// repair *times* match the full-resolution system while the combinatorial
// state stays small.
package poolsim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"mlec/internal/placement"
)

// Config describes one local pool.
type Config struct {
	Disks     int  // pool size D
	Width     int  // stripe width kl+pl
	Parity    int  // pl
	Clustered bool // clustered (width == Disks) vs declustered layout

	SegmentsPerDisk   int     // sim granularity (chunks per disk)
	DiskCapacityBytes float64 // real bytes per disk
	DiskRepairBW      float64 // per-disk repair bandwidth, bytes/s

	DetectionDelayHours float64

	// MaxBatchStripes caps how many stripes one repair batch heals.
	// Interrupted batches restart from scratch, so smaller batches
	// reduce the restart pessimism at the cost of more events.
	// 0 selects the default of 5% of the pool's stripes.
	MaxBatchStripes int
}

// batchCap returns the effective repair batch size.
func (c Config) batchCap() int {
	if c.MaxBatchStripes > 0 {
		return c.MaxBatchStripes
	}
	n := c.Stripes() / 20
	if n < 1 {
		n = 1
	}
	return n
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Disks <= 0 || c.Width <= 1 || c.Parity < 0 || c.Parity >= c.Width:
		return fmt.Errorf("poolsim: bad geometry D=%d w=%d pl=%d", c.Disks, c.Width, c.Parity)
	case c.Clustered && c.Disks != c.Width:
		return fmt.Errorf("poolsim: clustered pool needs D == width, got %d != %d", c.Disks, c.Width)
	case !c.Clustered && c.Disks < c.Width:
		return fmt.Errorf("poolsim: declustered pool narrower than stripe")
	case c.SegmentsPerDisk <= 0:
		return fmt.Errorf("poolsim: SegmentsPerDisk = %d", c.SegmentsPerDisk)
	case c.DiskCapacityBytes <= 0 || c.DiskRepairBW <= 0:
		return fmt.Errorf("poolsim: bad capacity/bandwidth")
	case c.DetectionDelayHours < 0:
		return fmt.Errorf("poolsim: negative detection delay")
	}
	if c.Disks*c.SegmentsPerDisk%c.Width != 0 {
		return fmt.Errorf("poolsim: D·segments (%d) not divisible by width %d",
			c.Disks*c.SegmentsPerDisk, c.Width)
	}
	return nil
}

// KL returns the data-chunk count of the local code.
func (c Config) KL() int { return c.Width - c.Parity }

// SegmentBytes returns the real size one simulated chunk stands for.
func (c Config) SegmentBytes() float64 {
	return c.DiskCapacityBytes / float64(c.SegmentsPerDisk)
}

// Stripes returns the simulated stripe count.
func (c Config) Stripes() int { return c.Disks * c.SegmentsPerDisk / c.Width }

// RepairBW returns the pool's repair bandwidth (bytes/s of reconstructed
// data) with `failed` disks under repair, mirroring
// bwmodel.DegradedPoolRepairBandwidth.
func (c Config) RepairBW(failed int) float64 {
	if failed < 1 {
		failed = 1
	}
	if c.Clustered {
		// Spare writes bind (reads stay ahead while failed ≤ pl).
		return float64(failed) * c.DiskRepairBW
	}
	surv := c.Disks - failed
	if surv < c.KL() {
		surv = c.KL()
	}
	return float64(surv) * c.DiskRepairBW / float64(c.KL()+1)
}

// diskState tracks one disk's lifecycle.
type diskState uint8

const (
	diskHealthy diskState = iota
	diskFailedUndetected
	diskRepairing
)

// Pool is the mutable pool state. It contains no event-queue machinery;
// drivers (LongRun, Splitting) own the clock and call the mutators.
//
// Repair scheduling runs off a ready index that every mutator keeps in
// step with the masks and disk states:
//
//	detLost[s]         = lost chunks of stripe s on detected (repairing) disks
//	bit s of ready set c ⇔ detLost[s] > 0 (s is repairable) and lostCount[s] == c
//	readyByPrio[c]     = stripes in ready set c
//
// so NextBatch finds the top priority in O(width) and walks only the
// stripes of that priority, instead of rescanning every stripe's members.
type Pool struct {
	Cfg Config

	stripeDisks  [][]int // stripe → member disk ids
	diskStripes  [][]int // disk → stripe ids it participates in
	memberOfDisk [][]int // parallel to diskStripes: member index within the stripe

	// lostMask[s] has bit m set when stripe s's chunk at member m is
	// currently lost (width ≤ 64 enforced at construction).
	lostMask  []uint64
	lostCount []uint8

	state       []diskState
	diskLost    []int // lost chunks attributable to each disk
	failedCount int   // disks not healthy
	detected    int   // disks in diskRepairing

	// The ready index (see the type comment). ready holds the width+1
	// ready sets back to back, each a bitset of readyWords words.
	detLost     []uint8
	ready       []uint64
	readyWords  int
	readyByPrio []int

	// Buffers NextBatch and the heal mutators reuse; never copied.
	batch  repairBatch
	healed []int
}

// NewPool builds the pool and its (seeded) stripe layout.
func NewPool(cfg Config, layoutSeed int64) (*Pool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Width > 64 {
		return nil, fmt.Errorf("poolsim: stripe width %d exceeds 64 (lost-mask capacity)", cfg.Width)
	}
	var layout [][]int
	var err error
	if cfg.Clustered {
		layout, err = placement.ClusteredStripes(cfg.Disks, cfg.Width, cfg.Stripes())
	} else {
		layout, err = placement.DeclusteredStripes(cfg.Disks, cfg.Width, cfg.Stripes(), layoutSeed)
	}
	if err != nil {
		return nil, err
	}
	p := &Pool{
		Cfg:          cfg,
		stripeDisks:  layout,
		diskStripes:  make([][]int, cfg.Disks),
		memberOfDisk: make([][]int, cfg.Disks),
		lostMask:     make([]uint64, len(layout)),
		lostCount:    make([]uint8, len(layout)),
		state:        make([]diskState, cfg.Disks),
		diskLost:     make([]int, cfg.Disks),
		detLost:      make([]uint8, len(layout)),
		ready:        make([]uint64, (cfg.Width+1)*((len(layout)+63)/64)),
		readyWords:   (len(layout) + 63) / 64,
		readyByPrio:  make([]int, cfg.Width+1),
	}
	for s, disks := range layout {
		for m, d := range disks {
			p.diskStripes[d] = append(p.diskStripes[d], s)
			p.memberOfDisk[d] = append(p.memberOfDisk[d], m)
		}
	}
	return p, nil
}

// Clone deep-copies the pool state (sharing the immutable layout).
func (p *Pool) Clone() *Pool {
	c := new(Pool)
	c.CopyFrom(p)
	return c
}

// CopyFrom overwrites p with src's state, sharing src's immutable layout
// and reusing p's own buffers: the allocation-free Clone for a scratch
// pool that is reset many times. p may be the zero Pool.
func (p *Pool) CopyFrom(src *Pool) {
	p.Cfg = src.Cfg
	p.stripeDisks = src.stripeDisks
	p.diskStripes = src.diskStripes
	p.memberOfDisk = src.memberOfDisk
	p.lostMask = append(p.lostMask[:0], src.lostMask...)
	p.lostCount = append(p.lostCount[:0], src.lostCount...)
	p.state = append(p.state[:0], src.state...)
	p.diskLost = append(p.diskLost[:0], src.diskLost...)
	p.failedCount = src.failedCount
	p.detected = src.detected
	p.detLost = append(p.detLost[:0], src.detLost...)
	p.copyReady(src)
	p.readyWords = src.readyWords
	p.readyByPrio = append(p.readyByPrio[:0], src.readyByPrio...)
}

// copyReady copies src's ready sets into p. Most of the width+1 sets are
// empty, so it clears only p's nonempty sets and copies only src's.
func (p *Pool) copyReady(src *Pool) {
	if len(p.ready) != len(src.ready) {
		p.ready = make([]uint64, len(src.ready))
	} else {
		for c, n := range p.readyByPrio {
			if n > 0 {
				clear(p.ready[c*p.readyWords : (c+1)*p.readyWords])
			}
		}
	}
	w := src.readyWords
	for c, n := range src.readyByPrio {
		if n > 0 {
			copy(p.ready[c*w:(c+1)*w], src.ready[c*w:])
		}
	}
}

// readyKey returns the ready set stripe s belongs in: its lost count
// when it is repairable, 0 (no set) when it is not.
func (p *Pool) readyKey(s int) int {
	if p.detLost[s] == 0 {
		return 0
	}
	return int(p.lostCount[s])
}

// moveReady moves stripe s from ready set `from` to ready set `to`
// (0 = no set). Every change to lostCount[s] or detLost[s] is followed
// by one, from the stripe's old readyKey to its new one.
func (p *Pool) moveReady(s, from, to int) {
	w, bit := s>>6, uint64(1)<<uint(s&63)
	if from > 0 {
		p.readyByPrio[from]--
		p.ready[from*p.readyWords+w] &^= bit
	}
	if to > 0 {
		p.readyByPrio[to]++
		p.ready[to*p.readyWords+w] |= bit
	}
}

// rebuildIndex recomputes the ready index from the masks and disk
// states, for pools whose state was written field by field (checkpoint
// decode).
func (p *Pool) rebuildIndex() {
	clear(p.ready)
	clear(p.readyByPrio)
	for s := range p.lostMask {
		p.detLost[s] = uint8(p.detectedLost(s))
		p.moveReady(s, 0, p.readyKey(s))
	}
}

// FailedDisks returns the number of disks that are failed or repairing.
func (p *Pool) FailedDisks() int { return p.failedCount }

// DetectedDisks returns the number of disks whose failure was detected.
func (p *Pool) DetectedDisks() int { return p.detected }

// Healthy reports whether every disk is healthy.
func (p *Pool) Healthy() bool { return p.failedCount == 0 }

// DiskState returns disk d's lifecycle state.
func (p *Pool) DiskState(d int) int { return int(p.state[d]) }

// FailDisk marks disk d failed (undetected) and returns the number of
// stripes that just became lost (> pl failed chunks) — a nonzero return
// is a catastrophic local pool failure.
func (p *Pool) FailDisk(d int) (newlyLost int) {
	if p.state[d] != diskHealthy {
		//lint:allow nakedpanic double-failing a disk is a simulator-state invariant violation, not recoverable input
		panic(fmt.Sprintf("poolsim: disk %d failed twice", d))
	}
	p.state[d] = diskFailedUndetected
	p.failedCount++
	pl := uint8(p.Cfg.Parity)
	stripes := p.diskStripes[d]
	members := p.memberOfDisk[d][:len(stripes)]
	lost := 0
	for i, s := range stripes {
		bit := uint64(1) << uint(members[i])
		if p.lostMask[s]&bit != 0 {
			continue // already lost (only possible via direct injection)
		}
		p.lostMask[s] |= bit
		c := p.lostCount[s] + 1
		p.lostCount[s] = c
		if p.detLost[s] > 0 {
			p.moveReady(s, int(c)-1, int(c))
		}
		lost++
		if c == pl+1 {
			newlyLost++
		}
	}
	p.diskLost[d] += lost
	return newlyLost
}

// DetectDisk moves a failed disk into the repairing set, making its
// lost chunks repairable.
func (p *Pool) DetectDisk(d int) {
	if p.state[d] != diskFailedUndetected {
		return
	}
	p.state[d] = diskRepairing
	p.detected++
	stripes := p.diskStripes[d]
	members := p.memberOfDisk[d][:len(stripes)]
	for i, s := range stripes {
		if p.lostMask[s]&(1<<uint(members[i])) == 0 {
			continue
		}
		if p.detLost[s] == 0 {
			p.moveReady(s, 0, int(p.lostCount[s]))
		}
		p.detLost[s]++
	}
}

// LostStripes returns the number of stripes currently beyond local
// recovery (> pl lost chunks).
func (p *Pool) LostStripes() int {
	n := 0
	pl := uint8(p.Cfg.Parity)
	for _, c := range p.lostCount {
		if c > pl {
			n++
		}
	}
	return n
}

// Profile returns the stripe damage histogram: counts of stripes by
// number of lost chunks (index = lost chunks; index 0 unused).
func (p *Pool) Profile() []int {
	prof := make([]int, p.Cfg.Width+1)
	for _, c := range p.lostCount {
		if c > 0 {
			prof[c]++
		}
	}
	return prof
}

// repairBatch describes the repairer's next unit of work: all repairable
// stripes at the current top priority.
type repairBatch struct {
	stripes  []int
	priority int
	// volumeBytes is the data to reconstruct: detected lost chunks.
	volumeBytes float64
}

// NextBatch returns the highest-priority batch of repairable stripes
// (stripes whose lost chunks include at least one detected disk), in
// ascending stripe order up to the batch cap, or nil when nothing is
// repairable. Priority is the stripe's total lost count. The batch is a
// buffer the pool reuses: it stays valid until the next NextBatch call.
func (p *Pool) NextBatch() *repairBatch {
	best := 0
	for c := len(p.readyByPrio) - 1; c > 0; c-- {
		if p.readyByPrio[c] > 0 {
			best = c
			break
		}
	}
	if best == 0 {
		return nil
	}
	b := &p.batch
	b.priority = best
	want := min(p.readyByPrio[best], p.Cfg.batchCap())
	b.stripes = slices.Grow(b.stripes[:0], want)
	chunks := 0
scan:
	for w, word := range p.ready[best*p.readyWords : (best+1)*p.readyWords] {
		for ; word != 0; word &= word - 1 {
			s := w<<6 | bits.TrailingZeros64(word)
			b.stripes = append(b.stripes, s)
			chunks += int(p.detLost[s])
			if len(b.stripes) == want {
				break scan
			}
		}
	}
	b.volumeBytes = float64(chunks) * p.Cfg.SegmentBytes()
	return b
}

// detectedLost counts stripe s's lost chunks that belong to detected
// (repairing) disks.
func (p *Pool) detectedLost(s int) int {
	n := 0
	for mask := p.lostMask[s]; mask != 0; mask &= mask - 1 {
		if p.state[p.stripeDisks[s][bits.TrailingZeros64(mask)]] == diskRepairing {
			n++
		}
	}
	return n
}

// HealBatch repairs the batch's detected lost chunks and returns the
// disks that became fully healthy again, in a buffer the pool reuses:
// it stays valid until the next HealBatch or HealStripeChunks call.
func (p *Pool) HealBatch(b *repairBatch) (healedDisks []int) {
	p.healed = p.healed[:0]
	for _, s := range b.stripes {
		from := p.readyKey(s)
		for mask := p.lostMask[s]; mask != 0; mask &= mask - 1 {
			m := bits.TrailingZeros64(mask)
			d := p.stripeDisks[s][m]
			if p.state[d] != diskRepairing {
				continue
			}
			p.lostMask[s] &^= 1 << uint(m)
			p.lostCount[s]--
			p.detLost[s]--
			p.diskLost[d]--
			if p.diskLost[d] == 0 {
				p.state[d] = diskHealthy
				p.failedCount--
				p.detected--
				p.healed = append(p.healed, d)
			}
		}
		p.moveReady(s, from, p.readyKey(s))
	}
	return p.healed
}

// HealAll instantly restores the pool to pristine state (used after a
// catastrophic event is handed to the network level).
func (p *Pool) HealAll() {
	clear(p.lostMask)
	clear(p.lostCount)
	clear(p.state)
	clear(p.diskLost)
	clear(p.detLost)
	clear(p.ready)
	clear(p.readyByPrio)
	p.failedCount = 0
	p.detected = 0
}

// RandomHealthyDisk returns a uniformly random healthy disk id.
func (p *Pool) RandomHealthyDisk(rng *rand.Rand) int {
	if p.failedCount == p.Cfg.Disks {
		//lint:allow nakedpanic callers only ask while the pool has survivors; an empty pool is a simulator-state invariant violation
		panic("poolsim: no healthy disk")
	}
	for {
		d := rng.Intn(p.Cfg.Disks)
		if p.state[d] == diskHealthy {
			return d
		}
	}
}

// LostStripeIDs returns the ids of stripes currently beyond local
// recovery, for network-level repair bookkeeping.
func (p *Pool) LostStripeIDs() []int {
	var ids []int
	pl := uint8(p.Cfg.Parity)
	for s, c := range p.lostCount {
		if c > pl {
			ids = append(ids, s)
		}
	}
	return ids
}

// StripeLostCount returns stripe s's current lost-chunk count.
func (p *Pool) StripeLostCount(s int) int { return int(p.lostCount[s]) }

// HealStripeChunks rebuilds up to n of stripe s's lost chunks, lowest
// member first (network repair can restore chunks of undetected disks
// too — the network repairer has its own maps). Returns the disks that
// became fully healthy, in the buffer HealBatch also uses.
func (p *Pool) HealStripeChunks(s, n int) (healedDisks []int) {
	p.healed = p.healed[:0]
	from := p.readyKey(s)
	for mask := p.lostMask[s]; mask != 0 && n != 0; mask &= mask - 1 {
		m := bits.TrailingZeros64(mask)
		d := p.stripeDisks[s][m]
		p.lostMask[s] &^= 1 << uint(m)
		p.lostCount[s]--
		p.diskLost[d]--
		n--
		repairing := p.state[d] == diskRepairing
		if repairing {
			p.detLost[s]--
		}
		if p.diskLost[d] == 0 {
			if repairing {
				p.detected--
			}
			p.state[d] = diskHealthy
			p.failedCount--
			p.healed = append(p.healed, d)
		}
	}
	p.moveReady(s, from, p.readyKey(s))
	return p.healed
}

// VolumeBytes returns the batch's reconstruction volume, for drivers
// outside this package (syssim).
func (b *repairBatch) VolumeBytes() float64 { return b.volumeBytes }

// Priority returns the batch's stripe damage level.
func (b *repairBatch) Priority() int { return b.priority }
