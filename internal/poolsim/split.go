package poolsim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"mlec/internal/failure"
	"mlec/internal/faultinject"
	"mlec/internal/obs"
	"mlec/internal/runctl"
	"mlec/internal/sim"
)

// SplitConfig controls the multilevel-splitting (RESTART) estimator of
// the catastrophic-pool rate. Levels are defined by the number of
// concurrently failed disks; level-i trajectories run until either a new
// failure arrives (up-transition, possibly catastrophic) or the pool
// heals completely (down).
type SplitConfig struct {
	// TrajectoriesPerLevel is the number of trajectories simulated at
	// each level (default 20000).
	TrajectoriesPerLevel int
	// MaxLevel caps the cascade depth (default pl+3): contributions
	// from deeper levels are O((λ·T_repair)^depth) smaller.
	MaxLevel int
	Seed     int64
	// CheckpointPath, when non-empty, persists the estimator state
	// after every completed level (versioned, atomic; see runctl) and
	// resumes from a compatible checkpoint at the same path. A resumed
	// run produces statistics identical to an uninterrupted one: the
	// per-trajectory RNG streams are pure functions of (Seed, level,
	// index), so only the level-entry snapshots and completed tallies
	// need to persist.
	CheckpointPath string

	// onLevelDone, when set, runs after each completed level (after the
	// checkpoint write). Test hook for deterministic mid-run
	// cancellation.
	onLevelDone func(level int)
}

// SplitResult is the splitting estimate.
type SplitResult struct {
	// LevelProbs[i] = P(a new failure arrives before full heal | the
	// pool just entered i+1 concurrent failures), for i = 0, 1, ….
	LevelProbs []float64
	// CatFractions[i] = P(the up-transition out of level i+1 is
	// catastrophic | entered level i+1).
	CatFractions []float64
	// LevelTrajectories[i] is the number of trajectories that produced
	// the level-(i+1) tallies.
	LevelTrajectories []int
	// CatRatePerPoolHour is the assembled catastrophic event rate.
	CatRatePerPoolHour float64
	// CatRateLo and CatRateHi bound the rate at 95% confidence:
	// ±1.96 standard errors from the per-level binomial variances
	// (weight uncertainty neglected), with CatRateHi additionally
	// including the exact upper bound on the unexplored deeper levels
	// (the residual splitting weight — every deeper cascade is at most
	// certain). A Partial run therefore reports an honestly widened
	// interval: the missing levels show up as tail slack in CatRateHi.
	CatRateLo, CatRateHi float64
	// Samples holds pool states at (simulated) catastrophic events.
	Samples []CatSample
	// EntryShortfall lists the levels whose entry set was thin: the
	// previous level ended in fewer than TrajectoriesPerLevel/10
	// non-catastrophic up-transitions, so the level's trajectories drew
	// each entry snapshot (with replacement) more than ten times on
	// average. It counts up-transitions, not distinct pool states: two
	// entries may hold the same state.
	EntryShortfall []int
	// Partial marks an estimate cut short by context cancellation or
	// deadline: levels beyond the last completed one are missing and
	// CatRateHi carries the full unexplored-tail bound. A partially
	// simulated level is discarded (its trajectories replay from the
	// checkpoint on resume), keeping resumed runs deterministic.
	Partial bool
}

// CatProbPerPoolYear converts the rate to an annual per-pool probability.
func (r SplitResult) CatProbPerPoolYear() float64 {
	return -math.Expm1(-r.CatRatePerPoolHour * failure.HoursPerYear)
}

// snapshot captures a trajectory-independent pool state at a level entry.
type snapshot struct {
	pool *Pool
	// detectRemaining[d] = hours until disk d's failure is detected;
	// only undetected failed disks appear.
	detectRemaining map[int]float64
}

type trajectoryOutcome int

const (
	outcomeDown trajectoryOutcome = iota
	outcomeUp
	outcomeCat
)

// trajSeed derives the pure per-trajectory RNG stream: identical
// regardless of worker scheduling, which is what makes both run-to-run
// reproducibility and checkpoint-resume determinism possible.
func trajSeed(seed int64, level, i int) int64 {
	return seed ^ (int64(level) << 32) ^ int64(i)*0x9e3779b9
}

// Split estimates the catastrophic-pool rate by multilevel splitting.
// The failure process must be exponential (memoryless) — level
// trajectories re-arm failure clocks at entry, which is only valid
// without ageing. Split is SplitContext without cancellation.
func Split(cfg Config, ttf failure.Exponential, sc SplitConfig) (SplitResult, error) {
	return SplitContext(context.Background(), cfg, ttf, sc)
}

// SplitContext is Split under run control: ctx cancellation (or
// deadline) stops the campaign at the next trajectory boundary, drains
// in-flight trajectories, and returns the completed levels as a Partial
// estimate with a widened confidence interval. With a CheckpointPath
// the run resumes from the last completed level instead of restarting.
func SplitContext(ctx context.Context, cfg Config, ttf failure.Exponential, sc SplitConfig) (SplitResult, error) {
	if err := cfg.Validate(); err != nil {
		return SplitResult{}, err
	}
	n := sc.TrajectoriesPerLevel
	if n <= 0 {
		n = 20000
	}
	maxLevel := sc.MaxLevel
	if maxLevel <= 0 {
		maxLevel = cfg.Parity + 3
	}
	if maxLevel < cfg.Parity+1 {
		return SplitResult{}, fmt.Errorf("poolsim: MaxLevel %d below pl+1 = %d", maxLevel, cfg.Parity+1)
	}
	base, err := NewPool(cfg, sc.Seed)
	if err != nil {
		return SplitResult{}, err
	}

	res := SplitResult{}
	lambda := ttf.RatePerHour
	beta0 := float64(cfg.Disks) * lambda // rate of 0 → 1 transitions

	// Running estimator state; persisted at level boundaries.
	var (
		startLevel = 1
		weight     = 1.0 // Π P_j over completed levels
		rateSum    float64
		varSum     float64
		entries    []*snapshot
	)
	fingerprint := splitFingerprint(cfg, ttf, n, maxLevel, sc.Seed)
	resumed := false
	if sc.CheckpointPath != "" {
		var ck splitCheckpoint
		ok, err := runctl.LoadCheckpoint(sc.CheckpointPath, splitCheckpointKind, fingerprint, &ck)
		if err != nil {
			return SplitResult{}, err
		}
		if ok {
			entries, err = decodeSnapshots(base, ck.Entries)
			if err != nil {
				return SplitResult{}, fmt.Errorf("poolsim: checkpoint %s: %w", sc.CheckpointPath, err)
			}
			startLevel = ck.NextLevel
			weight = ck.Weight
			rateSum = ck.RateSum
			varSum = ck.VarSum
			res.LevelProbs = ck.LevelProbs
			res.CatFractions = ck.CatFractions
			res.LevelTrajectories = ck.LevelTrajectories
			res.EntryShortfall = ck.EntryShortfall
			res.Samples = ck.Samples
			resumed = true
		}
	}
	if !resumed {
		// Level-1 entries: fresh pool with one random failed disk. Entries
		// are read-only, so every draw of disk d shares one snapshot.
		rng := rand.New(rand.NewSource(sc.Seed ^ 0x51717))
		perDisk := make([]*snapshot, cfg.Disks)
		entries = make([]*snapshot, 0, n)
		for i := 0; i < n; i++ {
			d := base.RandomHealthyDisk(rng)
			if perDisk[d] == nil {
				p := base.Clone()
				p.FailDisk(d)
				perDisk[d] = &snapshot{
					pool:            p,
					detectRemaining: map[int]float64{d: cfg.DetectionDelayHours},
				}
			}
			entries = append(entries, perDisk[d])
		}
	}

	// Observability: a progress task plus registry gauges. All updates
	// are write-only from the engine's point of view — nothing below
	// ever reads them back — so they cannot perturb the estimate.
	task := obs.Progress.StartTask("poolsim.split", int64(maxLevel)*int64(n))
	defer task.Finish()
	task.SetDone(int64(startLevel-1) * int64(n))
	trialCount := obs.Default.Counter("poolsim_split_trajectories_total")
	trajMeter := obs.Default.Meter("poolsim_split_trajectories_per_sec")
	levelGauge := obs.Default.Gauge("poolsim_split_level")
	occGauge := obs.Default.FloatGauge("poolsim_split_entry_occupancy")
	ciwGauge := obs.Default.FloatGauge("poolsim_split_ci_width")
	levelWall := obs.Default.Histogram("poolsim_split_level_wall_seconds",
		0.1, 0.5, 1, 5, 15, 60, 300, 1800)
	campSpan := obs.StartSpan("poolsim.split")
	lastLevel := startLevel - 1
	defer func() {
		if campSpan != nil {
			campSpan.EndNote(fmt.Sprintf("levels %d..%d seed %d", startLevel, lastLevel, sc.Seed))
		}
	}()

	for level := startLevel; level <= maxLevel && len(entries) > 0; level++ {
		if ctx.Err() != nil {
			res.Partial = true
			break
		}
		levelGauge.Set(int64(level))
		task.SetLevel(level, maxLevel)
		levelSpan := campSpan.Child("poolsim.level")
		levelBegan := time.Now()
		// Trajectories are independent given the entry set; run them on
		// all CPUs through the runctl pool so a panicking trajectory
		// surfaces as a typed error with its RNG stream instead of
		// killing the campaign. Per-trajectory RNGs are seeded by
		// (level, index) so the result is identical regardless of
		// scheduling.
		type slot struct {
			outcome trajectoryOutcome
			next    *snapshot
			cat     *CatSample
			done    bool
		}
		slots := make([]slot, n)
		pool := runctl.NewPool(ctx)
		//lint:allow walltime the span is an opaque obs handle the pool only hands back to obs for stream children; no wall-clock value reaches the simulation
		pool.SetParentSpan(levelSpan)
		workers := runtime.NumCPU()
		if workers > n {
			workers = n
		}
		chunk := (n + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			if hi > n {
				hi = n
			}
			if lo >= hi {
				continue
			}
			level := level
			wstream := trajSeed(sc.Seed, level, lo)
			pool.Go(wstream, func(ctx context.Context) error {
				// Chaos hook: a fault here (panic or error) is healed by
				// the pool re-running this worker from the same stream,
				// recomputing identical slots — the injection point the
				// chaos CI matrix drives.
				if err := faultinject.Fire("poolsim.worker", wstream); err != nil {
					return err
				}
				// Worker-owned scratch state, reset per trajectory:
				// re-seeding gives the same draws as a fresh source.
				var scratch Pool
				trng := rand.New(rand.NewSource(wstream))
				for i := lo; i < hi; i++ {
					if ctx.Err() != nil {
						return nil // drain: finish nothing new, keep what's done
					}
					stream := trajSeed(sc.Seed, level, i)
					var out slot
					if err := runctl.Guard(stream, func() {
						trng.Seed(stream)
						entry := entries[trng.Intn(len(entries))]
						outcome, next, catSample := runTrajectory(cfg, ttf, entry, &scratch, trng)
						out = slot{outcome, next, catSample, true}
					}); err != nil {
						return err
					}
					slots[i] = out
					trialCount.Inc()
					trajMeter.Add(1)
					task.Add(1)
				}
				return nil
			})
		}
		if err := pool.Wait(); err != nil {
			return SplitResult{}, err
		}
		if ctx.Err() != nil {
			// The level is incomplete; discard it so the tallies stay a
			// pure function of (seed, level) and resume replays it.
			if levelSpan != nil {
				levelSpan.EndNote(fmt.Sprintf("level %d cancelled", level))
			}
			res.Partial = true
			break
		}

		var ups, cats int
		nextEntries := make([]*snapshot, 0, n)
		for i := 0; i < n; i++ {
			switch slots[i].outcome {
			case outcomeUp:
				ups++
				nextEntries = append(nextEntries, slots[i].next)
			case outcomeCat:
				ups++
				cats++
				if slots[i].cat != nil {
					res.Samples = append(res.Samples, *slots[i].cat)
				}
			}
		}
		pUp := float64(ups) / float64(n)
		catFrac := float64(cats) / float64(n)
		pCont := float64(ups-cats) / float64(n)
		res.LevelProbs = append(res.LevelProbs, pUp)
		res.CatFractions = append(res.CatFractions, catFrac)
		res.LevelTrajectories = append(res.LevelTrajectories, n)
		rateSum += weight * catFrac
		varSum += weight * weight * catFrac * (1 - catFrac) / float64(n)
		weight *= pCont
		if len(nextEntries) < n/10 {
			res.EntryShortfall = append(res.EntryShortfall, level+1)
		}
		entries = nextEntries

		// Level-boundary observability: entry occupancy, the running CI
		// width, wall time of the level, and a level-promotion trace
		// event. Single-threaded here, so the trace stays deterministic.
		occ := float64(len(nextEntries)) / float64(n)
		occGauge.Set(occ)
		task.SetOccupancy(occ)
		ciw := 2 * 1.96 * beta0 * math.Sqrt(varSum)
		ciwGauge.Set(ciw)
		task.SetCIWidth(ciw)
		levelWall.Observe(time.Since(levelBegan).Seconds())
		obs.Trace.Emit(obs.TraceEvent{
			Kind:  obs.EvLevelPromotion,
			Level: level,
			Note:  fmt.Sprintf("up=%d cat=%d entries=%d", ups, cats, len(nextEntries)),
		})

		if sc.CheckpointPath != "" {
			ck := splitCheckpoint{
				NextLevel:         level + 1,
				Weight:            weight,
				RateSum:           rateSum,
				VarSum:            varSum,
				LevelProbs:        res.LevelProbs,
				CatFractions:      res.CatFractions,
				LevelTrajectories: res.LevelTrajectories,
				EntryShortfall:    res.EntryShortfall,
				Samples:           res.Samples,
				Entries:           encodeSnapshots(entries),
			}
			if err := runctl.SaveCheckpoint(sc.CheckpointPath, splitCheckpointKind, fingerprint, ck); err != nil {
				return SplitResult{}, err
			}
		}
		if sc.onLevelDone != nil {
			sc.onLevelDone(level)
		}
		lastLevel = level
		if levelSpan != nil {
			levelSpan.EndNote(fmt.Sprintf("level %d up=%d cat=%d entries=%d", level, ups, cats, len(nextEntries)))
		}
	}

	res.CatRatePerPoolHour = beta0 * rateSum
	se := beta0 * math.Sqrt(varSum)
	// The residual weight bounds everything not simulated — the levels
	// beyond the loop's end contribute at most weight (each deeper
	// cascade reaches catastrophe with probability ≤ 1). For complete
	// runs this is the (tiny) truncation bound at MaxLevel; for Partial
	// runs it is the honest price of the missing levels.
	tail := beta0 * weight
	res.CatRateLo = res.CatRatePerPoolHour - 1.96*se
	if res.CatRateLo < 0 {
		res.CatRateLo = 0
	}
	res.CatRateHi = res.CatRatePerPoolHour + 1.96*se + tail
	return res, nil
}

// runTrajectory simulates from the entry snapshot until the pool heals
// (down), a new failure arrives (up), or that failure is catastrophic.
// pool is scratch space that the entry's state is copied into.
func runTrajectory(cfg Config, ttf failure.Exponential, entry *snapshot, pool *Pool, rng *rand.Rand) (trajectoryOutcome, *snapshot, *CatSample) {
	pool.CopyFrom(entry.pool)
	eng := sim.New()

	var repairEv *sim.Event
	var replan func()
	replan = func() {
		eng.Cancel(repairEv)
		repairEv = nil
		batch := pool.NextBatch()
		if batch == nil {
			return
		}
		bw := cfg.RepairBW(pool.DetectedDisks())
		hours := batch.volumeBytes / bw / 3600
		repairEv = eng.Schedule(hours, func() {
			repairEv = nil
			pool.HealBatch(batch)
			replan()
		})
	}

	// Schedule detections in ascending disk order: the event queue
	// breaks time ties by insertion sequence, so scheduling straight out
	// of the map would let map iteration order pick which same-time
	// detection fires first.
	detectDisks := make([]int, 0, len(entry.detectRemaining))
	for d := range entry.detectRemaining {
		detectDisks = append(detectDisks, d)
	}
	sort.Ints(detectDisks)
	detectAt := make(map[int]float64, len(entry.detectRemaining))
	for _, d := range detectDisks {
		d, rem := d, entry.detectRemaining[d]
		detectAt[d] = rem
		eng.Schedule(rem, func() {
			pool.DetectDisk(d)
			replan()
		})
	}
	replan()

	// Aggregate next-failure clock: with (D − f) healthy disks and
	// memoryless failures, the next arrival is Exp((D−f)λ); re-armed
	// whenever f changes. Healing changes f only downward (more healthy
	// disks), which we conservatively handle by re-arming inside the
	// run loop below whenever the healthy count changed.
	outcome := outcomeDown
	var next *snapshot
	var catSample *CatSample
	decided := false

	var failEv *sim.Event
	armFailure := func() {
		eng.Cancel(failEv)
		healthy := cfg.Disks - pool.FailedDisks()
		if healthy <= 0 {
			failEv = nil
			return
		}
		delay := rng.ExpFloat64() / (float64(healthy) * ttf.RatePerHour)
		failEv = eng.Schedule(delay, func() {
			failEv = nil
			d := pool.RandomHealthyDisk(rng)
			newlyLost := pool.FailDisk(d)
			if newlyLost > 0 {
				outcome = outcomeCat
				catSample = &CatSample{
					TimeHours:   eng.Now(),
					FailedDisks: pool.FailedDisks(),
					LostStripes: pool.LostStripes(),
					Profile:     pool.Profile(),
				}
			} else {
				outcome = outcomeUp
				// Build the next-level entry snapshot.
				rem := map[int]float64{d: cfg.DetectionDelayHours}
				now := eng.Now()
				for dd, at := range detectAt {
					if pool.DiskState(dd) == int(diskFailedUndetected) && at > now {
						rem[dd] = at - now
					}
				}
				next = &snapshot{pool: pool.Clone(), detectRemaining: rem}
			}
			decided = true
		})
	}

	lastHealthy := cfg.Disks - pool.FailedDisks()
	armFailure()
	for !decided {
		if pool.Healthy() {
			outcome = outcomeDown
			break
		}
		if !eng.Step() {
			// Queue drained without healing — cannot happen: a damaged
			// pool always has a detection or repair event pending.
			// Treat as down to fail safe.
			outcome = outcomeDown
			break
		}
		if h := cfg.Disks - pool.FailedDisks(); h != lastHealthy {
			lastHealthy = h
			if !decided {
				armFailure()
			}
		}
	}
	return outcome, next, catSample
}
