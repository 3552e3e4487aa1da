package poolsim

import (
	"fmt"
	"math/bits"
	"sort"

	"mlec/internal/failure"
	"mlec/internal/obs"
)

// splitCheckpointKind names split checkpoints inside the runctl
// envelope; LoadCheckpoint rejects files written by other estimators.
const splitCheckpointKind = "poolsim.split"

// splitFingerprint binds a checkpoint to the exact campaign that wrote
// it: any change to the pool geometry, failure rate, trajectory budget,
// or seed changes every RNG stream, so resuming across it would mix
// incompatible statistics.
func splitFingerprint(cfg Config, ttf failure.Exponential, n, maxLevel int, seed int64) string {
	return fmt.Sprintf("cfg=%+v|lambda=%g|n=%d|maxLevel=%d|seed=%d",
		cfg, ttf.RatePerHour, n, maxLevel, seed)
}

// splitCheckpoint is the level-boundary estimator state. Together with
// the (seed, level, index)-pure trajectory RNGs it is everything needed
// to continue the campaign exactly as an uninterrupted run would.
type splitCheckpoint struct {
	NextLevel         int            `json:"next_level"`
	Weight            float64        `json:"weight"`
	RateSum           float64        `json:"rate_sum"` // Σ w_i·catFrac_i, pre-β0
	VarSum            float64        `json:"var_sum"`  // Σ w_i²·p_i(1−p_i)/n_i, pre-β0²
	LevelProbs        []float64      `json:"level_probs"`
	CatFractions      []float64      `json:"cat_fractions"`
	LevelTrajectories []int          `json:"level_trajectories"`
	EntryShortfall    []int          `json:"entry_shortfall,omitempty"`
	Samples           []CatSample    `json:"samples,omitempty"`
	Entries           []snapshotJSON `json:"entries"`
}

// snapshotJSON is the sparse wire form of a level-entry snapshot: the
// pool layout is rebuilt deterministically from (cfg, seed), so only
// deviations from the pristine pool are stored.
type snapshotJSON struct {
	// Disks lists non-healthy disks and their lifecycle state.
	Disks []diskJSON `json:"disks,omitempty"`
	// Stripes lists stripes with at least one lost chunk.
	Stripes []stripeJSON `json:"stripes,omitempty"`
	// Detect lists undetected failed disks and the hours until their
	// failure is noticed, sorted by disk id.
	Detect []detectJSON `json:"detect,omitempty"`
}

type diskJSON struct {
	D int   `json:"d"`
	S uint8 `json:"s"`
}

type stripeJSON struct {
	S int    `json:"s"`
	M uint64 `json:"m"`
}

type detectJSON struct {
	D int     `json:"d"`
	R float64 `json:"r"`
}

// encodeSnapshots converts level entries to their sparse wire form and
// feeds the poolsim_split_snapshot_disks histogram, which tracks how
// dense the sparse encoding actually is — the knob that decides whether
// checkpoints stay cheap at depth.
func encodeSnapshots(entries []*snapshot) []snapshotJSON {
	sizes := obs.Default.Histogram("poolsim_split_snapshot_disks",
		1, 2, 4, 8, 16, 32, 64)
	out := make([]snapshotJSON, len(entries))
	for i, e := range entries {
		var sj snapshotJSON
		for d, st := range e.pool.state {
			if st != diskHealthy {
				sj.Disks = append(sj.Disks, diskJSON{D: d, S: uint8(st)})
			}
		}
		for s, m := range e.pool.lostMask {
			if m != 0 {
				sj.Stripes = append(sj.Stripes, stripeJSON{S: s, M: m})
			}
		}
		for d, rem := range e.detectRemaining {
			sj.Detect = append(sj.Detect, detectJSON{D: d, R: rem})
		}
		sort.Slice(sj.Detect, func(a, b int) bool { return sj.Detect[a].D < sj.Detect[b].D })
		sizes.Observe(float64(len(sj.Disks)))
		out[i] = sj
	}
	return out
}

// decodeSnapshots rebuilds level entries by cloning the pristine base
// pool and replaying each sparse snapshot onto it, re-deriving the
// redundant counters (lost counts, per-disk loss, failed/detected
// totals, the ready index) from the masks. Malformed snapshots —
// out-of-range ids, mask bits beyond the stripe width, inconsistent disk
// states — are errors: a checkpoint that fails validation must not
// silently seed a campaign.
func decodeSnapshots(base *Pool, in []snapshotJSON) ([]*snapshot, error) {
	cfg := base.Cfg
	entries := make([]*snapshot, 0, len(in))
	for i, sj := range in {
		p := base.Clone()
		for _, dj := range sj.Disks {
			if dj.D < 0 || dj.D >= cfg.Disks {
				return nil, fmt.Errorf("entry %d: disk %d out of range", i, dj.D)
			}
			st := diskState(dj.S)
			if st != diskFailedUndetected && st != diskRepairing {
				return nil, fmt.Errorf("entry %d: disk %d has invalid state %d", i, dj.D, dj.S)
			}
			p.state[dj.D] = st
			p.failedCount++
			if st == diskRepairing {
				p.detected++
			}
		}
		for _, tj := range sj.Stripes {
			if tj.S < 0 || tj.S >= len(p.lostMask) {
				return nil, fmt.Errorf("entry %d: stripe %d out of range", i, tj.S)
			}
			if cfg.Width < 64 && tj.M>>uint(cfg.Width) != 0 {
				return nil, fmt.Errorf("entry %d: stripe %d mask %#x exceeds width %d", i, tj.S, tj.M, cfg.Width)
			}
			p.lostMask[tj.S] = tj.M
			p.lostCount[tj.S] = uint8(bits.OnesCount64(tj.M))
			for m, d := range p.stripeDisks[tj.S] {
				if tj.M&(1<<uint(m)) != 0 {
					p.diskLost[d]++
				}
			}
		}
		for d := range p.diskLost {
			if p.diskLost[d] > 0 && p.state[d] == diskHealthy {
				return nil, fmt.Errorf("entry %d: healthy disk %d owns lost chunks", i, d)
			}
		}
		p.rebuildIndex()
		rem := make(map[int]float64, len(sj.Detect))
		for _, dj := range sj.Detect {
			if dj.D < 0 || dj.D >= cfg.Disks || p.state[dj.D] != diskFailedUndetected {
				return nil, fmt.Errorf("entry %d: detect countdown for disk %d which is not failed-undetected", i, dj.D)
			}
			if !(dj.R >= 0) {
				return nil, fmt.Errorf("entry %d: disk %d has invalid detect countdown %g", i, dj.D, dj.R)
			}
			rem[dj.D] = dj.R
		}
		entries = append(entries, &snapshot{pool: p, detectRemaining: rem})
	}
	return entries, nil
}
