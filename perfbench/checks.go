package main

import (
	"bytes"
	"fmt"
	"math"

	"mlec/internal/burst"
	"mlec/internal/cluster"
	"mlec/internal/mathx"
	"mlec/internal/poolsim"
	"mlec/internal/syssim"
)

// The checks are statistical, not byte pins: an intended change of RNG
// draw order still passes them, while a wrong estimator or a broken
// codec does not. Each returns nil or the reason the result is wrong.

// checkAlpha is the two-sided false-alarm probability of one
// statistical check; with a few hundred checks per run a correct engine
// fails one about once in three thousand runs. checkClusteredSplit is
// the exception: its rate is measured, not derived.
const checkAlpha = 1e-6

// checkZ is the normal deviate with two-sided tail checkAlpha.
const checkZ = 4.89

// checkLocCpCell compares a Loc-Cp Monte-Carlo cell with the exact
// dynamic-programming PDL. Each Loc-Cp trial is a 0/1 outcome, so the
// estimate's hit count is Binomial(n, exact): the cell fails when that
// count lies in a binomial tail of probability below checkAlpha/2. The
// engine's own interval is not used: it is a Wald interval that
// collapses to [0, 0] on zero-hit cells.
func checkLocCpCell(r burst.Result, exact float64) error {
	if r.Partial || r.Trials <= 0 {
		return fmt.Errorf("Loc-Cp x=%d y=%d: incomplete cell (%d trials)", r.Racks, r.Failures, r.Trials)
	}
	if math.IsNaN(exact) || math.IsNaN(r.PDL) {
		return fmt.Errorf("Loc-Cp x=%d y=%d: NaN estimate %g or reference %g", r.Racks, r.Failures, r.PDL, exact)
	}
	n := r.Trials
	k := int(math.Round(r.PDL * float64(n)))
	if math.Abs(float64(k)-r.PDL*float64(n)) > 1e-6 {
		return fmt.Errorf("Loc-Cp x=%d y=%d: estimate %g is not a hit count over %d trials", r.Racks, r.Failures, r.PDL, n)
	}
	upper := mathx.BinomialTail(n, exact, k)       // P(X ≥ k)
	lower := 1 - mathx.BinomialTail(n, exact, k+1) // P(X ≤ k)
	if upper < checkAlpha/2 || lower < checkAlpha/2 {
		return fmt.Errorf("Loc-Cp x=%d y=%d: estimate %g (%d/%d hits) is inconsistent with exact PDL %g (tails %.3g, %.3g)",
			r.Racks, r.Failures, r.PDL, k, n, exact, lower, upper)
	}
	return nil
}

// mlecExactZero reports whether an MLEC cell lies in EXPERIMENTS.md
// F#3's exact-zero region: a burst over at most pn racks, or with at
// most eight failures beyond one per rack, can never lose a network
// stripe.
func mlecExactZero(x, y, pn int) bool { return x <= pn || y <= x+8 }

// checkMLECCell requires an exact 0 inside the exact-zero region and a
// finite probability elsewhere.
func checkMLECCell(scheme string, r burst.Result, pn int) error {
	if r.Partial || r.Trials <= 0 {
		return fmt.Errorf("%s x=%d y=%d: incomplete cell (%d trials)", scheme, r.Racks, r.Failures, r.Trials)
	}
	if mlecExactZero(r.Racks, r.Failures, pn) && r.PDL != 0 {
		return fmt.Errorf("%s x=%d y=%d: PDL %g in the exact-zero region", scheme, r.Racks, r.Failures, r.PDL)
	}
	if math.IsNaN(r.PDL) || r.PDL < 0 || r.PDL > 1 {
		return fmt.Errorf("%s x=%d y=%d: PDL %g outside [0,1]", scheme, r.Racks, r.Failures, r.PDL)
	}
	return nil
}

// splitFactor bounds how far the clustered pool's splitting estimate may
// sit from the Markov R_ALL chain's rate, either way. The rate scales
// with the cube of failure rate × repair time, so a factor of 30 on the
// rate still catches a factor of 3 in either.
const splitFactor = 30

// checkClusteredSplit requires the mean of a run's clustered-pool
// estimates to be positive and within splitFactor of the Markov R_ALL
// chain's rate: in a clustered pool every stripe spans every disk, so
// the chain models the same pool.
//
// One campaign is too few. Its estimate rests on about ten catastrophic
// trajectories at level 3, and the trajectories of every level past the
// first are resampled from the few dozen distinct states the previous
// level reached (SplitResult.EntryShortfall flags it), so the count is
// overdispersed, and a campaign that sees none estimates 0. In 150
// correct campaigns the count had mean 10.8 and variance 13.0 and was
// never 0, which bounds the per-campaign zero rate only below 2%; a
// negative binomial fit puts it at 6e-5. The check therefore runs once
// per run over all of its campaigns, at least two, and fails a correct
// engine only when every one of them sees no level-3 catastrophe.
// The engine's own interval treats the resampled trajectories as
// independent and is not used.
func checkClusteredSplit(runs []poolsim.SplitResult, markovRate float64) error {
	if len(runs) == 0 {
		return fmt.Errorf("clustered split: no campaign completed")
	}
	var sum float64
	for _, r := range runs {
		if r.Partial {
			return fmt.Errorf("clustered split: partial result")
		}
		sum += r.CatRatePerPoolHour
	}
	mean := sum / float64(len(runs))
	if ratio := mean / markovRate; !(ratio >= 1.0/splitFactor && ratio <= splitFactor) {
		return fmt.Errorf("clustered split: mean rate %.4g/h over %d campaigns is %.3g times the Markov rate %.4g/h",
			mean, len(runs), ratio, markovRate)
	}
	return nil
}

// checkFig7Order requires Figure 7's order: the declustered-local
// system rate lies below the clustered-local one. The clustered side is
// the Markov chain's rate, exact for a clustered pool (its splitting
// estimate is checked against it above): comparing two estimates would
// inherit the clustered estimate's rare tenfold undershoots.
func checkFig7Order(dp poolsim.SplitResult, markovCpRate float64, cpPools, dpPools int) error {
	if dp.Partial {
		return fmt.Errorf("declustered split: partial result")
	}
	cpRate := markovCpRate * float64(cpPools)
	dpRate := dp.CatRatePerPoolHour * float64(dpPools)
	if !(cpRate > dpRate) {
		return fmt.Errorf("Fig 7 order: clustered system rate %.4g/h not above declustered %.4g/h", cpRate, dpRate)
	}
	return nil
}

// checkFleetRun requires a complete run, no stranded stripes, and a
// disk-failure count within a Poisson bound of the expected count.
func checkFleetRun(scheme string, st syssim.Stats, disks int, ratePerYear, years float64) error {
	if st.Partial {
		return fmt.Errorf("%s: partial run", scheme)
	}
	if st.StrandedStripes != 0 {
		return fmt.Errorf("%s: %d stranded stripes", scheme, st.StrandedStripes)
	}
	// Failed disks are replaced, so the population, and with it the
	// failure rate, stays at `disks`.
	mean := float64(disks) * ratePerYear * years
	if d := math.Abs(float64(st.DiskFailures) - mean); d > checkZ*math.Sqrt(mean) {
		return fmt.Errorf("%s: %d disk failures, expected %.0f ± %.0f", scheme, st.DiskFailures, mean, checkZ*math.Sqrt(mean))
	}
	return nil
}

// checkRead requires a read to return exactly the bytes written.
func checkRead(name string, got, want []byte, err error) error {
	if err != nil {
		return fmt.Errorf("read %s: %w", name, err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("read %s: %d bytes differ from the %d written", name, len(got), len(want))
	}
	return nil
}

// checkRepair requires the repair to have rebuilt data and left no
// catastrophic pool behind.
func checkRepair(rebuiltBytes float64, catPools []int) error {
	if rebuiltBytes <= 0 {
		return fmt.Errorf("repair rebuilt no bytes")
	}
	if len(catPools) > 0 {
		return fmt.Errorf("repair left %d catastrophic pools", len(catPools))
	}
	return nil
}

// checkScrub requires a clean scrub of a fully repaired cluster.
func checkScrub(r cluster.ScrubReport, err error) error {
	if err != nil {
		return fmt.Errorf("scrub: %w", err)
	}
	if !r.Clean() || r.SkippedDegraded != 0 {
		return fmt.Errorf("scrub: %d local and %d network mismatches, %d degraded stripes skipped",
			r.LocalParityMismatches, r.NetworkMismatches, r.SkippedDegraded)
	}
	return nil
}
