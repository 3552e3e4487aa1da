package poolsim_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mlec/internal/failure"
	"mlec/internal/placement"
	"mlec/internal/poolsim"
	"mlec/internal/repair"
	"mlec/internal/syssim"
	"mlec/internal/topology"
)

// update regenerates the golden files instead of comparing against them:
//
//	go test ./internal/poolsim -run TestGolden -update
//
// The files pin fixed-seed outputs across commits. A change that is meant
// to keep every output must pass without -update.
var update = flag.Bool("update", false, "rewrite testdata/golden from the current engine")

// checkGolden compares got with testdata/golden/name, or rewrites the
// file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the pinned output\n got: %s\nwant: %s", name, got, want)
	}
}

// splitGeometries are the paper's stage-1 pools (Figures 7 and 10): the
// 20-disk clustered (17+3) pool and the 120-disk declustered enclosure.
func splitGeometries() map[string]poolsim.Config {
	base := poolsim.Config{
		Width: 20, Parity: 3,
		DiskCapacityBytes:   20e12,
		DiskRepairBW:        40e6,
		DetectionDelayHours: failure.DefaultDetectionDelayHours,
	}
	cp, dp := base, base
	cp.Disks, cp.Clustered, cp.SegmentsPerDisk = 20, true, 100
	dp.Disks, dp.SegmentsPerDisk = 120, 240
	return map[string]poolsim.Config{"split_cp20.txt": cp, "split_dp120.txt": dp}
}

// hotDp16 is a small declustered pool whose failure and repair rates make
// deep levels and catastrophes common, so the pins below cover many
// repair batches per trajectory.
func hotDp16() poolsim.Config {
	return poolsim.Config{
		Disks: 16, Width: 8, Parity: 2,
		SegmentsPerDisk:     64,
		DiskCapacityBytes:   1e12,
		DiskRepairBW:        5e6,
		DetectionDelayHours: 0.5,
	}
}

func TestGoldenSplit(t *testing.T) {
	ttf := failure.MustExponentialAFR(0.01)
	for name, cfg := range splitGeometries() {
		res, err := poolsim.Split(cfg, ttf, poolsim.SplitConfig{TrajectoriesPerLevel: 2000, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, name, fmt.Sprintf("%+v\n", res))
	}
	res, err := poolsim.Split(hotDp16(), failure.MustExponentialAFR(0.5), poolsim.SplitConfig{TrajectoriesPerLevel: 2000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "split_hot_dp16.txt", fmt.Sprintf("%+v\n", res))
}

func TestGoldenLongRun(t *testing.T) {
	stats, err := poolsim.LongRun(hotDp16(), failure.Exponential{RatePerHour: 3e-4}, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CatastrophicCount == 0 {
		t.Fatal("no catastrophes: the run does not reach HealAll")
	}
	checkGolden(t, "longrun_dp16.txt", fmt.Sprintf("%+v\n", stats))
}

// TestGoldenSysSim pins a small failure-dense datacenter under R_MIN:
// local pools repair through NextBatch/HealBatch, and every catastrophic
// pool is brought back to pl losses through HealStripeChunks.
func TestGoldenSysSim(t *testing.T) {
	topo := topology.Default()
	topo.Racks = 6
	topo.EnclosuresPerRack = 1
	topo.DisksPerEnclosure = 12
	topo.DiskCapacityBytes = 2e12
	topo.DiskBandwidth = 10e6
	cfg := syssim.Config{
		Topo:            topo,
		Params:          placement.Params{KN: 2, PN: 1, KL: 4, PL: 2},
		Scheme:          placement.SchemeDD,
		Method:          repair.RMin,
		SegmentsPerDisk: 24,
		TTF:             failure.MustExponentialAFR(0.5),
	}
	stats, err := syssim.Run(cfg, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CatastrophicEvents == 0 {
		t.Fatal("no catastrophic pools: the run does not reach HealStripeChunks")
	}
	checkGolden(t, "syssim_dd_rmin.txt", fmt.Sprintf("%+v\n", stats))
}
