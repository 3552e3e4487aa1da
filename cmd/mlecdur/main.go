// Command mlecdur estimates system durability (nines of annual PDL) for
// an MLEC scheme under each of the four repair methods, optionally using
// the event-driven splitting simulator for stage 1.
//
// Usage:
//
//	mlecdur -scheme C/D
//	mlecdur -scheme D/D -sim -trajectories 30000
//	mlecdur -scheme D/D -sim -timeout 30s -checkpoint dur.ckpt
//
// With -sim, the run is interruptible: a -timeout deadline or a single
// Ctrl-C drains in-flight trajectories and prints partial estimates with
// honestly widened bounds (a second Ctrl-C exits immediately). With
// -checkpoint, completed splitting levels are saved so re-running the
// identical command resumes where the campaign left off and finishes
// with exactly the result an uninterrupted run would have produced.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"mlec"
	"mlec/internal/faultinject"
	"mlec/internal/obs"
	"mlec/internal/runctl"
)

func fatalUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mlecdur: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "run 'mlecdur -h' for usage")
	os.Exit(2)
}

func main() {
	schemeName := flag.String("scheme", "C/D", "MLEC scheme: C/C, C/D, D/C, D/D")
	afr := flag.Float64("afr", 0.01, "annual disk failure rate")
	sim := flag.Bool("sim", false, "use the event-driven splitting simulator for stage 1")
	trajectories := flag.Int("trajectories", 20000, "splitting trajectories per level")
	seed := flag.Int64("seed", 1, "RNG seed")
	kn := flag.Int("kn", 10, "network data units")
	pn := flag.Int("pn", 2, "network parity units")
	kl := flag.Int("kl", 17, "local data chunks")
	pl := flag.Int("pl", 3, "local parity chunks")
	timeout := flag.Duration("timeout", 0, "wall-clock budget (0 = none); partial results on expiry")
	checkpoint := flag.String("checkpoint", "", "checkpoint file for the splitting campaign (with -sim)")
	watchdog := flag.Duration("watchdog", 0, "stall watchdog interval (0 = off); warns when live workers stop progressing")
	obsFlags := obs.BindCLIFlags(flag.CommandLine)
	chaosFlags := faultinject.BindCLIFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "mlecdur: unexpected argument %q; every option is a flag\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	if *trajectories <= 0 {
		fatalUsage("-trajectories must be positive, got %d", *trajectories)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"-kn", *kn}, {"-pn", *pn}, {"-kl", *kl}, {"-pl", *pl}} {
		if f.v <= 0 {
			fatalUsage("%s must be positive, got %d", f.name, f.v)
		}
	}
	if math.IsNaN(*afr) || math.IsInf(*afr, 0) {
		fatalUsage("-afr must be finite, got %v", *afr)
	}

	schemes := map[string]mlec.Scheme{
		"C/C": mlec.SchemeCC, "C/D": mlec.SchemeCD,
		"D/C": mlec.SchemeDC, "D/D": mlec.SchemeDD,
	}
	scheme, ok := schemes[*schemeName]
	if !ok {
		fatalUsage("unknown scheme %q", *schemeName)
	}

	obsFlags.SetSeed(*seed)
	stopObs, err := obsFlags.Activate(os.Stderr)
	if err != nil {
		fatalUsage("%v", err)
	}
	defer stopObs()
	stopChaos, err := chaosFlags.Activate(os.Stderr)
	if err != nil {
		fatalUsage("%v", err)
	}
	defer stopChaos()

	ctx, stop := runctl.CLIContext(*timeout)
	defer stop()
	defer runctl.StartWatchdog(*watchdog, os.Stderr)()

	params := mlec.Params{KN: *kn, PN: *pn, KL: *kl, PL: *pl}
	ests, err := mlec.EstimateDurabilityContext(ctx, mlec.DefaultTopology(), params, scheme, mlec.DurabilityOptions{
		AFR: *afr, UseSimulation: *sim, Trajectories: *trajectories, Seed: *seed,
		CheckpointPath: *checkpoint,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlecdur: %v\n", err)
		stopObs() // os.Exit skips defers; flush the trace first
		os.Exit(1)
	}
	stage := "Markov (R_ALL view)"
	if *sim {
		stage = fmt.Sprintf("splitting simulator (%d trajectories/level)", *trajectories)
	}
	fmt.Printf("%s %v at %.1f%% AFR — stage 1: %s\n", *schemeName, params, *afr*100, stage)
	fmt.Printf("%-8s  %-22s  %-14s  %-12s  %s\n", "method", "cat rate (/pool/h)", "window (h)", "annual PDL", "nines")
	for _, e := range ests {
		fmt.Printf("%-8v  %-22.3g  %-14.1f  %-12.3g  %.1f\n",
			e.Method, e.CatRatePerPoolHour, e.WindowHours, e.AnnualPDL, e.Nines)
	}
	if len(ests) > 0 && ests[0].Partial {
		fmt.Printf("PARTIAL: splitting campaign interrupted; annual PDL bounded by [%.3g, %.3g] for %v.\n",
			ests[0].AnnualPDLLo, ests[0].AnnualPDLHi, ests[0].Method)
		if *checkpoint != "" {
			fmt.Printf("Re-run the same command to resume from %s.\n", *checkpoint)
		} else {
			fmt.Println("Pass -checkpoint to make interrupted campaigns resumable.")
		}
	}
}
