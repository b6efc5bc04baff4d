// Command proof-check runs the CRDT-TS proof method (Sec 8) for the seven
// UCR algorithms the paper verifies, printing each proof obligation's
// outcome — the executable counterpart of the paper's Examples paragraph.
//
// Usage:
//
//	proof-check [-seeds 6] [-steps 40] [-algo rga]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/crdts/registry"
	"repro/internal/proofmethod"
)

func main() {
	var (
		algo  = flag.String("algo", "all", "algorithm name, or 'all' for the seven UCR algorithms")
		seeds = flag.Int("seeds", 6, "randomized executions sampled per algorithm")
		steps = flag.Int("steps", 40, "scheduler steps per execution")
	)
	flag.Parse()
	if *seeds < 0 || *steps < 0 {
		fmt.Fprintf(os.Stderr, "proof-check: -seeds and -steps must be non-negative (got %d, %d)\n", *seeds, *steps)
		os.Exit(2)
	}
	cfg := proofmethod.Config{Seeds: *seeds, Steps: *steps}
	var reports []proofmethod.Report
	if *algo == "all" {
		reports = proofmethod.CheckAll(cfg)
	} else {
		alg, ok := registry.ByName(*algo)
		if !ok {
			fmt.Fprintf(os.Stderr, "proof-check: unknown algorithm %q\n", *algo)
			os.Exit(2)
		}
		reports = []proofmethod.Report{proofmethod.Check(alg, cfg)}
	}
	failed := false
	for _, r := range reports {
		fmt.Print(r)
		if r.Err() != nil {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("\nall %d algorithm(s) discharge the CRDT-TS obligations (Theorem 8 ⇒ ACC)\n", len(reports))
}
