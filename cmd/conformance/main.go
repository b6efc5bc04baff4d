// Command conformance runs the full validation battery for CRDT algorithms:
// specification well-formedness (Def 1, Sec 9), the CRDT-TS obligations
// (Sec 8), witness and exhaustive trace checks (ACC/XACC + SEC), and
// optional client refinement (Thm 7).
//
// Usage:
//
//	conformance [-algo all] [-seeds 8] [-steps 40] [-client 'node t1 {...}']
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/conformance"
	"repro/internal/crdts/registry"
)

func main() {
	var (
		algo    = flag.String("algo", "all", "algorithm name, or 'all'")
		seeds   = flag.Int("seeds", 8, "randomized traces per check")
		steps   = flag.Int("steps", 40, "scheduler steps per trace")
		workers = flag.Int("workers", 0, "workers for the parallel exploration check (0 = GOMAXPROCS)")
		chaos   = flag.Int("chaos-seeds", 0, "fault plans per algorithm for the fault-injection check (0 = derive from -seeds)")
		client  = flag.String("client", "", "client program for the refinement check")
	)
	flag.Parse()
	if *seeds < 0 || *steps < 0 || *chaos < 0 {
		fmt.Fprintf(os.Stderr, "conformance: -seeds, -steps and -chaos-seeds must be non-negative (got %d, %d, %d)\n", *seeds, *steps, *chaos)
		os.Exit(2)
	}
	cfg := conformance.Config{Seeds: *seeds, Steps: *steps, Workers: *workers, ChaosSeeds: *chaos, Client: *client}
	var reports []conformance.Report
	if *algo == "all" {
		reports = conformance.RunAll(cfg)
	} else {
		alg, ok := registry.ByName(*algo)
		if !ok {
			fmt.Fprintf(os.Stderr, "conformance: unknown algorithm %q\n", *algo)
			os.Exit(2)
		}
		reports = []conformance.Report{conformance.Run(alg, cfg)}
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
	fmt.Printf("\nall %d algorithm(s) conform\n", len(reports))
}
