// Command bench-report turns `go test -bench` output into the markdown
// tables EXPERIMENTS.md records — or, with -json, into the machine-readable
// arrays checked in as BENCH_*.json — grouping sub-benchmarks under their
// parent:
//
//	go test -bench=. -benchmem . | go run ./cmd/bench-report
//	go test -bench=ExploreParallel . | go run ./cmd/bench-report -json -group ExploreParallel -out BENCH_explore.json
//
// With -baseline it also gates the parsed rows against a checked-in
// BENCH_*.json: any case whose ns/op worsened by more than -tolerance exits
// nonzero (after writing -out, so the artifact of a failing run survives for
// inspection), and so does a baseline case of the -group (of every group
// without one) that the run did not produce — a deleted or renamed benchmark
// must leave the baseline in the same change. Cases new in the run stay
// ungated. -alloc-tolerance and -bytes-tolerance extend the gate to
// allocs/op and B/op (negative, the default, leaves each disabled):
//
//	go test -bench=StreamThroughput -benchmem ./internal/transport/ | go run ./cmd/bench-report -json -baseline BENCH_transport.json -tolerance 0.25 -alloc-tolerance 0.34
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/benchreport"
)

func main() {
	var (
		asJSON    = flag.Bool("json", false, "emit JSON rows instead of markdown tables")
		out       = flag.String("out", "", "write to this file instead of stdout")
		group     = flag.String("group", "", "keep only rows of this benchmark group (name without the Benchmark prefix)")
		baseline  = flag.String("baseline", "", "gate against this BENCH_*.json baseline: exit 1 when a case regresses past -tolerance")
		tolerance = flag.Float64("tolerance", 0.25, "allowed ns/op growth over the baseline before the gate fails (0.25 = +25%)")
		allocTol  = flag.Float64("alloc-tolerance", -1, "allowed allocs/op growth over the baseline (0.34 = +34%); negative disables the allocs gate")
		bytesTol  = flag.Float64("bytes-tolerance", -1, "allowed B/op growth over the baseline; negative disables the bytes gate")
		best      = flag.Bool("best", false, "collapse duplicate cases (go test -count=N) to each case's fastest run")
		worst     = flag.Bool("worst", false, "collapse duplicate cases to each case's slowest run (for recording a conservative baseline)")
	)
	flag.Parse()
	// A baseline-named output anywhere but the baseline's own path is how a
	// stray bench_transport.json once landed in the repo root: a run writes
	// what looks like the checked-in baseline, and a later `git add -A`
	// commits it. Refuse the footgun — write either the canonical baseline
	// (same cleaned path) or a file that cannot be mistaken for it.
	if *out != "" && *baseline != "" &&
		strings.EqualFold(filepath.Base(*out), filepath.Base(*baseline)) &&
		filepath.Clean(*out) != filepath.Clean(*baseline) {
		fmt.Fprintf(os.Stderr,
			"bench-report: -out %q shadows the baseline %q outside its canonical path; name the output differently (e.g. bench-current.json) or write the baseline in place\n",
			*out, *baseline)
		os.Exit(1)
	}
	rows, err := benchreport.Parse(bufio.NewReader(os.Stdin))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench-report: %v\n", err)
		os.Exit(1)
	}
	if *group != "" {
		rows = benchreport.Filter(rows, *group)
	}
	if *best && *worst {
		fmt.Fprintln(os.Stderr, "bench-report: -best and -worst are mutually exclusive")
		os.Exit(1)
	}
	if *best {
		rows = benchreport.Best(rows)
	}
	if *worst {
		rows = benchreport.Worst(rows)
	}
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "bench-report: no benchmark lines found on stdin")
		os.Exit(1)
	}
	var rendered []byte
	if *asJSON {
		rendered, err = benchreport.JSON(rows)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-report: %v\n", err)
			os.Exit(1)
		}
	} else {
		rendered = []byte(benchreport.Markdown(rows))
	}
	if *out == "" {
		os.Stdout.Write(rendered)
	} else if err := os.WriteFile(*out, rendered, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench-report: %v\n", err)
		os.Exit(1)
	}
	if *baseline == "" {
		return
	}
	raw, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench-report: %v\n", err)
		os.Exit(1)
	}
	base, err := benchreport.ReadJSON(raw)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench-report: %v\n", err)
		os.Exit(1)
	}
	tol := benchreport.Tolerance{NsPerOp: *tolerance, AllocsPerOp: *allocTol, BytesPerOp: *bytesTol}
	regs := benchreport.Compare(rows, base, tol)
	missing := benchreport.Missing(rows, base, *group)
	if len(regs) == 0 && len(missing) == 0 {
		fmt.Fprintf(os.Stderr, "bench-report: no case regressed more than %.0f%% vs %s\n", *tolerance*100, *baseline)
		return
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "bench-report: %d baseline case(s) of %s missing from the run (drop them from the baseline if the benchmark is gone):\n", len(missing), *baseline)
		for _, m := range missing {
			fmt.Fprintf(os.Stderr, "  %s\n", m)
		}
	}
	if len(regs) > 0 {
		fmt.Fprintf(os.Stderr, "bench-report: %d regression(s) vs %s:\n", len(regs), *baseline)
		for _, r := range regs {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
	}
	os.Exit(1)
}
