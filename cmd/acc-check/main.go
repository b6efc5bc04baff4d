// Command acc-check generates randomized executions of a CRDT algorithm and
// decides its correctness condition on every trace: ACC (Defs 2–3) for
// UCR algorithms — via the ↣-derived witness or the complete bounded search —
// and XACC (Def 9) for the X-wins sets.
//
// The exhaustive mode caps traces at 8 steps, on -nodes nodes like the
// witness mode. The explore mode instead decides SEC over *every* delivery
// interleaving of short generated scripts, using the parallel
// schedule-exploration engine (sim.ExploreSchedulesParallel) with its
// commutativity reduction.
//
// Usage:
//
//	acc-check -algo rga -seeds 20 -steps 30 [-nodes 3] [-mode witness|exhaustive]
//	acc-check -algo counter -mode explore -workers 4 -stats
//	acc-check -algo rga -save failing.json     # save the first failing schedule
//	acc-check -replay failing.json             # re-check a saved schedule
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/crdts/registry"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	var (
		algo    = flag.String("algo", "rga", "algorithm name, or 'all'")
		nodes   = flag.Int("nodes", 3, "cluster size")
		steps   = flag.Int("steps", 30, "scheduler steps per run")
		seeds   = flag.Int("seeds", 20, "number of randomized runs")
		mode    = flag.String("mode", "witness", "witness (scales), exhaustive (complete, small traces) or explore (all interleavings, parallel)")
		workers = flag.Int("workers", 0, "explorer workers for -mode explore (0 = GOMAXPROCS)")
		stats   = flag.Bool("stats", false, "print explorer statistics (explore mode)")
		save    = flag.String("save", "", "write the first failing schedule (or, if none fails, the first schedule) to this file")
		replay  = flag.String("replay", "", "re-check a schedule saved with -save instead of generating traces")
	)
	flag.Parse()
	if *replay != "" {
		os.Exit(replaySchedule(*replay, *mode))
	}
	sv := &saver{path: *save}
	algs := registry.All()
	if *algo != "all" {
		alg, ok := registry.ByName(*algo)
		if !ok {
			fmt.Fprintf(os.Stderr, "acc-check: unknown algorithm %q\n", *algo)
			os.Exit(2)
		}
		algs = []registry.Algorithm{alg}
	}
	failures := 0
	for _, alg := range algs {
		if *mode == "explore" {
			failures += explore(alg, *nodes, *steps, *seeds, *workers, *stats)
		} else {
			failures += check(alg, *nodes, *steps, *seeds, *mode, sv)
		}
	}
	sv.write()
	if failures > 0 {
		os.Exit(1)
	}
}

// explore decides SEC over every delivery interleaving of short generated
// scripts using the parallel exploration engine.
func explore(alg registry.Algorithm, nodes, steps, seeds, workers int, showStats bool) int {
	ops := steps
	if ops > 6 {
		ops = 6 // complete interleaving exploration needs short scripts
	}
	fmt.Printf("%-14s %-5s mode=%-10s nodes=%d ops=%d: ", alg.Name, "SEC", "explore", nodes, ops)
	failures, checked := 0, 0
	var agg sim.ExploreStats
	for seed := int64(1); seed <= int64(seeds); seed++ {
		script := sim.GenScript(alg.New(), alg.Abs, sim.GenFunc(alg.GenOp), nodes, ops, seed, alg.NeedsCausal)
		_, st, err := sim.ExploreSchedulesParallel(alg.New(), nodes, script, alg.NeedsCausal,
			sim.ParallelConfig{Workers: workers}, func(c *sim.Cluster) error {
				if _, ok := c.Converged(alg.Abs); !ok {
					return fmt.Errorf("replicas diverged at quiescence")
				}
				return nil
			})
		switch {
		case err == nil:
			checked++
		default:
			failures++
			fmt.Printf("\n  seed %d: SEC FAILS: %v\n", seed, err)
		}
		agg.States += st.States
		agg.Terminals += st.Terminals
		agg.Deduped += st.Deduped
		agg.Pruned += st.Pruned
		agg.Revisits += st.Revisits
		if st.PeakFrontier > agg.PeakFrontier {
			agg.PeakFrontier = st.PeakFrontier
		}
	}
	if failures == 0 {
		fmt.Printf("%d/%d scripts satisfy SEC on every schedule\n", checked, seeds)
	}
	if showStats {
		fmt.Printf("  explorer: states=%d terminals=%d deduped=%d pruned=%d revisits=%d peak-frontier=%d\n",
			agg.States, agg.Terminals, agg.Deduped, agg.Pruned, agg.Revisits, agg.PeakFrontier)
	}
	return failures
}

// check decides alg's consistency condition and SEC on seeds generated
// traces, offering each to sv, and returns the number of failures.
func check(alg registry.Algorithm, nodes, steps, seeds int, mode string, sv *saver) int {
	cond := "ACC"
	if alg.IsX() {
		cond = "XACC"
	}
	if mode == "exhaustive" && steps > 8 {
		steps = 8 // complete decisions need bounded traces
	}
	fmt.Printf("%-14s %-5s mode=%-10s nodes=%d steps=%d: ", alg.Name, cond, mode, nodes, steps)
	failures := 0
	checked := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		w := sim.Workload{
			Object: alg.New(),
			Abs:    alg.Abs,
			Gen:    sim.GenFunc(alg.GenOp),
			Nodes:  nodes,
			Steps:  steps,
			Causal: alg.NeedsCausal,
		}
		tr := w.Run(seed).Trace()
		before := failures
		// A decider error means the trace exceeded the decidable bound: skip it.
		if res, err := decide(alg, tr, mode); err == nil {
			checked++
			if !res.OK {
				failures++
				fmt.Printf("\n  seed %d: %s FAILS: %s\n", seed, cond, res.Reason)
			}
			if cvErr := core.CheckConvergenceFrom(tr, alg.New().Init(), alg.Abs); cvErr != nil {
				failures++
				fmt.Printf("\n  seed %d: SEC FAILS: %v\n", seed, cvErr)
			}
		}
		sv.offer(alg, tr, nodes, failures > before)
	}
	if failures == 0 {
		fmt.Printf("%d/%d traces satisfy %s and SEC\n", checked, seeds, cond)
	}
	return failures
}

// decide runs mode's checker for alg's consistency condition on tr: XACC for
// the X-wins sets, ACC otherwise, by the complete bounded search in
// exhaustive mode and by the ↣-derived witness in any other.
func decide(alg registry.Algorithm, tr trace.Trace, mode string) (core.Result, error) {
	p := core.Problem{Object: alg.New(), Spec: alg.Spec, Abs: alg.Abs}
	switch {
	case alg.IsX() && mode == "exhaustive":
		return core.CheckXACC(tr, core.XProblem{Problem: p, XSpec: alg.XSpec})
	case alg.IsX():
		return core.CheckXACCWitness(tr, core.XProblem{Problem: p, XSpec: alg.XSpec})
	case mode == "exhaustive":
		return core.CheckACC(tr, p)
	default:
		return core.CheckACCWitness(tr, p, alg.TSOrder)
	}
}

// saver keeps the schedule -save writes: the first failing one, or the first
// one generated if none fails.
type saver struct {
	path   string
	s      *sched.Schedule // nil until a schedule is kept
	failed bool            // s drove a failing trace
}

// offer considers the schedule driving tr, whose check failed or not, for
// saving.
func (sv *saver) offer(alg registry.Algorithm, tr trace.Trace, nodes int, failed bool) {
	if sv.path == "" || sv.failed || (sv.s != nil && !failed) {
		return
	}
	s, err := sched.FromTrace(tr, nodes, alg.NeedsCausal, alg.Name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acc-check: extracting schedule: %v\n", err)
		return
	}
	sv.s, sv.failed = &s, failed
}

// write saves the kept schedule to sv.path, if there is one.
func (sv *saver) write() {
	if sv.s == nil {
		return
	}
	data, err := sv.s.Marshal()
	if err == nil {
		err = os.WriteFile(sv.path, data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "acc-check: %v\n", err)
		return
	}
	fmt.Printf("schedule saved to %s\n", sv.path)
}

// replaySchedule re-checks the schedule saved at path on the registry bundle
// it names and returns the exit code.
func replaySchedule(path, mode string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acc-check: %v\n", err)
		return 2
	}
	s, err := sched.Unmarshal(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acc-check: %v\n", err)
		return 2
	}
	alg, ok := registry.ByName(s.Algorithm)
	if !ok {
		fmt.Fprintf(os.Stderr, "acc-check: schedule names unknown algorithm %q\n", s.Algorithm)
		return 2
	}
	return replay(alg, s, mode)
}

// replay re-runs s on alg's bundle, decides the trace under mode and returns
// the exit code.
func replay(alg registry.Algorithm, s sched.Schedule, mode string) int {
	c, err := s.Replay(alg.New())
	if err != nil {
		fmt.Fprintf(os.Stderr, "acc-check: replay: %v\n", err)
		return 2
	}
	tr := c.Trace()
	fmt.Printf("replayed %d events of %s:\n", len(tr), alg.Name)
	res, err := decide(alg, tr, mode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acc-check: %v\n", err)
		return 2
	}
	if !res.OK {
		fmt.Printf("  consistency FAILS: %s\n", res.Reason)
		return 1
	}
	if err := core.CheckConvergenceFrom(tr, alg.New().Init(), alg.Abs); err != nil {
		fmt.Printf("  SEC FAILS: %v\n", err)
		return 1
	}
	fmt.Println("  consistency and SEC hold")
	return 0
}
