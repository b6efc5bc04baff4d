// Package conformance bundles the framework's checkers into one battery for
// validating a CRDT algorithm end to end — the workflow of Sec 8's "Using
// the verification framework", executable in one call:
//
//  1. specification well-formedness: ⊲⊳ symmetric and nonComm(Γ, ⊲⊳) (Def 1),
//     plus ◀/▷ well-formedness for X-wins algorithms;
//  2. the CRDT-TS proof obligations (UCR algorithms);
//  3. the trace conditions on randomized executions: ACC via the ↣ witness
//     (or XACC via the ◀/▷ witness) and convergence (Lemma 5's SEC);
//  4. complete bounded decisions on short traces (exhaustive ACC/XACC);
//  5. exhaustive schedule exploration of small scripts (parallel explorer
//     cross-checked against the sequential oracle);
//  6. fault-injection convergence: scripted runs under seeded fault plans
//     (loss, duplication, reorder, partitions, crash/recovery, payload
//     corruption) still reach one abstract value once faults heal, and
//     replay deterministically;
//  7. snapshot recovery: re-running the same chaos workloads with periodic
//     stable-frontier checkpoints, broadcast-log truncation and
//     snapshot-based fresh resync converges to byte-identical canonical
//     states as full log replay;
//  8. batched transport convergence: the socket-style replica layer over
//     write-batching endpoints (mixed flush policies per node) reaches
//     byte-identical canonical states, replays deterministically, and keeps
//     balanced batch accounting;
//  9. socket snapshot catch-up: on a live three-peer unix-socket mesh, a
//     late joiner served through the transport's snapshot protocol (stable
//     checkpoint + retained log suffix) reaches canonical states
//     byte-identical to a full-log-replay join, deterministically on rerun,
//     and the compacting run provably truncated its broadcast logs;
//  10. multi-object socket mesh: four replicated objects of mixed algorithms
//     (including a product reassembled at read time from independently
//     replicated components) multiplexed over one transport endpoint per
//     node — batched shared-memory and live unix-socket legs — converge to
//     byte-identical per-object canonical states, keep the per-object frame
//     counters summing exactly to the per-peer wire totals, hold exactly one
//     socket pair per process pair, and serve a late joiner a per-object
//     snapshot catch-up over that one pair;
//  11. codec round-trip: every op, return value, effector and replica state
//     reached by drained runs survives decode(encode(x)) == x through the
//     canonical binary codec, and converged replicas encode byte-equal
//     (the canonical-form guarantee);
//  12. contextual refinement on a client program (the Abstraction Theorem's
//     client-facing guarantee), when a client is supplied.
//
// Items 8–10 are built from legs: runs of the replica layer over a
// three-node mesh, each run by runMem or runUnix (leg.go).
//
// A nil error from Run means the algorithm passed every applicable check.
package conformance

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/crdt"
	"repro/internal/crdts/registry"
	"repro/internal/lang"
	"repro/internal/model"
	"repro/internal/proofmethod"
	"repro/internal/refine"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/transport"
)

// Config tunes the battery.
type Config struct {
	// Seeds is the number of randomized traces per trace-level check
	// (default 8).
	Seeds int
	// Steps is the scheduler steps for long traces, which run on three
	// nodes (default 40).
	Steps int
	// Workers is the worker count for the parallel schedule-exploration
	// check (default: sim picks GOMAXPROCS).
	Workers int
	// ChaosSeeds is the number of fault plans the fault-injection
	// convergence check runs per algorithm (default: Seeds, capped at 4).
	ChaosSeeds int
	// Client, when non-empty, is a client program source checked for
	// contextual refinement against the abstract machine.
	Client string
}

func (c Config) withDefaults() Config {
	if c.Seeds == 0 {
		c.Seeds = 8
	}
	if c.Steps == 0 {
		c.Steps = 40
	}
	return c
}

// CheckResult is one battery item's outcome.
type CheckResult struct {
	Name string
	Err  error
	// Skipped explains why a check did not apply (e.g. CRDT-TS for X-wins
	// algorithms).
	Skipped string
}

// Report is the battery outcome for one algorithm.
type Report struct {
	Algorithm string
	Checks    []CheckResult
}

// Err returns the first failed check, or nil.
func (r Report) Err() error {
	for _, c := range r.Checks {
		if c.Err != nil {
			return fmt.Errorf("%s: %s: %w", r.Algorithm, c.Name, c.Err)
		}
	}
	return nil
}

// String renders the report.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n", r.Algorithm)
	for _, c := range r.Checks {
		status := "ok"
		switch {
		case c.Err != nil:
			status = "FAIL: " + c.Err.Error()
		case c.Skipped != "":
			status = "skipped: " + c.Skipped
		}
		fmt.Fprintf(&b, "  %-30s %s\n", c.Name, status)
	}
	return b.String()
}

// Run executes the battery for one algorithm bundle.
func Run(alg registry.Algorithm, cfg Config) Report {
	cfg = cfg.withDefaults()
	rep := Report{Algorithm: alg.Name}
	add := func(name string, err error) {
		rep.Checks = append(rep.Checks, CheckResult{Name: name, Err: err})
	}
	skip := func(name, why string) {
		rep.Checks = append(rep.Checks, CheckResult{Name: name, Skipped: why})
	}

	// 1. Specification well-formedness.
	u := alg.Universe()
	add("⊲⊳ symmetric", spec.CheckSymmetric(alg.Spec, u.Ops))
	add("nonComm (Def 1)", spec.CheckNonComm(alg.Spec, u.Ops, u.States))
	if alg.IsX() {
		add("◀/▷ well-formed (Sec 9)", spec.CheckXWellFormed(alg.XSpec, u.Ops, u.States))
	} else {
		skip("◀/▷ well-formed (Sec 9)", "UCR algorithm: ◀ = ▷ = ∅")
	}

	// 2. CRDT-TS obligations.
	if alg.IsX() {
		skip("CRDT-TS obligations (Sec 8)", "applies to UCR algorithms; X-wins verified against XACC")
	} else {
		pm := proofmethod.Check(alg, proofmethod.Config{Seeds: cfg.Seeds, Steps: cfg.Steps})
		add("CRDT-TS obligations (Sec 8)", pm.Err())
	}

	// 3. Trace-level witness + SEC on long randomized executions.
	add("witness consistency + SEC", traceChecks(alg, cfg, false))

	// 4. Complete bounded decisions.
	add("exhaustive bounded decision", traceChecks(alg, cfg, true))

	// 5. Exhaustive schedule exploration: every delivery interleaving of a
	// small generated script converges, decided by the parallel explorer and
	// cross-checked against the sequential oracle.
	add("parallel schedule exploration", exploreChecks(alg, cfg))

	// 6. Fault-injection convergence: scripted runs under generated fault
	// plans (loss-with-retransmit, duplication, reorder windows, transient
	// partitions, crash/recovery with fresh resync) must still converge to
	// one abstract value once faults heal and delivery quiesces, and the
	// whole run must replay byte-for-byte from (script, seed, plan).
	add("fault-injection convergence", chaosChecks(alg, cfg))

	// 6b. Snapshot recovery: the same chaos run executed with snapshot
	// checkpoints (periodic stable-frontier snapshots, log truncation,
	// snapshot-based fresh resync) must converge to the byte-identical
	// canonical states the full-log-replay run reaches.
	add("snapshot recovery", snapshotChecks(alg, cfg))

	// 6c. Batched transport convergence: the replica layer over write-batching
	// endpoints (mixed flush policies per node, including an unbatched one)
	// still reaches byte-identical canonical states at quiescence, batched
	// runs replay deterministically, and the batch accounting balances —
	// batching is wire plumbing and must never change replication semantics.
	add("batched transport convergence", batchedChecks(alg, cfg))

	// 6d. Socket snapshot catch-up: the transport-layer state-transfer
	// counterpart of 6b, on real unix sockets — a late joiner admitted into a
	// live mesh catches up through a served checkpoint plus retained suffix,
	// and must be indistinguishable from one that replayed the full log.
	add("socket snapshot catch-up", socketSnapshotChecks(alg, cfg))

	// 6e. Multi-object socket mesh: four objects of mixed algorithms — this
	// algorithm, a companion, and two product components reassembled at read
	// time — multiplexed over one endpoint per node through the Node demux,
	// over batched Mem endpoints and over a live unix-socket mesh whose third
	// peer snapshot-catches-up on every object through one shared socket pair.
	add("multi-object socket mesh", multiObjectChecks(alg, cfg))

	// 7. Codec round-trip: the canonical binary encoding is lossless and
	// canonical on everything drained runs reach — ops, return values,
	// effectors and replica states — and converged replicas encode
	// byte-equal.
	add("codec round-trip", codecChecks(alg, cfg))

	// 8. Client refinement.
	if cfg.Client == "" {
		skip("contextual refinement (Thm 7)", "no client program supplied")
	} else {
		add("contextual refinement (Thm 7)", clientRefinement(alg, cfg.Client))
	}
	return rep
}

// traceChecks runs the per-trace conditions on three nodes; exhaustive
// switches to the complete deciders on short two-node traces.
func traceChecks(alg registry.Algorithm, cfg Config, exhaustive bool) error {
	nodes, steps, seeds := 3, cfg.Steps, cfg.Seeds
	if exhaustive {
		nodes, steps = 2, 8
		if seeds > 4 {
			seeds = 4
		}
	}
	p := core.Problem{Object: alg.New(), Spec: alg.Spec, Abs: alg.Abs}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		w := sim.Workload{
			Object: alg.New(), Abs: alg.Abs, Gen: sim.GenFunc(alg.GenOp),
			Nodes: nodes, Steps: steps, Causal: alg.NeedsCausal,
		}
		tr := w.Run(seed).Trace()
		var res core.Result
		var err error
		switch {
		case alg.IsX() && exhaustive:
			res, err = core.CheckXACC(tr, core.XProblem{Problem: p, XSpec: alg.XSpec})
		case alg.IsX():
			res, err = core.CheckXACCWitness(tr, core.XProblem{Problem: p, XSpec: alg.XSpec})
		case exhaustive:
			res, err = core.CheckACC(tr, p)
		default:
			res, err = core.CheckACCWitness(tr, p, alg.TSOrder)
		}
		if err != nil {
			if exhaustive {
				continue // trace exceeded the decidable bound
			}
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		if !res.OK {
			return fmt.Errorf("seed %d: %s", seed, res.Reason)
		}
		if err := core.CheckConvergenceFrom(tr, alg.New().Init(), alg.Abs); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
	}
	return nil
}

// exploreChecks runs the parallel schedule explorer over every delivery
// interleaving of small generated scripts, requiring convergence at each
// terminal state (SEC, universally quantified over schedules) and exactly the
// terminal-state set the sequential oracle reaches.
func exploreChecks(alg registry.Algorithm, cfg Config) error {
	const nodes, ops = 2, 4 // complete exploration needs small scripts
	seeds := cfg.Seeds
	if seeds > 3 {
		seeds = 3
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		script := sim.GenScript(alg.New(), alg.Abs, sim.GenFunc(alg.GenOp), nodes, ops, seed, alg.NeedsCausal)
		want := map[string]bool{}
		if _, err := sim.ExploreSchedules(alg.New(), nodes, script, alg.NeedsCausal, 0, func(c *sim.Cluster) error {
			want[string(c.AppendBinary(nil))] = true
			return nil
		}); err != nil {
			return fmt.Errorf("seed %d: sequential oracle: %w", seed, err)
		}
		got := map[string]bool{}
		_, _, err := sim.ExploreSchedulesParallel(alg.New(), nodes, script, alg.NeedsCausal,
			sim.ParallelConfig{Workers: cfg.Workers}, func(c *sim.Cluster) error {
				if _, ok := c.Converged(alg.Abs); !ok {
					return fmt.Errorf("replicas diverged at quiescence")
				}
				got[string(c.AppendBinary(nil))] = true
				return nil
			})
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		if len(got) != len(want) {
			return fmt.Errorf("seed %d: parallel explorer reached %d terminal states, oracle %d", seed, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				return fmt.Errorf("seed %d: parallel explorer missed a terminal state of the oracle", seed)
			}
		}
	}
	return nil
}

// chaosChecks runs the fault-injection convergence battery item: for each
// seed it generates a script and a fault plan, executes the chaos run, and
// requires a well-formed trace, SEC convergence of the live replicas after
// heal-and-drain (the Lemma 5 guarantee under network pathology), the
// trace-level CvT property, and — on the first seed — byte-for-byte replay
// determinism of the whole run. An algorithm whose effectors are not
// tolerant to the reordering the paper's setting permits, or whose
// duplicates escape the at-most-once delivery layer, diverges here.
func chaosChecks(alg registry.Algorithm, cfg Config) error {
	const nodes = 3
	ops := cfg.Steps / 4
	if ops < 6 {
		ops = 6
	}
	if ops > 12 {
		ops = 12
	}
	seeds := cfg.ChaosSeeds
	if seeds == 0 {
		seeds = cfg.Seeds
		if seeds > 4 {
			seeds = 4
		}
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		script := sim.GenScript(alg.New(), alg.Abs, sim.GenFunc(alg.GenOp), nodes, ops, seed, alg.NeedsCausal)
		plan := sim.GenFaultPlan(seed, nodes, 2*ops)
		run := func() (*sim.ChaosReport, error) {
			return sim.Chaos{
				Object: alg.New(), Abs: alg.Abs, Script: script, Plan: plan,
				Nodes: nodes, Seed: seed, Causal: alg.NeedsCausal,
				Decode: alg.DecodeEffector,
			}.Run()
		}
		rep, err := run()
		if err != nil {
			return fmt.Errorf("seed %d (plan %s): %w", seed, plan, err)
		}
		if err := rep.Trace.CheckWellFormed(); err != nil {
			return fmt.Errorf("seed %d (plan %s): %w", seed, plan, err)
		}
		if alg.NeedsCausal && !rep.Trace.CausalDelivery() {
			return fmt.Errorf("seed %d (plan %s): faulted run violated causal delivery", seed, plan)
		}
		if _, ok := rep.Cluster.Converged(alg.Abs); !ok {
			return fmt.Errorf("seed %d (plan %s): replicas diverged after faults healed:\n%s",
				seed, plan, core.DivergenceReport(rep.Trace, alg.New().Init(), alg.Abs))
		}
		if err := core.CheckConvergenceFrom(rep.Trace, alg.New().Init(), alg.Abs); err != nil {
			return fmt.Errorf("seed %d (plan %s): %w", seed, plan, err)
		}
		if seed == 1 {
			rep2, err := run()
			if err != nil {
				return fmt.Errorf("seed %d replay: %w", seed, err)
			}
			if rep2.Trace.String() != rep.Trace.String() || rep2.Stats != rep.Stats || rep2.Ticks != rep.Ticks {
				return fmt.Errorf("seed %d (plan %s): chaos run is not reproducible from (script, seed, plan)", seed, plan)
			}
		}
	}
	return nil
}

// snapshotChecks runs the snapshot-recovery battery item: the same
// (script, seed, plan) chaos workload executes twice — once resyncing fresh
// replicas by full log replay, once with snapshot checkpoints enabled
// (stable-frontier snapshots through the registered state codec, broadcast-log
// truncation up to the checkpoint frontier, snapshot-based resync). Both runs
// must converge, and to byte-identical canonical per-node states: recovering
// from a decoded snapshot plus the retained log suffix is observationally
// equivalent to replaying the whole log. The plan is forced to contain a
// fresh-crash window so the resync path actually runs, and across the seeds
// the snapshot runs must have checkpointed, truncated log entries, and served
// at least one resync from a snapshot.
func snapshotChecks(alg registry.Algorithm, cfg Config) error {
	if alg.DecodeState == nil {
		return fmt.Errorf("algorithm bundle registers no state decoder")
	}
	const nodes = 3
	ops := cfg.Steps / 4
	if ops < 6 {
		ops = 6
	}
	if ops > 12 {
		ops = 12
	}
	seeds := cfg.ChaosSeeds
	if seeds == 0 {
		seeds = cfg.Seeds
		if seeds > 4 {
			seeds = 4
		}
	}
	var checkpoints, truncated int
	for seed := int64(1); seed <= int64(seeds); seed++ {
		script := sim.GenScript(alg.New(), alg.Abs, sim.GenFunc(alg.GenOp), nodes, ops, seed, alg.NeedsCausal)
		plan := sim.GenFaultPlan(seed, nodes, 2*ops)
		// Deterministically force a fresh-crash window: without one neither
		// resync flavour runs and the item would compare nothing.
		if len(plan.Crashes) == 0 {
			plan.Crashes = append(plan.Crashes, sim.CrashWindow{Node: 1, From: ops / 2, To: ops, Fresh: true})
		} else {
			plan.Crashes[0].Fresh = true
		}
		run := func(snapEvery int) (*sim.ChaosReport, error) {
			w := sim.Chaos{
				Object: alg.New(), Abs: alg.Abs, Script: script, Plan: plan,
				Nodes: nodes, Seed: seed, Causal: alg.NeedsCausal,
				Decode: alg.DecodeEffector,
			}
			if snapEvery > 0 {
				w.SnapshotEvery = snapEvery
				w.DecodeState = alg.DecodeState
			}
			return w.Run()
		}
		base, err := run(0)
		if err != nil {
			return fmt.Errorf("seed %d (plan %s): log-replay run: %w", seed, plan, err)
		}
		snap, err := run(3)
		if err != nil {
			return fmt.Errorf("seed %d (plan %s): snapshot run: %w", seed, plan, err)
		}
		if _, ok := base.Cluster.Converged(alg.Abs); !ok {
			return fmt.Errorf("seed %d (plan %s): log-replay run diverged:\n%s",
				seed, plan, core.DivergenceReport(base.Trace, alg.New().Init(), alg.Abs, notes(base.Cluster)...))
		}
		if _, ok := snap.Cluster.Converged(alg.Abs); !ok {
			return fmt.Errorf("seed %d (plan %s): snapshot run diverged:\n%s",
				seed, plan, core.DivergenceReport(snap.Trace, alg.New().Init(), alg.Abs, notes(snap.Cluster)...))
		}
		for t := 0; t < nodes; t++ {
			b := base.Cluster.StateOf(model.NodeID(t)).AppendBinary(nil)
			s := snap.Cluster.StateOf(model.NodeID(t)).AppendBinary(nil)
			if !bytes.Equal(b, s) {
				return fmt.Errorf("seed %d (plan %s): node %d's canonical state differs between snapshot recovery and log replay",
					seed, plan, t)
			}
		}
		checkpoints += snap.Stats.Checkpoints
		truncated += snap.Stats.LogTruncated
	}
	if checkpoints == 0 {
		return fmt.Errorf("no snapshot run ever checkpointed — the stable frontier never advanced")
	}
	if truncated == 0 {
		return fmt.Errorf("snapshot runs checkpointed but never truncated the broadcast log")
	}
	// Generated crash windows may close before the first checkpoint, in which
	// case the resync above legally fell back to log replay. A deterministic
	// mid-script crash guarantees the snapshot path itself is exercised: the
	// crash happens after a full drain, so the frontier provably covers the
	// first half of the script.
	return snapshotResyncScenario(alg)
}

// snapshotResyncScenario crashes a replica mid-script on two otherwise
// identical clusters — one with snapshot checkpoints, one without — recovers
// it fresh, and requires byte-identical canonical states plus stats proving
// the snapshot cluster served the resync from a decoded snapshot.
func snapshotResyncScenario(alg registry.Algorithm) error {
	const nodes, ops, seed = 3, 12, 7
	crash := model.NodeID(nodes - 1)
	script := sim.GenScript(alg.New(), alg.Abs, sim.GenFunc(alg.GenOp), nodes, ops, seed, alg.NeedsCausal)
	mk := func(snapshots bool) *sim.Cluster {
		opts := []sim.Option{sim.WithWireCodec(alg.DecodeEffector)}
		if alg.NeedsCausal {
			opts = append(opts, sim.WithCausalDelivery())
		}
		if snapshots {
			opts = append(opts, sim.WithSnapshots(3, alg.DecodeState))
		}
		return sim.NewCluster(alg.New(), nodes, opts...)
	}
	run := func(c *sim.Cluster) error {
		half := len(script) / 2
		for _, so := range script[:half] {
			if _, _, err := c.Invoke(so.Node, so.Op); err != nil && !errors.Is(err, crdt.ErrAssume) {
				return err
			}
			c.DeliverAll()
		}
		if err := c.Crash(crash); err != nil {
			return err
		}
		for _, so := range script[half:] {
			if so.Node == crash {
				continue
			}
			if _, _, err := c.Invoke(so.Node, so.Op); err != nil && !errors.Is(err, crdt.ErrAssume) {
				return err
			}
		}
		c.DeliverAll()
		if err := c.Recover(crash, true); err != nil {
			return err
		}
		c.DeliverAll()
		return nil
	}
	snap, replay := mk(true), mk(false)
	if err := run(snap); err != nil {
		return fmt.Errorf("snapshot cluster: %w", err)
	}
	if err := run(replay); err != nil {
		return fmt.Errorf("log-replay cluster: %w", err)
	}
	for t := 0; t < nodes; t++ {
		b := replay.StateOf(model.NodeID(t)).AppendBinary(nil)
		s := snap.StateOf(model.NodeID(t)).AppendBinary(nil)
		if !bytes.Equal(b, s) {
			return fmt.Errorf("node %d's canonical state differs between snapshot resync and log replay", t)
		}
	}
	st := snap.FaultStats()
	if st.SnapshotResyncs != 1 {
		return fmt.Errorf("snapshot resyncs = %d, want the fresh recovery served from a snapshot", st.SnapshotResyncs)
	}
	if st.Checkpoints == 0 || st.LogTruncated == 0 {
		return fmt.Errorf("snapshot cluster never checkpointed and truncated (stats %+v)", st)
	}
	return nil
}

// batchedChecks runs the batched-transport battery item: each seed's script
// replicates over write-batching Mem endpoints with a different flush policy
// per node — a tight frame cap, a looser one, and no batching at all. Batching
// is wire plumbing and must never change replication semantics, so the leg
// owes everything a Mem leg does (byte-identical states, balanced counters,
// a lossless flush, byte-for-byte replay), and the capped policy must
// actually coalesce (fewer flushes than frames) rather than degenerate to
// frame-at-a-time writes.
func batchedChecks(alg registry.Algorithm, cfg Config) error {
	for seed := int64(1); seed <= int64(min(cfg.Seeds, 3)); seed++ {
		l, err := newLeg(alg, nil, seed, min(max(cfg.Steps/4, 6), 12))
		if err != nil {
			return err
		}
		l.seed, l.opts = seed, mixedBatching
		r, err := runMem(l)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		// The tight frame cap on node 0 must have coalesced: with ≥2 frames
		// queued, at least one flush carried more than one frame.
		if st := r[0].stats; st.FramesQueued >= 2 && st.Flushes.Total() >= st.FramesQueued {
			return fmt.Errorf("seed %d: capped policy never coalesced (%d flushes for %d frames)",
				seed, st.Flushes.Total(), st.FramesQueued)
		}
	}
	return nil
}

// mixedBatching gives each Mem node a different flush policy: a tight frame
// cap, a looser one, and no batching at all.
var mixedBatching = [legNodes][]transport.StreamOption{
	{transport.WithBatching(transport.BatchPolicy{MaxFrames: 2})},
	{transport.WithBatching(transport.BatchPolicy{MaxFrames: 4})},
	{}, // unbatched control
}

// socketSnapshotChecks runs the socket snapshot catch-up battery item: on a
// three-node unix mesh, two early nodes replicate their script share and
// exchange Dones (running their final pre-join compaction) before the third
// joins late and catches up through the transport's snapshot protocol. The
// leg runs three times: full-replay (Every=0, the whole log ships as
// suffix), compacting (Every=3, the joiner is served a stable checkpoint
// plus the retained suffix, and the early nodes must have truncated their
// logs), and compacting again. All three must reach the same byte-identical
// states: state transfer is observationally equivalent to full log replay,
// deterministically so.
func socketSnapshotChecks(alg registry.Algorithm, cfg Config) error {
	if alg.DecodeState == nil {
		return fmt.Errorf("algorithm bundle registers no state decoder")
	}
	l, err := newLeg(alg, nil, 5, min(max(cfg.Steps/4, 6), 12))
	if err != nil {
		return err
	}
	l.joiner = true
	base, err := runUnix(l)
	if err != nil {
		return fmt.Errorf("full-replay leg: %w", err)
	}
	l.every = 3
	snap, err := runUnix(l)
	if err != nil {
		return fmt.Errorf("compacting leg: %w", err)
	}
	if err := l.diff(&snap, &base); err != nil {
		return fmt.Errorf("snapshot catch-up and full log replay converged to different canonical states: %w", err)
	}
	rerun, err := runUnix(l)
	if err != nil {
		return fmt.Errorf("compacting rerun: %w", err)
	}
	if err := l.diff(&rerun, &snap); err != nil {
		return fmt.Errorf("compacting leg is not deterministic: rerun converged to a different canonical state: %w", err)
	}
	return nil
}

// multiObjectChecks runs the multi-object mesh battery item: four objects of
// mixed algorithms — the bundle under test, a standalone companion of
// another kind, and two components a product reassembles at read time —
// share one endpoint per node through the transport.Node demux. The item
// runs a Mem leg under the mixed flush policies, then three unix legs whose
// third node snapshot-catches-up on every object through the one shared
// socket pair: with the pull loop, with the receive pipeline on one apply
// shard, and with it on four shards applying distinct objects concurrently.
// Object sharding reorders apply across objects only, never within one, so
// the pipeline legs must match the pull-loop leg byte for byte. On every
// leg the product reassembled from its independently replicated components
// must be byte-equal on every node.
func multiObjectChecks(alg registry.Algorithm, cfg Config) error {
	if alg.DecodeState == nil {
		return fmt.Errorf("algorithm bundle registers no state decoder")
	}
	companion := "counter"
	if alg.Name == companion {
		companion = "lww-register"
	}
	l, err := newLeg(alg, transport.Manifest{
		{ID: 1, Name: "subject", Kind: alg.Name},
		{ID: 2, Name: "companion", Kind: companion},
		{ID: 3, Name: "cart.qty", Kind: "counter"},
		{ID: 4, Name: "cart.items", Kind: "g-set"},
	}, 20, min(max(cfg.Steps/8, 4), 8))
	if err != nil {
		return err
	}
	product := func(r *legRun) error {
		var cart0 []byte
		for id, nr := range r {
			cart := codec.AppendBytes(codec.AppendBytes(nil, nr.states[2]), nr.states[3])
			if id == 0 {
				cart0 = cart
			} else if !bytes.Equal(cart, cart0) {
				return fmt.Errorf("node %d: product reassembled from objects 3+4 differs from node 0's", id)
			}
		}
		return nil
	}
	l.seed, l.opts = 21, mixedBatching
	mem, err := runMem(l)
	if err == nil {
		err = product(&mem)
	}
	if err != nil {
		return fmt.Errorf("mem leg: %w", err)
	}
	early := []transport.StreamOption{transport.WithBatching(transport.BatchPolicy{MaxFrames: 4})}
	l.opts = [legNodes][]transport.StreamOption{early, early}
	l.joiner, l.every = true, 3
	var pulled legRun
	for _, workers := range []int{0, 1, 4} {
		name := "pull loop"
		if workers > 0 {
			name = fmt.Sprintf("pipeline workers=%d", workers)
		}
		l.workers = workers
		r, err := runUnix(l)
		if err == nil {
			err = product(&r)
		}
		if err != nil {
			return fmt.Errorf("unix leg (%s): %w", name, err)
		}
		if workers == 0 {
			pulled = r
		} else if err := l.diff(&r, &pulled); err != nil {
			return fmt.Errorf("unix leg (%s): canonical state diverges from the pull-loop leg: %w", name, err)
		}
	}
	return nil
}

// notes adapts a cluster's recovery notes to DivergenceReport's interface.
func notes(c *sim.Cluster) []fmt.Stringer {
	rn := c.RecoveryNotes()
	out := make([]fmt.Stringer, len(rn))
	for i, n := range rn {
		out[i] = n
	}
	return out
}

// codecChecks runs the codec round-trip battery item. For each seed it
// generates a script, executes it fully drained on a byte-shipping cluster
// (WithWireCodec, so every broadcast already exercises encode→frame→decode in
// transit), and then requires, for everything the run reached:
//
//   - ops and return values: DecodeOp/DecodeValue invert AppendOp/AppendValue
//     and re-encoding reproduces the exact bytes;
//   - effectors: the registered EffectorDecoder inverts AppendBinary, the
//     decoded effector re-encodes byte-equal and renders the same String;
//   - replica states: the registered StateDecoder inverts AppendBinary, the
//     decoded state re-encodes byte-equal and keeps the same Key;
//   - canonical form: after the drain all replicas are equal, so their
//     encodings must be byte-equal too (equal objects ⇒ equal bytes).
func codecChecks(alg registry.Algorithm, cfg Config) error {
	if alg.DecodeState == nil || alg.DecodeEffector == nil {
		return fmt.Errorf("algorithm bundle registers no codec decoders")
	}
	const nodes = 3
	ops := cfg.Steps / 4
	if ops < 6 {
		ops = 6
	}
	if ops > 12 {
		ops = 12
	}
	seeds := cfg.Seeds
	if seeds > 4 {
		seeds = 4
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		script := sim.GenScript(alg.New(), alg.Abs, sim.GenFunc(alg.GenOp), nodes, ops, seed, alg.NeedsCausal)
		opts := []sim.Option{sim.WithWireCodec(alg.DecodeEffector)}
		if alg.NeedsCausal {
			opts = append(opts, sim.WithCausalDelivery())
		}
		c := sim.NewCluster(alg.New(), nodes, opts...)
		for i, so := range script {
			if _, _, err := c.Invoke(so.Node, so.Op); err != nil {
				return fmt.Errorf("seed %d: script op %d: %w", seed, i, err)
			}
			c.DeliverAll()
		}
		for i, ev := range c.Trace() {
			enc := codec.AppendOp(nil, ev.Op)
			op, rest, err := codec.DecodeOp(enc)
			if err != nil || len(rest) != 0 {
				return fmt.Errorf("seed %d event %d: op %s did not round-trip: %v", seed, i, ev.Op, err)
			}
			if !bytes.Equal(codec.AppendOp(nil, op), enc) {
				return fmt.Errorf("seed %d event %d: op %s re-encoded differently", seed, i, ev.Op)
			}
			enc = codec.AppendValue(nil, ev.Ret)
			v, rest, err := codec.DecodeValue(enc)
			if err != nil || len(rest) != 0 {
				return fmt.Errorf("seed %d event %d: value %s did not round-trip: %v", seed, i, ev.Ret, err)
			}
			if !bytes.Equal(codec.AppendValue(nil, v), enc) {
				return fmt.Errorf("seed %d event %d: value %s re-encoded differently", seed, i, ev.Ret)
			}
			enc = ev.Eff.AppendBinary(nil)
			eff, err := alg.DecodeEffector(enc)
			if err != nil {
				return fmt.Errorf("seed %d event %d: effector %s did not decode: %w", seed, i, ev.Eff, err)
			}
			if !bytes.Equal(eff.AppendBinary(nil), enc) {
				return fmt.Errorf("seed %d event %d: effector %s re-encoded differently", seed, i, ev.Eff)
			}
			if eff.String() != ev.Eff.String() {
				return fmt.Errorf("seed %d event %d: effector decoded to %s, want %s", seed, i, eff, ev.Eff)
			}
		}
		var canonical []byte
		for t := 0; t < nodes; t++ {
			enc := c.StateOf(model.NodeID(t)).AppendBinary(nil)
			st, err := alg.DecodeState(enc)
			if err != nil {
				return fmt.Errorf("seed %d: node %d state did not decode: %w", seed, t, err)
			}
			if !bytes.Equal(st.AppendBinary(nil), enc) {
				return fmt.Errorf("seed %d: node %d state re-encoded differently", seed, t)
			}
			if st.Key() != c.StateOf(model.NodeID(t)).Key() {
				return fmt.Errorf("seed %d: node %d state decoded to a different Key", seed, t)
			}
			if t == 0 {
				canonical = enc
			} else if !bytes.Equal(enc, canonical) {
				return fmt.Errorf("seed %d: converged replicas 0 and %d encode differently — canonical form violated", seed, t)
			}
		}
	}
	return nil
}

func clientRefinement(alg registry.Algorithm, client string) error {
	prog, err := lang.Parse(client)
	if err != nil {
		return err
	}
	res, err := refine.Check(alg, prog, refine.Explorer{})
	if err != nil {
		return err
	}
	if !res.OK {
		return fmt.Errorf("refinement violated: %d concrete behaviours uncovered (first: %s)",
			len(res.Extra), res.Extra[0])
	}
	return nil
}

// RunAll runs the battery for every registered algorithm.
func RunAll(cfg Config) []Report {
	var out []Report
	for _, alg := range registry.All() {
		out = append(out, Run(alg, cfg))
	}
	return out
}
