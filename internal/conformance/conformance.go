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
//  11. per-object fairness: a chatty and a quiet object sharing scheduled
//     endpoints (per-object send queues drained by deficit-weighted
//     round-robin, per-object max-delay overrides) — a deterministic
//     weighted Mem leg that must replay byte-for-byte, and a live
//     unix-socket leg where the quiet object's max-delay override forces
//     its frames onto the wire while the chatty backlog stays batched,
//     with the scheduler ledger and the per-object frame counters balancing
//     on every peer;
//  12. codec round-trip: every op, return value, effector and replica state
//     reached by drained runs survives decode(encode(x)) == x through the
//     canonical binary codec, and converged replicas encode byte-equal
//     (the canonical-form guarantee);
//  13. contextual refinement on a client program (the Abstraction Theorem's
//     client-facing guarantee), when a client is supplied.
//
// A nil error from Run means the algorithm passed every applicable check.
package conformance

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"time"

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
	// Steps is the scheduler steps for long traces (default 40).
	Steps int
	// Nodes is the cluster size for long traces (default 3).
	Nodes int
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
	if c.Nodes == 0 {
		c.Nodes = 3
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
		pm := proofmethod.Check(alg, proofmethod.Config{Seeds: cfg.Seeds, Steps: cfg.Steps, Nodes: cfg.Nodes})
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

	// 6f. Per-object fairness: the delivery scheduler under a chatty/quiet
	// mixed workload — weighted Mem endpoints replay deterministically, and
	// on a live unix mesh the quiet object's max-delay override puts its
	// frames on the wire while the chatty object's backlog stays batched,
	// with the scheduler ledger balancing on every peer.
	add("per-object fairness", fairnessChecks(alg, cfg))

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

// traceChecks runs the per-trace conditions; exhaustive switches to the
// complete deciders on short two-node traces.
func traceChecks(alg registry.Algorithm, cfg Config, exhaustive bool) error {
	nodes, steps, seeds := cfg.Nodes, cfg.Steps, cfg.Seeds
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
// replicates across transport.Peer replicas on a shared deterministic Mem,
// but through write-batching endpoints with a different flush policy per
// node — a tight frame cap, a byte cap, and no batching at all. At
// quiescence every replica must hold the byte-identical canonical state
// (batching must not change replication semantics), an identical rerun must
// reproduce the exact states and transport stats (batched executions stay
// deterministic), and the counters must balance: every queued frame reaches
// every peer, and a capped policy actually coalesces (fewer flushes than
// frames) rather than degenerating to frame-at-a-time writes.
func batchedChecks(alg registry.Algorithm, cfg Config) error {
	const nodes = 3
	ops := cfg.Steps / 4
	if ops < 6 {
		ops = 6
	}
	if ops > 12 {
		ops = 12
	}
	seeds := cfg.Seeds
	if seeds > 3 {
		seeds = 3
	}
	policies := [nodes]transport.BatchPolicy{
		{MaxFrames: 2},
		{MaxFrames: 64, MaxBytes: 96},
		{}, // unbatched control
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		script := sim.GenScript(alg.New(), alg.Abs, sim.GenFunc(alg.GenOp), nodes, ops, seed, alg.NeedsCausal)
		run := func() ([][]byte, []transport.Stats, error) {
			m := transport.NewMem(nodes)
			peers := make([]*transport.Peer, nodes)
			for i := range peers {
				peers[i] = transport.NewPeer(alg.New(), alg.DecodeEffector,
					m.Endpoint(model.NodeID(i), transport.WithBatching(policies[i])), alg.NeedsCausal)
			}
			sched := rand.New(rand.NewSource(seed))
			for _, so := range script {
				if _, err := peers[so.Node].Invoke(so.Op); err != nil && !errors.Is(err, crdt.ErrAssume) {
					return nil, nil, fmt.Errorf("invoke %v at %s: %w", so.Op, so.Node, err)
				}
				// Vary visibility: random peers make receive progress between
				// invocations, from the same seeded source both runs share.
				for k := sched.Intn(3); k > 0; k-- {
					if _, err := peers[sched.Intn(nodes)].Step(false); err != nil {
						return nil, nil, err
					}
				}
			}
			for _, p := range peers {
				if err := p.Done(); err != nil {
					return nil, nil, err
				}
			}
			states := make([][]byte, nodes)
			stats := make([]transport.Stats, nodes)
			for i, p := range peers {
				if err := p.RunToQuiescence(5 * time.Second); err != nil {
					return nil, nil, fmt.Errorf("peer %d: %w", i, err)
				}
				states[i] = p.CanonicalState()
				st, ok := p.TransportStats()
				if !ok {
					return nil, nil, fmt.Errorf("peer %d: batched endpoint reports no stats", i)
				}
				stats[i] = st
			}
			return states, stats, nil
		}
		states, stats, err := run()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		for i := 1; i < nodes; i++ {
			if !bytes.Equal(states[i], states[0]) {
				return fmt.Errorf("seed %d: batched peer %d's canonical state differs from peer 0's", seed, i)
			}
		}
		for i, st := range stats {
			if got, want := st.TotalSent().Frames, st.FramesQueued*(nodes-1); got != want {
				return fmt.Errorf("seed %d: peer %d flushed %d per-peer frames for %d queued — a pending batch was lost",
					seed, i, got, want)
			}
		}
		// The tight frame cap on peer 0 must have coalesced: with ≥2 frames
		// queued, at least one flush carried more than one frame.
		if st := stats[0]; st.FramesQueued >= 2 && st.Flushes.Total() >= st.FramesQueued {
			return fmt.Errorf("seed %d: capped policy never coalesced (%d flushes for %d frames)",
				seed, st.Flushes.Total(), st.FramesQueued)
		}
		states2, stats2, err := run()
		if err != nil {
			return fmt.Errorf("seed %d rerun: %w", seed, err)
		}
		for i := range states {
			if !bytes.Equal(states[i], states2[i]) {
				return fmt.Errorf("seed %d: batched run is not deterministic — peer %d's state differs on rerun", seed, i)
			}
		}
		if !reflect.DeepEqual(stats, stats2) {
			return fmt.Errorf("seed %d: batched run is not deterministic — transport stats differ on rerun", seed)
		}
	}
	return nil
}

// socketSnapshotChecks runs the socket snapshot catch-up battery item: two
// peers of a three-node unix-socket mesh replicate their script share,
// exchange Dones (running their final pre-join compaction), and only then is
// the third peer admitted — a late joiner that catches up through the
// transport's snapshot protocol before replicating its own share. The mesh
// runs three times: compacting (SnapshotPolicy Every=3, so the joiner is
// served a stable checkpoint plus the retained suffix), full-replay (Every=0,
// the whole log ships as suffix), and the compacting leg again. All runs must
// reach one byte-identical canonical state on every peer: state transfer is
// observationally equivalent to full log replay, deterministically so.
//
// The cross-leg comparison is sound because every peer invokes its whole
// share before making any receive progress: each effector then depends only
// on its node's own prior ops, so all legs generate the identical effector
// set and the converged canonical encodings must match byte for byte.
//
// Compaction assertions are gated on each early peer having issued at least
// one effectful frame: connection FIFO puts a peer's effectors before its
// Done, so the Done-triggered compaction at the other early peer then always
// finds them acknowledged and truncates — and both served checkpoints are
// non-empty, so the joiner installs covered frames whichever peer answers
// first.
func socketSnapshotChecks(alg registry.Algorithm, cfg Config) error {
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
	script := sim.GenScript(alg.New(), alg.Abs, sim.GenFunc(alg.GenOp), nodes, ops, 5, alg.NeedsCausal)
	joiner := model.NodeID(nodes - 1)

	run := func(every int) (states [][]byte, stats []transport.SnapStats, issued []int, err error) {
		dir, err := os.MkdirTemp("", "crdt-snap-*")
		if err != nil {
			return nil, nil, nil, err
		}
		defer os.RemoveAll(dir)
		addrs := make([]string, nodes)
		for i := range addrs {
			addrs[i] = "unix:" + filepath.Join(dir, fmt.Sprintf("n%d.sock", i))
		}
		states = make([][]byte, nodes)
		stats = make([]transport.SnapStats, nodes)
		issued = make([]int, nodes)
		errs := make([]error, nodes)
		// Each early peer reports in once before the join — nil after its
		// pre-join compaction, or its failure, which aborts the join instead
		// of deadlocking it. The buffer leaves room for a second, post-join
		// failure report per peer.
		ready := make(chan error, 2*(nodes-1))
		var wg sync.WaitGroup
		early := func(id model.NodeID) {
			defer wg.Done()
			reported := false
			err := func() error {
				st, err := transport.Listen(id, addrs,
					transport.WithRecvTimeout(5*time.Second), transport.WithLateJoiners(joiner))
				if err != nil {
					return err
				}
				defer st.Close()
				p := transport.NewPeer(alg.New(), alg.DecodeEffector, st, alg.NeedsCausal,
					transport.WithSnapshotPolicy(transport.SnapshotPolicy{Every: every}))
				for _, so := range script {
					if so.Node != id {
						continue
					}
					if _, err := p.Invoke(so.Op); err != nil && !errors.Is(err, crdt.ErrAssume) {
						return err
					}
				}
				if err := p.Done(); err != nil {
					return err
				}
				// Hold the join until this peer has the other early peer's
				// Done: its final pre-join compaction has run by then.
				for p.DonePeers() < 1 {
					if _, err := p.Step(true); err != nil {
						return err
					}
				}
				reported = true
				ready <- nil
				if err := p.RunToQuiescence(10 * time.Second); err != nil {
					return err
				}
				states[id] = p.CanonicalState()
				stats[id] = p.SnapshotStats()
				issued[id] = p.Issued()
				return nil
			}()
			if err != nil {
				errs[id] = err
				if !reported {
					ready <- err
				}
			}
		}
		wg.Add(nodes)
		for i := 0; i < int(joiner); i++ {
			go early(model.NodeID(i))
		}
		go func() {
			defer wg.Done()
			errs[joiner] = func() error {
				for i := 0; i < nodes-1; i++ {
					if err := <-ready; err != nil {
						return fmt.Errorf("early peer failed before the join: %w", err)
					}
				}
				st, err := transport.Listen(joiner, addrs,
					transport.WithRecvTimeout(5*time.Second), transport.AsLateJoiner())
				if err != nil {
					return err
				}
				defer st.Close()
				p := transport.NewPeer(alg.New(), alg.DecodeEffector, st, alg.NeedsCausal,
					transport.WithCatchUp(alg.DecodeState))
				if err := p.CatchUp(); err != nil {
					return err
				}
				if err := p.AwaitCatchUp(10 * time.Second); err != nil {
					return err
				}
				for _, so := range script {
					if so.Node != joiner {
						continue
					}
					if _, err := p.Invoke(so.Op); err != nil && !errors.Is(err, crdt.ErrAssume) {
						return err
					}
				}
				if err := p.Done(); err != nil {
					return err
				}
				if err := p.RunToQuiescence(10 * time.Second); err != nil {
					return err
				}
				states[joiner] = p.CanonicalState()
				stats[joiner] = p.SnapshotStats()
				issued[joiner] = p.Issued()
				return nil
			}()
		}()
		wg.Wait()
		for id, err := range errs {
			if err != nil {
				return nil, nil, nil, fmt.Errorf("peer %d: %w", id, err)
			}
		}
		for id, s := range states {
			if !bytes.Equal(s, states[0]) {
				return nil, nil, nil, fmt.Errorf("peer %d's canonical state differs from peer 0's", id)
			}
		}
		return states, stats, issued, nil
	}

	base, _, _, err := run(0)
	if err != nil {
		return fmt.Errorf("full-replay leg: %w", err)
	}
	snap, stats, issued, err := run(3)
	if err != nil {
		return fmt.Errorf("compacting leg: %w", err)
	}
	if !bytes.Equal(snap[0], base[0]) {
		return fmt.Errorf("snapshot catch-up and full log replay converged to different canonical states")
	}
	js := stats[joiner]
	if !js.Installed || js.FellBack {
		return fmt.Errorf("joiner never installed a snapshot response: %+v", js)
	}
	if issued[0] > 0 && issued[1] > 0 {
		if js.InstallCovered == 0 {
			return fmt.Errorf("compacting leg installed no covered frames: %+v", js)
		}
		for id := 0; id < nodes-1; id++ {
			if es := stats[id]; es.Checkpoints == 0 || es.LogTruncated == 0 {
				return fmt.Errorf("early peer %d never compacted its log: %+v", id, es)
			}
		}
	}
	rerun, _, _, err := run(3)
	if err != nil {
		return fmt.Errorf("compacting rerun: %w", err)
	}
	if !bytes.Equal(rerun[0], snap[0]) {
		return fmt.Errorf("compacting leg is not deterministic: rerun converged to a different canonical state")
	}
	return nil
}

// multiObjectChecks runs the multi-object mesh battery item: four replicated
// objects of mixed algorithms — the algorithm under test, a second standalone
// algorithm, and two components a product object reassembles at read time —
// share one transport endpoint per node through the transport.Node demux, on
// a three-node mesh. The item runs over write-batching Mem endpoints with a
// different flush policy per node, then three times over a live unix-socket
// mesh whose third peer is a late joiner that snapshot-catches-up on every
// object through the one shared socket pair: with the pull loop, with
// the receive pipeline on a single apply shard, and with the pipeline on
// four shards applying distinct objects concurrently. All three socket legs
// must converge to byte-identical canonical states — object sharding
// reorders apply across objects only, never within one, so the quiescent
// states cannot differ.
//
// Every leg requires byte-identical per-object canonical states on every
// node, the read-time product reassembled from its independently replicated
// components byte-equal everywhere, and the stats balance invariant: the
// per-object frame counters sum exactly to the per-peer wire totals, because
// one helper updates both views of the same frame. The socket legs
// additionally require exactly one connection per process pair (objects
// multiply the traffic, not the sockets), a per-object snapshot install for
// the joiner (no fallback), a balanced receive-pipeline ledger on every
// pipelined node (received == dispatched == applied), and — when both early
// peers issued frames for an object — a compacted broadcast log for that
// object on both of them.
func multiObjectChecks(alg registry.Algorithm, cfg Config) error {
	if alg.DecodeState == nil {
		return fmt.Errorf("algorithm bundle registers no state decoder")
	}
	const nodes = 3
	joiner := model.NodeID(nodes - 1)
	ops := cfg.Steps / 8
	if ops < 4 {
		ops = 4
	}
	if ops > 8 {
		ops = 8
	}
	// Mixed algorithms: the algorithm under test plus a standalone companion
	// of a different kind, and the two product components.
	companion := "counter"
	if alg.Name == companion {
		companion = "lww-register"
	}
	kinds := []string{alg.Name, companion, "counter", "g-set"}
	man := transport.Manifest{
		{ID: 1, Name: "subject", Kind: kinds[0]},
		{ID: 2, Name: "companion", Kind: kinds[1]},
		{ID: 3, Name: "cart.qty", Kind: kinds[2]},
		{ID: 4, Name: "cart.items", Kind: kinds[3]},
	}
	algs := make([]registry.Algorithm, len(man))
	scripts := make([]sim.Script, len(man))
	for oi, ospec := range man {
		a, ok := registry.ByName(ospec.Kind)
		if !ok {
			return fmt.Errorf("object %d: no algorithm %q in the registry", ospec.ID, ospec.Kind)
		}
		algs[oi] = a
		scripts[oi] = sim.GenScript(a.New(), a.Abs, sim.GenFunc(a.GenOp), nodes, ops, 20+int64(oi), a.NeedsCausal)
	}
	register := func(n *transport.Node, opts func(oi int) []transport.PeerOption) error {
		for oi, ospec := range man {
			if _, err := n.Register(ospec.ID, algs[oi].New(), algs[oi].DecodeEffector, algs[oi].NeedsCausal, opts(oi)...); err != nil {
				return err
			}
		}
		return nil
	}
	// checkConverged asserts the per-object and reassembled-product
	// convergence shared by both legs; states is indexed [node][object].
	checkConverged := func(states [][][]byte) error {
		for oi, ospec := range man {
			for id := 1; id < nodes; id++ {
				if !bytes.Equal(states[id][oi], states[0][oi]) {
					return fmt.Errorf("object %d (%s): node %d's canonical state differs from node 0's", ospec.ID, ospec.Kind, id)
				}
			}
		}
		var cart0 []byte
		for id := 0; id < nodes; id++ {
			cart := codec.AppendBytes(nil, states[id][2])
			cart = codec.AppendBytes(cart, states[id][3])
			if id == 0 {
				cart0 = cart
			} else if !bytes.Equal(cart, cart0) {
				return fmt.Errorf("node %d: product reassembled from objects 3+4 differs from node 0's", id)
			}
		}
		return nil
	}
	// checkBalance asserts the object-sum == per-peer-total stats invariant.
	checkBalance := func(id int, st transport.Stats) error {
		var sent, recv int
		for _, io := range st.Objects {
			sent += io.SentFrames
			recv += io.RecvFrames
		}
		if sent != st.TotalSent().Frames || recv != st.TotalRecv().Frames {
			return fmt.Errorf("node %d: per-object frame counters (sent %d, recv %d) do not sum to the per-peer totals (sent %d, recv %d)",
				id, sent, recv, st.TotalSent().Frames, st.TotalRecv().Frames)
		}
		return nil
	}

	// Leg 1: shared-memory mesh, mixed flush policies, every object's
	// operations interleaved through the shared batched endpoints.
	memLeg := func() error {
		policies := [nodes]transport.BatchPolicy{
			{MaxFrames: 2},
			{MaxFrames: 64, MaxBytes: 96},
			{}, // unbatched control
		}
		m := transport.NewMem(nodes)
		ns := make([]*transport.Node, nodes)
		for i := range ns {
			n, err := transport.NewNode(m.Endpoint(model.NodeID(i), transport.WithBatching(policies[i])), man)
			if err != nil {
				return err
			}
			if err := register(n, func(int) []transport.PeerOption { return nil }); err != nil {
				return err
			}
			ns[i] = n
		}
		sched := rand.New(rand.NewSource(21))
		for so := 0; so < ops; so++ {
			for oi, ospec := range man {
				if so >= len(scripts[oi]) {
					continue
				}
				sop := scripts[oi][so]
				p, _ := ns[sop.Node].Peer(ospec.ID)
				if _, err := p.Invoke(sop.Op); err != nil && !errors.Is(err, crdt.ErrAssume) {
					return fmt.Errorf("object %d: invoke %v at %s: %w", ospec.ID, sop.Op, sop.Node, err)
				}
				for k := sched.Intn(3); k > 0; k-- {
					if _, err := ns[sched.Intn(nodes)].Step(false); err != nil {
						return err
					}
				}
			}
		}
		for _, n := range ns {
			for _, id := range n.Objects() {
				p, _ := n.Peer(id)
				if err := p.Done(); err != nil {
					return err
				}
			}
		}
		states := make([][][]byte, nodes)
		for i, n := range ns {
			if err := n.RunToQuiescence(5 * time.Second); err != nil {
				return fmt.Errorf("node %d: %w", i, err)
			}
			states[i] = make([][]byte, len(man))
			for oi, ospec := range man {
				p, _ := n.Peer(ospec.ID)
				states[i][oi] = p.CanonicalState()
			}
		}
		if err := checkConverged(states); err != nil {
			return err
		}
		for i, n := range ns {
			if err := checkBalance(i, n.Transport().(transport.StatsReporter).Stats()); err != nil {
				return err
			}
		}
		return nil
	}

	// Legs 2-4: live unix-socket mesh with a late joiner catching up on every
	// object over the one shared socket pair per process pair. workers
	// selects the receive side: 0 is the pull loop, >= 1 the parallel
	// pipeline on that many shards. Returns the per-node per-object canonical
	// states so the pipeline legs can be checked byte-identical against the
	// pull-loop leg.
	unixLeg := func(workers int) ([][][]byte, error) {
		rp := transport.RecvPolicy{Workers: workers}
		dir, err := os.MkdirTemp("", "crdt-multiobj-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		addrs := make([]string, nodes)
		for i := range addrs {
			addrs[i] = "unix:" + filepath.Join(dir, fmt.Sprintf("n%d.sock", i))
		}
		states := make([][][]byte, nodes)
		snaps := make([][]transport.SnapStats, nodes)
		issued := make([][]int, nodes)
		wire := make([]transport.Stats, nodes)
		conns := make([]int, nodes)
		errs := make([]error, nodes)
		ready := make(chan error, 2*(nodes-1))
		record := func(id model.NodeID, st *transport.Stream, n *transport.Node) {
			states[id] = make([][]byte, len(man))
			snaps[id] = make([]transport.SnapStats, len(man))
			issued[id] = make([]int, len(man))
			for oi, ospec := range man {
				p, _ := n.Peer(ospec.ID)
				states[id][oi] = p.CanonicalState()
				snaps[id][oi] = p.SnapshotStats()
				issued[id][oi] = p.Issued()
			}
			wire[id] = st.Stats()
			conns[id] = len(st.ConnectedPeers())
		}
		// checkPipeline closes the endpoint (idempotent — the deferred Close
		// becomes a no-op), waits for the pump to drain the frame queue and
		// stop, and only then audits the ledger: every frame the wire counted
		// received must have been dispatched to exactly one shard and applied.
		// Sampling before the pipeline stops would race in-flight frames.
		checkPipeline := func(n *transport.Node, st *transport.Stream) error {
			r := n.Receiver()
			if r == nil {
				return nil
			}
			st.Close()
			select {
			case <-r.Done():
			case <-time.After(10 * time.Second):
				return errors.New("receive pipeline did not stop after Close")
			}
			if err := r.Err(); err != nil {
				return fmt.Errorf("receive pipeline: %w", err)
			}
			return r.Stats().Balance(st.Stats().TotalRecv().Frames)
		}
		var wg sync.WaitGroup
		early := func(id model.NodeID) {
			defer wg.Done()
			reported := false
			err := func() error {
				sopts := []transport.StreamOption{
					transport.WithRecvTimeout(5 * time.Second), transport.WithLateJoiners(joiner),
					transport.WithManifest(man), transport.WithBatching(transport.BatchPolicy{MaxFrames: 4}),
				}
				if workers > 0 {
					sopts = append(sopts, transport.WithReceiver(rp))
				}
				st, err := transport.Listen(id, addrs, sopts...)
				if err != nil {
					return err
				}
				defer st.Close()
				n, err := transport.NewNode(st, man)
				if err != nil {
					return err
				}
				if err := register(n, func(int) []transport.PeerOption {
					return []transport.PeerOption{transport.WithSnapshotPolicy(transport.SnapshotPolicy{Every: 3})}
				}); err != nil {
					return err
				}
				for oi, ospec := range man {
					for _, so := range scripts[oi] {
						if so.Node != id {
							continue
						}
						p, _ := n.Peer(ospec.ID)
						if _, err := p.Invoke(so.Op); err != nil && !errors.Is(err, crdt.ErrAssume) {
							return err
						}
					}
				}
				// The receiver starts only once this peer's script has run, as
				// the pull-loop leg steps only after it: an effector's Prepare reads
				// the local state (cseq positions, assume preconditions), so a
				// remote frame applied mid-script would change what the script
				// issues and the legs could not match byte for byte.
				if workers > 0 {
					if _, err := n.StartReceiver(); err != nil {
						return err
					}
				}
				for _, obj := range n.Objects() {
					p, _ := n.Peer(obj)
					if err := p.Done(); err != nil {
						return err
					}
				}
				// Hold the join until every object has the other early peer's
				// Done: each object's final pre-join compaction has run then.
				// With the pipeline the shards apply in the background, so wait
				// on the predicate; without it, pull frames ourselves.
				doneEverywhere := func() bool {
					for _, obj := range n.Objects() {
						p, _ := n.Peer(obj)
						if p.DonePeers() < 1 {
							return false
						}
					}
					return true
				}
				if n.Receiver() != nil {
					if err := n.Await(10*time.Second, doneEverywhere); err != nil {
						return err
					}
				} else {
					for !doneEverywhere() {
						if _, err := n.Step(true); err != nil {
							return err
						}
					}
				}
				reported = true
				ready <- nil
				if err := n.RunToQuiescence(10 * time.Second); err != nil {
					return err
				}
				if err := checkPipeline(n, st); err != nil {
					return err
				}
				record(id, st, n)
				return nil
			}()
			if err != nil {
				errs[id] = err
				if !reported {
					ready <- err
				}
			}
		}
		wg.Add(nodes)
		for i := 0; i < int(joiner); i++ {
			go early(model.NodeID(i))
		}
		go func() {
			defer wg.Done()
			errs[joiner] = func() error {
				for i := 0; i < nodes-1; i++ {
					if err := <-ready; err != nil {
						return fmt.Errorf("early peer failed before the join: %w", err)
					}
				}
				sopts := []transport.StreamOption{
					transport.WithRecvTimeout(5 * time.Second), transport.AsLateJoiner(),
					transport.WithManifest(man),
				}
				if workers > 0 {
					sopts = append(sopts, transport.WithReceiver(rp))
				}
				st, err := transport.Listen(joiner, addrs, sopts...)
				if err != nil {
					return err
				}
				defer st.Close()
				n, err := transport.NewNode(st, man)
				if err != nil {
					return err
				}
				if err := register(n, func(oi int) []transport.PeerOption {
					return []transport.PeerOption{transport.WithCatchUp(algs[oi].DecodeState)}
				}); err != nil {
					return err
				}
				if workers > 0 {
					if _, err := n.StartReceiver(); err != nil {
						return err
					}
				}
				if err := n.CatchUp(); err != nil {
					return err
				}
				if err := n.AwaitCatchUp(10 * time.Second); err != nil {
					return err
				}
				for oi, ospec := range man {
					for _, so := range scripts[oi] {
						if so.Node != joiner {
							continue
						}
						p, _ := n.Peer(ospec.ID)
						if _, err := p.Invoke(so.Op); err != nil && !errors.Is(err, crdt.ErrAssume) {
							return err
						}
					}
				}
				for _, obj := range n.Objects() {
					p, _ := n.Peer(obj)
					if err := p.Done(); err != nil {
						return err
					}
				}
				if err := n.RunToQuiescence(10 * time.Second); err != nil {
					return err
				}
				if err := checkPipeline(n, st); err != nil {
					return err
				}
				record(joiner, st, n)
				return nil
			}()
		}()
		wg.Wait()
		for id, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("peer %d: %w", id, err)
			}
		}
		if err := checkConverged(states); err != nil {
			return nil, err
		}
		for id := 0; id < nodes; id++ {
			if conns[id] != nodes-1 {
				return nil, fmt.Errorf("node %d holds %d connections for %d peers — objects must share one socket pair per process pair",
					id, conns[id], nodes-1)
			}
			if err := checkBalance(id, wire[id]); err != nil {
				return nil, err
			}
		}
		for oi, ospec := range man {
			js := snaps[joiner][oi]
			if !js.Installed || js.FellBack {
				return nil, fmt.Errorf("object %d (%s): joiner never installed a snapshot response: %+v", ospec.ID, ospec.Kind, js)
			}
			if issued[0][oi] > 0 && issued[1][oi] > 0 {
				for id := 0; id < nodes-1; id++ {
					if es := snaps[id][oi]; es.Checkpoints == 0 || es.LogTruncated == 0 {
						return nil, fmt.Errorf("object %d (%s): early peer %d never compacted its log: %+v", ospec.ID, ospec.Kind, id, es)
					}
				}
			}
		}
		return states, nil
	}

	if err := memLeg(); err != nil {
		return fmt.Errorf("mem leg: %w", err)
	}
	pulled, err := unixLeg(0)
	if err != nil {
		return fmt.Errorf("unix leg (pull loop): %w", err)
	}
	// The pipeline legs rerun the same scripts; concurrency across objects
	// must not change any object's outcome, so every canonical state has to
	// match the pull-loop leg's byte for byte.
	for _, workers := range []int{1, 4} {
		piped, err := unixLeg(workers)
		if err != nil {
			return fmt.Errorf("unix leg (pipeline workers=%d): %w", workers, err)
		}
		for id := range piped {
			for oi, ospec := range man {
				if !bytes.Equal(piped[id][oi], pulled[id][oi]) {
					return fmt.Errorf("unix leg (pipeline workers=%d): node %d object %d (%s) canonical state diverges from the pull-loop leg",
						workers, id, ospec.ID, ospec.Kind)
				}
			}
		}
	}
	return nil
}

// fairnessChecks runs the per-object fairness battery item: a chatty object
// (the algorithm under test) and a quiet companion share scheduled transport
// endpoints — per-object send queues drained by deficit-weighted round-robin,
// with per-object max-delay overrides. Two legs:
//
// The Mem leg runs three nodes with a different scheduler policy each (8:1
// weighted chunked, evenly weighted, and default weights) under
// cap-forced flushes, and requires byte-identical per-object convergence, the
// per-object frame counters summing to the per-peer wire totals, the
// scheduler's queued == drained + depth ledger balancing on every node, and a
// rerun reproducing both the states and the full stats snapshot byte-for-byte
// — weighted scheduling must not cost the deterministic-replay guarantee.
//
// The unix leg runs a live three-node socket mesh whose shared batch policy
// never flushes on its own (huge frame cap, no shared delay): each node first
// invokes its chatty ops — which must sit in the chatty send queue — then its
// quiet ops, whose 10ms max-delay override must force exactly the quiet queue
// onto the wire (deadline-flush attribution on the quiet object, chatty
// backlog depth unchanged) while the chatty frames keep waiting for the
// explicit end-of-run flush. Afterwards both objects must converge
// byte-identically, every peer's scheduler ledger and per-object counters
// must balance, and the mesh must still hold one socket pair per process
// pair.
func fairnessChecks(alg registry.Algorithm, cfg Config) error {
	const (
		nodes  = 3
		chatty = transport.ObjID(1)
		quiet  = transport.ObjID(2)
	)
	chattyOps := cfg.Steps / 4
	if chattyOps < 8 {
		chattyOps = 8
	}
	if chattyOps > 12 {
		chattyOps = 12
	}
	const quietOps = 4
	companion := "counter"
	if alg.Name == companion {
		companion = "lww-register"
	}
	man := transport.Manifest{
		{ID: chatty, Name: "chatty", Kind: alg.Name},
		{ID: quiet, Name: "quiet", Kind: companion},
	}
	algs := make([]registry.Algorithm, len(man))
	scripts := make([]sim.Script, len(man))
	opsFor := []int{chattyOps, quietOps}
	for oi, ospec := range man {
		a, ok := registry.ByName(ospec.Kind)
		if !ok {
			return fmt.Errorf("object %d: no algorithm %q in the registry", ospec.ID, ospec.Kind)
		}
		algs[oi] = a
		scripts[oi] = sim.GenScript(a.New(), a.Abs, sim.GenFunc(a.GenOp), nodes, opsFor[oi], 30+int64(oi), a.NeedsCausal)
	}
	register := func(n *transport.Node) error {
		for oi, ospec := range man {
			if _, err := n.Register(ospec.ID, algs[oi].New(), algs[oi].DecodeEffector, algs[oi].NeedsCausal); err != nil {
				return err
			}
		}
		return nil
	}
	checkConverged := func(states [][][]byte) error {
		for oi, ospec := range man {
			for id := 1; id < nodes; id++ {
				if !bytes.Equal(states[id][oi], states[0][oi]) {
					return fmt.Errorf("object %d (%s): node %d's canonical state differs from node 0's", ospec.ID, ospec.Kind, id)
				}
			}
		}
		return nil
	}
	// checkStats asserts both balance invariants a scheduled endpoint owes:
	// per-object frame counters summing to the per-peer wire totals, and the
	// scheduler's own queued == drained + depth ledger.
	checkStats := func(id int, st transport.Stats) error {
		var sent, recv int
		for _, io := range st.Objects {
			sent += io.SentFrames
			recv += io.RecvFrames
		}
		if sent != st.TotalSent().Frames || recv != st.TotalRecv().Frames {
			return fmt.Errorf("node %d: per-object frame counters (sent %d, recv %d) do not sum to the per-peer totals (sent %d, recv %d)",
				id, sent, recv, st.TotalSent().Frames, st.TotalRecv().Frames)
		}
		if err := st.SchedBalance(); err != nil {
			return fmt.Errorf("node %d: %w", id, err)
		}
		return nil
	}

	// Leg 1: deterministic weighted Mem mesh. Scheduling policies differ per
	// node — chunked 8:1, evenly weighted, and default weights — so the DRR
	// drain order genuinely reorders frames relative to arrival, yet a rerun
	// must reproduce every byte of state and every stats counter.
	memLeg := func() ([][][]byte, []transport.Stats, error) {
		batch := [nodes]transport.BatchPolicy{
			{MaxFrames: 3},
			{MaxFrames: 64, MaxBytes: 96},
			{MaxFrames: 2},
		}
		schedPols := [nodes]transport.SchedPolicy{
			{Weights: map[transport.ObjID]int{chatty: 1, quiet: 8}, ChunkFrames: 2},
			{Weights: map[transport.ObjID]int{chatty: 2, quiet: 2}, ChunkFrames: 1},
			{}, // default weights
		}
		m := transport.NewMem(nodes)
		ns := make([]*transport.Node, nodes)
		for i := range ns {
			n, err := transport.NewNode(m.Endpoint(model.NodeID(i),
				transport.WithBatching(batch[i]), transport.WithScheduler(schedPols[i])), man)
			if err != nil {
				return nil, nil, err
			}
			if err := register(n); err != nil {
				return nil, nil, err
			}
			ns[i] = n
		}
		sched := rand.New(rand.NewSource(33))
		steps := chattyOps
		if quietOps > steps {
			steps = quietOps
		}
		for so := 0; so < steps; so++ {
			for oi, ospec := range man {
				if so >= len(scripts[oi]) {
					continue
				}
				sop := scripts[oi][so]
				p, _ := ns[sop.Node].Peer(ospec.ID)
				if _, err := p.Invoke(sop.Op); err != nil && !errors.Is(err, crdt.ErrAssume) {
					return nil, nil, fmt.Errorf("object %d: invoke %v at %s: %w", ospec.ID, sop.Op, sop.Node, err)
				}
				for k := sched.Intn(3); k > 0; k-- {
					if _, err := ns[sched.Intn(nodes)].Step(false); err != nil {
						return nil, nil, err
					}
				}
			}
		}
		for _, n := range ns {
			for _, id := range n.Objects() {
				p, _ := n.Peer(id)
				if err := p.Done(); err != nil {
					return nil, nil, err
				}
			}
		}
		states := make([][][]byte, nodes)
		stats := make([]transport.Stats, nodes)
		for i, n := range ns {
			if err := n.RunToQuiescence(5 * time.Second); err != nil {
				return nil, nil, fmt.Errorf("node %d: %w", i, err)
			}
			states[i] = make([][]byte, len(man))
			for oi, ospec := range man {
				p, _ := n.Peer(ospec.ID)
				states[i][oi] = p.CanonicalState()
			}
			stats[i] = n.Transport().(transport.StatsReporter).Stats()
		}
		return states, stats, nil
	}

	states, stats, err := memLeg()
	if err != nil {
		return fmt.Errorf("mem leg: %w", err)
	}
	if err := checkConverged(states); err != nil {
		return fmt.Errorf("mem leg: %w", err)
	}
	queued := 0
	for i, st := range stats {
		if err := checkStats(i, st); err != nil {
			return fmt.Errorf("mem leg: %w", err)
		}
		queued += st.FramesQueued
	}
	if queued == 0 {
		return fmt.Errorf("mem leg: no node queued a single frame — the scripts exercised nothing")
	}
	rerunStates, rerunStats, err := memLeg()
	if err != nil {
		return fmt.Errorf("mem rerun: %w", err)
	}
	if !reflect.DeepEqual(rerunStates, states) {
		return fmt.Errorf("mem leg is not deterministic: rerun converged to different canonical states")
	}
	if !reflect.DeepEqual(rerunStats, stats) {
		return fmt.Errorf("mem leg is not deterministic: rerun produced a different stats snapshot")
	}

	// Leg 2: live unix-socket mesh. The shared batch policy never flushes on
	// its own; only the quiet object's max-delay override may put frames on
	// the wire before the end-of-run flush.
	unixLeg := func() error {
		dir, err := os.MkdirTemp("", "crdt-fairness-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		addrs := make([]string, nodes)
		for i := range addrs {
			addrs[i] = "unix:" + filepath.Join(dir, fmt.Sprintf("n%d.sock", i))
		}
		batch := transport.BatchPolicy{MaxFrames: 1 << 20}
		schedPol := transport.SchedPolicy{
			Weights:     map[transport.ObjID]int{chatty: 1, quiet: 8},
			MaxDelay:    map[transport.ObjID]time.Duration{quiet: 10 * time.Millisecond},
			ChunkFrames: 4,
		}
		wstates := make([][][]byte, nodes)
		wire := make([]transport.Stats, nodes)
		conns := make([]int, nodes)
		quietIssued := make([]int, nodes)
		errs := make([]error, nodes)
		var wg sync.WaitGroup
		runNode := func(id model.NodeID) {
			defer wg.Done()
			errs[id] = func() error {
				st, err := transport.Listen(id, addrs,
					transport.WithRecvTimeout(5*time.Second), transport.WithManifest(man),
					transport.WithBatching(batch), transport.WithScheduler(schedPol))
				if err != nil {
					return err
				}
				defer st.Close()
				n, err := transport.NewNode(st, man)
				if err != nil {
					return err
				}
				if err := register(n); err != nil {
					return err
				}
				invoke := func(oi int, ospec transport.ObjectSpec) error {
					for _, so := range scripts[oi] {
						if so.Node != id {
							continue
						}
						p, _ := n.Peer(ospec.ID)
						if _, err := p.Invoke(so.Op); err != nil && !errors.Is(err, crdt.ErrAssume) {
							return err
						}
					}
					return nil
				}
				// Chatty first: its frames must sit in the chatty send queue
				// (nothing in the shared policy can flush them).
				if err := invoke(0, man[0]); err != nil {
					return err
				}
				chattyDepth := 0
				if co := st.Stats().Sched.Objects[chatty]; co != nil {
					chattyDepth = co.Depth
				}
				cp, _ := n.Peer(chatty)
				if cp.Issued() > 0 && chattyDepth != cp.Issued() {
					return fmt.Errorf("chatty backlog depth %d after %d issued effectors — the shared policy flushed what only the scheduler may",
						chattyDepth, cp.Issued())
				}
				// Quiet next: its 10ms max-delay override must drain exactly
				// the quiet queue, leaving the chatty backlog untouched.
				if err := invoke(1, man[1]); err != nil {
					return err
				}
				qp, _ := n.Peer(quiet)
				quietIssued[id] = qp.Issued()
				if quietIssued[id] > 0 {
					deadline := time.Now().Add(5 * time.Second)
					for {
						q := st.Stats().Sched.Objects[quiet]
						if q != nil && q.Depth == 0 && q.Drained >= quietIssued[id] && q.DeadlineFlushes >= 1 {
							break
						}
						if time.Now().After(deadline) {
							return fmt.Errorf("quiet object's max-delay override never flushed its queue: %+v", q)
						}
						time.Sleep(2 * time.Millisecond)
					}
					after := st.Stats()
					if co := after.Sched.Objects[chatty]; chattyDepth > 0 && (co == nil || co.Depth != chattyDepth) {
						got := 0
						if co != nil {
							got = co.Depth
						}
						return fmt.Errorf("chatty backlog depth changed from %d to %d while only the quiet deadline fired", chattyDepth, got)
					}
					if q := after.Sched.Objects[quiet]; q.DelaySamples > 0 && q.DelayMax > 5*time.Second {
						return fmt.Errorf("quiet enqueue→wire delay %s wildly exceeds the 10ms override", q.DelayMax)
					}
				}
				for _, obj := range n.Objects() {
					p, _ := n.Peer(obj)
					if err := p.Done(); err != nil {
						return err
					}
				}
				if err := n.RunToQuiescence(10 * time.Second); err != nil {
					return err
				}
				wstates[id] = make([][]byte, len(man))
				for oi, ospec := range man {
					p, _ := n.Peer(ospec.ID)
					wstates[id][oi] = p.CanonicalState()
				}
				wire[id] = st.Stats()
				conns[id] = len(st.ConnectedPeers())
				return nil
			}()
		}
		wg.Add(nodes)
		for i := 0; i < nodes; i++ {
			go runNode(model.NodeID(i))
		}
		wg.Wait()
		for id, err := range errs {
			if err != nil {
				return fmt.Errorf("peer %d: %w", id, err)
			}
		}
		if err := checkConverged(wstates); err != nil {
			return err
		}
		totalQuiet := 0
		for id := 0; id < nodes; id++ {
			if conns[id] != nodes-1 {
				return fmt.Errorf("node %d holds %d connections for %d peers — objects must share one socket pair per process pair",
					id, conns[id], nodes-1)
			}
			if err := checkStats(id, wire[id]); err != nil {
				return err
			}
			totalQuiet += quietIssued[id]
		}
		if totalQuiet == 0 {
			return fmt.Errorf("no node issued a quiet effector — the override path went unexercised")
		}
		return nil
	}

	if err := unixLeg(); err != nil {
		return fmt.Errorf("unix leg: %w", err)
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
