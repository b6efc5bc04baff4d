package sim

import (
	"testing"

	"repro/internal/crdts/registry"
	"repro/internal/model"
	"repro/internal/spec"
)

// chaosFor builds a Chaos run for a registry algorithm from a seed, using the
// generated script and plan — the same recipe crdt-sim -chaos uses.
func chaosFor(alg registry.Algorithm, nodes, ops int, seed int64) Chaos {
	script := GenScript(alg.New(), alg.Abs, GenFunc(alg.GenOp), nodes, ops, seed, alg.NeedsCausal)
	return Chaos{
		Object: alg.New(), Abs: alg.Abs, Script: script,
		Plan:  GenFaultPlan(seed, nodes, 2*ops),
		Nodes: nodes, Seed: seed, Causal: alg.NeedsCausal,
		Decode: alg.DecodeEffector,
	}
}

// TestChaosDeterministic: the reproduction recipe (script, seed, plan) fully
// determines a chaos run — two executions agree byte-for-byte on the trace
// and exactly on stats and tick count.
func TestChaosDeterministic(t *testing.T) {
	for _, alg := range []registry.Algorithm{registry.Counter(), registry.RGA(), registry.AWSet()} {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				w := chaosFor(alg, 3, 10, seed)
				a, err := w.Run()
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				b, err := w.Run()
				if err != nil {
					t.Fatalf("seed %d replay: %v", seed, err)
				}
				if a.Trace.String() != b.Trace.String() {
					t.Fatalf("seed %d: traces differ:\n%s\n--\n%s", seed, a.Trace, b.Trace)
				}
				if a.Stats != b.Stats || a.Ticks != b.Ticks {
					t.Fatalf("seed %d: stats %v/%d vs %v/%d", seed, a.Stats, a.Ticks, b.Stats, b.Ticks)
				}
			}
		})
	}
}

// TestChaosAllAlgorithmsConverge: under generated fault plans, every registry
// algorithm still converges once faults heal and delivery quiesces — the SEC
// guarantee (Lemma 5) survives loss, duplication, reorder, partitions and
// crash/recovery.
func TestChaosAllAlgorithmsConverge(t *testing.T) {
	for _, alg := range registry.All() {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				rep, err := chaosFor(alg, 3, 10, seed).Run()
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := rep.Trace.CheckWellFormed(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if alg.NeedsCausal && !rep.Trace.CausalDelivery() {
					t.Fatalf("seed %d: causal delivery violated", seed)
				}
				if _, ok := rep.Cluster.Converged(alg.Abs); !ok {
					t.Fatalf("seed %d: replicas diverged after faults healed (plan %s)",
						seed, GenFaultPlan(seed, 3, 20))
				}
			}
		})
	}
}

// TestChaosDifferential: a faulted run must reach the same converged abstract
// value as the clean oracle that executes the identical script with immediate
// full delivery — network pathology must not change the outcome, only the
// path. SyncInvokes makes prepare-time visibility match the oracle's (the
// script generator drains after every op), so even prepare-state-dependent
// effectors (cseq, rga) produce identical effector sets.
func TestChaosDifferential(t *testing.T) {
	plan := FaultPlan{Link: LinkFaults{Dup: 0.5, MaxDup: 2, DelayMax: 3}}
	for _, alg := range registry.All() {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				script := GenScript(alg.New(), alg.Abs, GenFunc(alg.GenOp), 3, 10, seed, alg.NeedsCausal)

				// Clean oracle: invoke-then-drain, no faults.
				var opts []Option
				if alg.NeedsCausal {
					opts = append(opts, WithCausalDelivery())
				}
				oracle := NewCluster(alg.New(), 3, opts...)
				for _, so := range script {
					if _, _, err := oracle.Invoke(so.Node, so.Op); err != nil {
						t.Fatalf("seed %d: oracle invoke: %v", seed, err)
					}
					oracle.DeliverAll()
				}
				want, ok := oracle.Converged(alg.Abs)
				if !ok {
					t.Fatalf("seed %d: oracle did not converge", seed)
				}

				// Faulted run: duplication + reorder (loss=0 keeps SyncInvokes
				// able to drain; retransmission covers loss elsewhere).
				rep, err := Chaos{
					Object: alg.New(), Abs: alg.Abs, Script: script, Plan: plan,
					Nodes: 3, Seed: seed, Causal: alg.NeedsCausal, SyncInvokes: true,
				}.Run()
				if err != nil {
					t.Fatalf("seed %d: chaos: %v", seed, err)
				}
				got, ok := rep.Cluster.Converged(alg.Abs)
				if !ok {
					t.Fatalf("seed %d: faulted run diverged", seed)
				}
				if !got.Equal(want) {
					t.Fatalf("seed %d: faulted run converged to %s, oracle to %s", seed, got, want)
				}
				if rep.Stats.Duplicated == 0 && rep.Stats.Delayed == 0 {
					t.Fatalf("seed %d: fault plan injected nothing — differential test is vacuous", seed)
				}
			}
		})
	}
}

// TestChaosDifferentialCausal: the differential check again, under causal
// delivery, for the algorithms the paper discusses causality for — RGA
// (Fig 2, tolerant of non-causal delivery but commonly deployed causal) and
// the X-wins sets (which require it, Sec 2.4). Faults must respect the
// causal-delivery constraint and still not change the converged value.
func TestChaosDifferentialCausal(t *testing.T) {
	plan := FaultPlan{Link: LinkFaults{Dup: 0.5, MaxDup: 2, DelayMax: 3}}
	for _, alg := range []registry.Algorithm{registry.RGA(), registry.AWSet(), registry.RWSet()} {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				script := GenScript(alg.New(), alg.Abs, GenFunc(alg.GenOp), 3, 10, seed, true)
				oracle := NewCluster(alg.New(), 3, WithCausalDelivery())
				for _, so := range script {
					if _, _, err := oracle.Invoke(so.Node, so.Op); err != nil {
						t.Fatalf("seed %d: oracle invoke: %v", seed, err)
					}
					oracle.DeliverAll()
				}
				want, ok := oracle.Converged(alg.Abs)
				if !ok {
					t.Fatalf("seed %d: oracle did not converge", seed)
				}
				rep, err := Chaos{
					Object: alg.New(), Abs: alg.Abs, Script: script, Plan: plan,
					Nodes: 3, Seed: seed, Causal: true, SyncInvokes: true,
				}.Run()
				if err != nil {
					t.Fatalf("seed %d: chaos: %v", seed, err)
				}
				if !rep.Trace.CausalDelivery() {
					t.Fatalf("seed %d: faults broke the causal-delivery constraint", seed)
				}
				got, ok := rep.Cluster.Converged(alg.Abs)
				if !ok {
					t.Fatalf("seed %d: faulted run diverged", seed)
				}
				if !got.Equal(want) {
					t.Fatalf("seed %d: faulted run converged to %s, oracle to %s", seed, got, want)
				}
			}
		})
	}
}

// TestChaosDuplicationSuppressed: every extra network copy the duplication
// fault creates is consumed by the at-most-once delivery layer without
// reapplying — counters would be the first to drift if a duplicate slipped
// through.
func TestChaosDuplicationSuppressed(t *testing.T) {
	alg := registry.Counter()
	script := GenScript(alg.New(), alg.Abs, GenFunc(alg.GenOp), 3, 12, 7, false)
	rep, err := Chaos{
		Object: alg.New(), Abs: alg.Abs, Script: script,
		Plan:  FaultPlan{Link: LinkFaults{Dup: 0.8, MaxDup: 2}},
		Nodes: 3, Seed: 7,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Duplicated == 0 {
		t.Fatal("dup=0.8 injected no duplicates")
	}
	if rep.Stats.DupSuppressed != rep.Stats.Duplicated {
		t.Fatalf("suppressed %d of %d duplicate copies; the rest reapplied or leaked",
			rep.Stats.DupSuppressed, rep.Stats.Duplicated)
	}
	if rep.Cluster.Pending() != 0 {
		t.Fatalf("%d copies still pending after quiescence", rep.Cluster.Pending())
	}
}

// TestCrashRecoveryDurable: a crashed node keeps its durable state and its
// inbox; on recovery it catches up by ordinary delivery.
func TestCrashRecoveryDurable(t *testing.T) {
	alg := registry.Counter()
	c := NewCluster(alg.New(), 3)
	if _, _, err := c.Invoke(0, model.Op{Name: spec.OpInc, Arg: model.Int(5)}); err != nil {
		t.Fatal(err)
	}
	c.DeliverAll()
	if err := c.Crash(2); err != nil {
		t.Fatal(err)
	}
	// While node 2 is down, node 1 increments; the copy queues but cannot be
	// delivered.
	if _, mid, err := c.Invoke(1, model.Op{Name: spec.OpInc, Arg: model.Int(7)}); err != nil {
		t.Fatal(err)
	} else if err := c.Deliver(2, mid); err == nil {
		t.Fatal("delivery to a crashed node must fail")
	}
	if _, _, err := c.Invoke(2, model.Op{Name: spec.OpInc, Arg: model.Int(1)}); err == nil {
		t.Fatal("invoking on a crashed node must fail")
	}
	if err := c.Recover(2, false); err != nil {
		t.Fatal(err)
	}
	c.DeliverAll()
	if abs, ok := c.Converged(alg.Abs); !ok || !abs.Equal(model.Int(12)) {
		t.Fatalf("converged = %v %s, want 12", ok, abs)
	}
	if c.FaultStats().Resyncs != 0 {
		t.Error("durable recovery must not count as a resync")
	}
}

// TestCrashRecoveryFresh: a fresh replacement replica starts from Init and
// resyncs from the cluster-wide broadcast log, ending in the same state —
// including messages it had already applied before the crash (the replacement
// lost that durable state).
func TestCrashRecoveryFresh(t *testing.T) {
	alg := registry.GSet()
	c := NewCluster(alg.New(), 3)
	mids := make([]model.MsgID, 0, 2)
	for i, v := range []string{"a", "b"} {
		_, mid, err := c.Invoke(model.NodeID(i), model.Op{Name: spec.OpAdd, Arg: model.Str(v)})
		if err != nil {
			t.Fatal(err)
		}
		mids = append(mids, mid)
	}
	// Node 2 sees "a" but not "b" before crashing.
	if err := c.Deliver(2, mids[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(2); err != nil {
		t.Fatal(err)
	}
	if err := c.Recover(2, true); err != nil {
		t.Fatal(err)
	}
	if c.FaultStats().Resyncs != 1 {
		t.Fatalf("resyncs = %d, want 1", c.FaultStats().Resyncs)
	}
	c.DeliverAll()
	if abs, ok := c.Converged(alg.Abs); !ok {
		t.Fatal("cluster diverged after fresh resync")
	} else if got := abs.String(); got == "" {
		t.Fatalf("abs = %q", got)
	}
	if err := c.Trace().CheckWellFormed(); err != nil {
		t.Fatalf("resync produced a malformed trace: %v", err)
	}
}

// TestPartitionWindowHeals: during the window the minority cannot receive;
// after the plan closes it, the chaos stabilizer heals and the cluster
// converges.
func TestPartitionWindowHeals(t *testing.T) {
	alg := registry.GSet()
	script := GenScript(alg.New(), alg.Abs, GenFunc(alg.GenOp), 3, 8, 3, false)
	plan := FaultPlan{
		Partitions: []PartitionWindow{{From: 1, To: 6, Groups: [][]model.NodeID{{0, 1}, {2}}}},
	}
	rep, err := Chaos{Object: alg.New(), Abs: alg.Abs, Script: script, Plan: plan, Nodes: 3, Seed: 3}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Partitions != 1 || rep.Stats.Heals != 1 {
		t.Fatalf("partitions/heals = %d/%d, want 1/1", rep.Stats.Partitions, rep.Stats.Heals)
	}
	if _, ok := rep.Cluster.Converged(alg.Abs); !ok {
		t.Fatal("cluster diverged after partition healed")
	}
}

// TestGenFaultPlanDeterministic: the plan generator is the third coordinate
// of the reproduction recipe, so it must be a pure function of its inputs.
func TestGenFaultPlanDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a := GenFaultPlan(seed, 4, 20)
		b := GenFaultPlan(seed, 4, 20)
		if a.String() != b.String() {
			t.Fatalf("seed %d: %s vs %s", seed, a, b)
		}
		// Structural sanity: a partition keeps both sides nonempty, crashes
		// hit distinct nodes, and every window is nonempty.
		for _, w := range a.Partitions {
			if len(w.Groups) != 2 || len(w.Groups[0]) == 0 || len(w.Groups[1]) == 0 {
				t.Fatalf("seed %d: degenerate partition %v", seed, w.Groups)
			}
			if w.To <= w.From {
				t.Fatalf("seed %d: empty partition window [%d,%d)", seed, w.From, w.To)
			}
		}
		victims := map[model.NodeID]bool{}
		for _, w := range a.Crashes {
			if victims[w.Node] {
				t.Fatalf("seed %d: node %s crashed twice", seed, w.Node)
			}
			victims[w.Node] = true
			if w.To <= w.From {
				t.Fatalf("seed %d: empty crash window [%d,%d)", seed, w.From, w.To)
			}
		}
		if len(victims) >= 4 {
			t.Fatalf("seed %d: all nodes crash", seed)
		}
	}
}

// TestCloneKeyReflectsFaultState: the explorer dedups schedules by Key, so
// fault-relevant state — pending copies, latency, crashed nodes, the clock —
// must show up in it, and clean clusters must keep the seed-era key shape.
func TestCloneKeyReflectsFaultState(t *testing.T) {
	alg := registry.Counter()
	c := NewCluster(alg.New(), 2, WithLinkFaults(LinkFaults{Dup: 1, MaxDup: 1, DelayMax: 2}, 42))
	base := ckey(c)
	if _, _, err := c.Invoke(0, model.Op{Name: spec.OpInc, Arg: model.Int(1)}); err != nil {
		t.Fatal(err)
	}
	afterInvoke := ckey(c)
	if afterInvoke == base {
		t.Fatal("Key must change when a faulted copy is queued")
	}
	c.Tick()
	if ckey(c) == afterInvoke {
		t.Fatal("Key must include the virtual clock")
	}
	if err := c.Crash(1); err != nil {
		t.Fatal(err)
	}
	if k := ckey(c); k == afterInvoke {
		t.Fatal("Key must mark crashed nodes")
	}
}

// TestChaosTickBound: a run that passes the tick bound says what was still
// outstanding — the script, or, once the script is done, the plan window
// that holds its horizon — and a SyncInvokes drain says why it stopped.
func TestChaosTickBound(t *testing.T) {
	alg := registry.Counter()
	inc := model.Op{Name: spec.OpInc, Arg: model.Int(1)}
	script := func(nodes ...model.NodeID) Script {
		var s Script
		for _, n := range nodes {
			s = append(s, ScriptOp{Node: n, Op: inc})
		}
		return s
	}
	for _, tc := range []struct {
		name   string
		script Script
		plan   FaultPlan
		sync   bool
		want   string
	}{
		{
			name:   "script waits on a crashed node",
			script: script(1, 0),
			plan:   FaultPlan{Crashes: []CrashWindow{{Node: 0, From: 0, To: 20000}}},
			want:   "sim: chaos run did not finish its script within 10000 ticks (1/2 ops issued)",
		},
		{
			name:   "crash window outlasts the script",
			script: script(1, 2, 1, 2),
			plan:   FaultPlan{Crashes: []CrashWindow{{Node: 0, From: 1, To: 20000}}},
			want:   "sim: chaos run finished its script (4/4 ops issued), but its crash window [1,20000) of node t0 was still open after 10000 ticks",
		},
		{
			name:   "partition window outlasts the script",
			script: script(0, 1),
			plan: FaultPlan{
				Partitions: []PartitionWindow{{From: 0, To: 30000, Groups: [][]model.NodeID{{0}, {1, 2}}}},
				Crashes:    []CrashWindow{{Node: 2, From: 5, To: 20000}},
			},
			want: "sim: chaos run finished its script (2/2 ops issued), but its partition window [0,30000) was still open after 10000 ticks",
		},
		{
			name:   "drain blocked by a partition",
			script: script(0, 1),
			plan:   FaultPlan{Partitions: []PartitionWindow{{From: 0, To: 50, Groups: [][]model.NodeID{{0}, {1, 2}}}}},
			sync:   true,
			want:   "sim: node t1 cannot drain: 1 copies blocked",
		},
		{
			name:   "drain past the bound",
			script: script(0, 1),
			plan:   FaultPlan{Link: LinkFaults{Loss: 1, DelayMax: 20000}},
			sync:   true,
			want:   "sim: draining node t1 exceeded 10000 ticks",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Chaos{Object: alg.New(), Abs: alg.Abs, Script: tc.script, Plan: tc.plan, Seed: 1, SyncInvokes: tc.sync}.Run()
			if err == nil || err.Error() != tc.want {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}
