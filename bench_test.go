// Benchmarks regenerating every figure-level experiment of the paper, plus
// the scaling sweeps and ablations recorded in EXPERIMENTS.md. One benchmark
// per paper artifact:
//
//	Fig 2  → BenchmarkFig2_RGAOperations
//	Fig 3  → BenchmarkFig3_ACCDecision
//	Fig 4  → BenchmarkFig4_CSeqACC
//	Fig 5  → BenchmarkFig5_XACCDecision
//	Fig 9/12 → BenchmarkFig12_LogicProof
//	Thm 7  → BenchmarkThm7_Refinement
//	Sec 8  → BenchmarkSec8_ProofObligations/<algorithm>
//	Lem 5  → BenchmarkLem5_Convergence
//
// Ablations: witness-mode vs exhaustive ACC, trace-length scaling of the
// witness checker, and per-algorithm simulator throughput.
package repro_test

import (
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/absmachine"
	"repro/internal/core"
	"repro/internal/crdt"
	"repro/internal/crdts/cseq"
	"repro/internal/crdts/registry"
	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/model"
	"repro/internal/product"
	"repro/internal/proofmethod"
	"repro/internal/refine"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/statebased"
	"repro/internal/trace"
)

func mustInvoke(b *testing.B, c *sim.Cluster, node model.NodeID, op model.Op) model.MsgID {
	b.Helper()
	_, mid, err := c.Invoke(node, op)
	if err != nil {
		b.Fatal(err)
	}
	return mid
}

func mustDeliver(b *testing.B, c *sim.Cluster, node model.NodeID, mids ...model.MsgID) {
	b.Helper()
	for _, mid := range mids {
		if err := c.Deliver(node, mid); err != nil {
			b.Fatal(err)
		}
	}
}

func addAfter(a, bb string) model.Op {
	anchor := model.Str(a)
	if anchor.Equal(spec.Sentinel) {
		anchor = spec.Sentinel
	}
	return model.Op{Name: spec.OpAddAfter, Arg: model.Pair(anchor, model.Str(bb))}
}

// BenchmarkFig2_RGAOperations measures raw RGA operation throughput at the
// origin replica (prepare + local apply), the Fig 2 algorithm itself.
func BenchmarkFig2_RGAOperations(b *testing.B) {
	alg := registry.RGA()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := sim.NewCluster(alg.New(), 1)
		mustInvoke(b, c, 0, addAfter("◦", "e0"))
		for j := 1; j < 20; j++ {
			mustInvoke(b, c, 0, addAfter(fmt.Sprintf("e%d", j-1), fmt.Sprintf("e%d", j)))
		}
		mustInvoke(b, c, 0, model.Op{Name: spec.OpRead})
	}
}

// fig3Trace builds the Fig 3(a) execution on RGA.
func fig3Trace(b *testing.B) (trace.Trace, core.Problem) {
	alg := registry.RGA()
	c := sim.NewCluster(alg.New(), 2)
	a := mustInvoke(b, c, 0, addAfter("◦", "a"))
	mustDeliver(b, c, 1, a)
	bb := mustInvoke(b, c, 0, addAfter("a", "b"))
	cc := mustInvoke(b, c, 1, addAfter("a", "c"))
	mustDeliver(b, c, 1, bb)
	mustDeliver(b, c, 0, cc)
	mustInvoke(b, c, 0, model.Op{Name: spec.OpRead})
	mustInvoke(b, c, 1, model.Op{Name: spec.OpRead})
	return c.Trace(), core.Problem{Object: alg.New(), Spec: alg.Spec, Abs: alg.Abs}
}

// BenchmarkFig3_ACCDecision decides ACC on the Fig 3(a) trace, exhaustively
// and in witness mode (the ablation the EXPERIMENTS table reports).
func BenchmarkFig3_ACCDecision(b *testing.B) {
	tr, p := fig3Trace(b)
	alg := registry.RGA()
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.CheckACC(tr, p)
			if err != nil || !res.OK {
				b.Fatalf("%v %v", err, res.Reason)
			}
		}
	})
	b.Run("witness", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.CheckACCWitness(tr, p, alg.TSOrder)
			if err != nil || !res.OK {
				b.Fatalf("%v %v", err, res.Reason)
			}
		}
	})
}

// BenchmarkFig4_CSeqACC decides ACC on the Fig 4 continuous-sequence trace
// (apqced — per-node arbitration orders differ).
func BenchmarkFig4_CSeqACC(b *testing.B) {
	chosen := map[model.MsgID]*big.Rat{
		3: big.NewRat(-2, 1), 4: big.NewRat(5, 1),
		5: big.NewRat(4, 1), 6: big.NewRat(-1, 1),
	}
	obj := cseq.NewWithChooser(func(lo, hi *big.Rat, origin model.NodeID, mid model.MsgID) *big.Rat {
		if r, ok := chosen[mid]; ok {
			return r
		}
		return cseq.Midpoint(lo, hi, origin, mid)
	})
	alg := registry.CSeq()
	c := sim.NewCluster(obj, 2)
	a := mustInvoke(b, c, 0, addAfter("◦", "a"))
	mustDeliver(b, c, 1, a)
	cc := mustInvoke(b, c, 0, addAfter("a", "c"))
	mustDeliver(b, c, 1, cc)
	p := mustInvoke(b, c, 0, addAfter("a", "p"))
	d := mustInvoke(b, c, 0, addAfter("c", "d"))
	e := mustInvoke(b, c, 1, addAfter("c", "e"))
	q := mustInvoke(b, c, 1, addAfter("a", "q"))
	mustDeliver(b, c, 1, p, d)
	mustDeliver(b, c, 0, e, q)
	tr := c.Trace()
	prob := core.Problem{Object: obj, Spec: alg.Spec, Abs: alg.Abs}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.CheckACC(tr, prob)
		if err != nil || !res.OK {
			b.Fatalf("%v %v", err, res.Reason)
		}
	}
}

// BenchmarkFig5_XACCDecision decides XACC on the Fig 5(b) add-wins trace
// (the cancellation-relaxed coherence case).
func BenchmarkFig5_XACCDecision(b *testing.B) {
	alg := registry.AWSet()
	c := sim.NewCluster(alg.New(), 2, sim.WithCausalDelivery())
	add0 := model.Op{Name: spec.OpAdd, Arg: model.Int(0)}
	rmv0 := model.Op{Name: spec.OpRemove, Arg: model.Int(0)}
	m1 := mustInvoke(b, c, 0, add0)
	m2 := mustInvoke(b, c, 1, add0)
	m3 := mustInvoke(b, c, 0, rmv0)
	m4 := mustInvoke(b, c, 1, rmv0)
	mustDeliver(b, c, 0, m2, m4)
	mustDeliver(b, c, 1, m1, m3)
	tr := c.Trace()
	p := core.XProblem{
		Problem: core.Problem{Object: alg.New(), Spec: alg.Spec, Abs: alg.Abs},
		XSpec:   alg.XSpec,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.CheckXACC(tr, p)
		if err != nil || !res.OK {
			b.Fatalf("%v %v", err, res.Reason)
		}
	}
}

// BenchmarkFig12_LogicProof machine-checks the Fig 9/12 rely-guarantee proof.
func BenchmarkFig12_LogicProof(b *testing.B) {
	prog := lang.MustParse(`
		node t1 { addAfter("a", "b"); x := read(); }
		node t2 { u := read(); if ("b" in u) { addAfter("a", "c"); } }
		node t3 { v := read(); if ("c" in v) { addAfter("c", "d"); } y := read(); }`)
	alphaB := logic.Act(0, spec.OpAddAfter, model.Pair(model.Str("a"), model.Str("b")))
	alphaC := logic.Act(1, spec.OpAddAfter, model.Pair(model.Str("a"), model.Str("c")))
	alphaD := logic.Act(2, spec.OpAddAfter, model.Pair(model.Str("c"), model.Str("d")))
	g1 := logic.RG{{Issues: alphaB}}
	g2 := logic.RG{{Requires: []logic.Action{alphaB}, Issues: alphaC}}
	g3 := logic.RG{{Requires: []logic.Action{alphaC}, Issues: alphaD}}
	post := lang.MustParse(`node t { p := !(s == ["a","c","d","b"]) || (y == s || y == ["a","c","d"]); }`).
		Threads[0].Body[0].(lang.Assign).E
	pf := logic.Proof{
		Ctx: logic.Ctx{
			Spec:    spec.ListSpec{},
			IsQuery: func(n model.OpName) bool { return n == spec.OpRead },
		},
		Init: model.List(model.Str("a")),
		Threads: []logic.ThreadProof{
			{Thread: prog.Threads[0], R: append(append(logic.RG{}, g2...), g3...), G: g1},
			{Thread: prog.Threads[1], R: append(append(logic.RG{}, g1...), g3...), G: g2},
			{Thread: prog.Threads[2], R: append(append(logic.RG{}, g1...), g2...), G: g3, Post: post},
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := pf.Check(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThm7_Refinement runs the contextual-refinement check (concrete vs
// abstract behaviour enumeration) for one representative per data type.
func BenchmarkThm7_Refinement(b *testing.B) {
	clients := map[string]string{
		"counter": `node t1 { inc(1); x := read(); } node t2 { dec(2); y := read(); }`,
		"lww-set": `node t1 { add("a"); x := lookup("a"); } node t2 { remove("a"); y := lookup("a"); }`,
		"rga": `node t1 { addAfter(sentinel, "a"); x := read(); }
		        node t2 { u := read(); if ("a" in u) { addAfter("a", "b"); } y := read(); }`,
		"aw-set": `node t1 { add("a"); x := lookup("a"); } node t2 { remove("a"); y := lookup("a"); }`,
	}
	for _, name := range []string{"counter", "lww-set", "rga", "aw-set"} {
		alg, _ := registry.ByName(name)
		prog := lang.MustParse(clients[name])
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := refine.Check(alg, prog, refine.Explorer{})
				if err != nil || !res.OK {
					b.Fatalf("%v %v", err, res.Extra)
				}
			}
		})
	}
}

// BenchmarkSec8_ProofObligations runs the CRDT-TS obligation sweep for each
// of the seven UCR algorithms (the paper's Sec 8 examples).
func BenchmarkSec8_ProofObligations(b *testing.B) {
	for _, alg := range registry.UCR() {
		alg := alg
		b.Run(alg.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep := proofmethod.Check(alg, proofmethod.Config{Seeds: 2, Steps: 25})
				if err := rep.Err(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLem5_Convergence measures the CvT (SEC) decision on randomized
// traces — the property Lemma 5 derives from ACC.
func BenchmarkLem5_Convergence(b *testing.B) {
	for _, alg := range []registry.Algorithm{registry.RGA(), registry.LWWSet()} {
		alg := alg
		w := sim.Workload{
			Object: alg.New(), Abs: alg.Abs, Gen: sim.GenFunc(alg.GenOp),
			Nodes: 3, Steps: 60, Causal: alg.NeedsCausal,
		}
		tr := w.Run(1).Trace()
		b.Run(alg.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := core.CheckConvergenceFrom(tr, alg.New().Init(), alg.Abs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkACCWitness_TraceLength is the scaling sweep: witness-mode ACC
// decision cost against trace length.
func BenchmarkACCWitness_TraceLength(b *testing.B) {
	alg := registry.RGA()
	for _, steps := range []int{20, 40, 80, 160} {
		steps := steps
		w := sim.Workload{
			Object: alg.New(), Abs: alg.Abs, Gen: sim.GenFunc(alg.GenOp),
			Nodes: 3, Steps: steps,
		}
		tr := w.Run(1).Trace()
		p := core.Problem{Object: alg.New(), Spec: alg.Spec, Abs: alg.Abs}
		b.Run(fmt.Sprintf("steps=%d/events=%d", steps, len(tr)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.CheckACCWitness(tr, p, alg.TSOrder)
				if err != nil || !res.OK {
					b.Fatalf("%v %v", err, res.Reason)
				}
			}
		})
	}
}

// BenchmarkSim_Throughput measures simulator operation throughput per
// algorithm (invoke + broadcast + drain).
func BenchmarkSim_Throughput(b *testing.B) {
	for _, alg := range registry.All() {
		alg := alg
		b.Run(alg.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := sim.Workload{
					Object: alg.New(), Abs: alg.Abs, Gen: sim.GenFunc(alg.GenOp),
					Nodes: 3, Steps: 50, Causal: alg.NeedsCausal, FinalDrain: true,
				}
				c := w.Run(int64(i + 1))
				if _, ok := c.Converged(alg.Abs); !ok {
					b.Fatal("diverged")
				}
			}
		})
	}
}

// BenchmarkXACCWitness_TraceLength is the X-wins scaling sweep: witness-mode
// XACC against causal trace length (the exhaustive decider caps at 9 visible
// operations per node; the witness has no such bound).
func BenchmarkXACCWitness_TraceLength(b *testing.B) {
	alg := registry.AWSet()
	for _, steps := range []int{20, 40, 80} {
		steps := steps
		w := sim.Workload{
			Object: alg.New(), Abs: alg.Abs, Gen: sim.GenFunc(alg.GenOp),
			Nodes: 3, Steps: steps, Causal: true,
		}
		tr := w.Run(1).Trace()
		p := core.XProblem{
			Problem: core.Problem{Object: alg.New(), Spec: alg.Spec, Abs: alg.Abs},
			XSpec:   alg.XSpec,
		}
		b.Run(fmt.Sprintf("steps=%d/events=%d", steps, len(tr)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.CheckXACCWitness(tr, p)
				if err != nil || !res.OK {
					b.Fatalf("%v %v", err, res.Reason)
				}
			}
		})
	}
}

// BenchmarkAbsMachine_CoherentInsert measures the Sec 6 machine's insertion
// cost as ξ sequences grow.
func BenchmarkAbsMachine_CoherentInsert(b *testing.B) {
	for _, ops := range []int{8, 16, 32} {
		ops := ops
		b.Run(fmt.Sprintf("ops=%d", ops), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := absmachine.New(spec.SetSpec{}, 2, spec.SetSpec{}.Init(),
					func(o model.Op) bool { return o.Name == spec.OpRead || o.Name == spec.OpLookup })
				var mids []model.MsgID
				for j := 0; j < ops; j++ {
					name := spec.OpAdd
					if j%2 == 1 {
						name = spec.OpRemove
					}
					_, mid := m.Invoke(0, model.Op{Name: name, Arg: model.Int(int64(j % 3))})
					mids = append(mids, mid)
				}
				for _, mid := range mids {
					pos := m.InsertPositions(1, mid)
					if len(pos) == 0 {
						b.Fatal("stuck")
					}
					if err := m.Receive(1, mid, pos[len(pos)-1]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkProduct_Composition measures the Sec 2.4 product object under a
// mixed cart+clock workload, with its compositional ACC witness.
func BenchmarkProduct_Composition(b *testing.B) {
	cart := registry.LWWSet()
	clock := registry.Counter()
	obj := product.MustNew(
		product.Component{Name: "cart", Object: cart.New(), Spec: cart.Spec, Abs: cart.Abs, TSOrder: cart.TSOrder},
		product.Component{Name: "clock", Object: clock.New(), Spec: clock.Spec, Abs: clock.Abs, TSOrder: clock.TSOrder},
	)
	gen := func(rng *rand.Rand, _ crdt.State, _ crdt.Abstraction, pool []model.Value, _ func() model.Value) model.Op {
		if rng.Intn(2) == 0 {
			return model.Op{Name: "cart.add", Arg: pool[rng.Intn(len(pool))]}
		}
		return model.Op{Name: "clock.inc", Arg: model.Int(1)}
	}
	p := core.Problem{Object: obj, Spec: obj.ProductSpec(), Abs: obj.Abs}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := sim.Workload{Object: obj, Abs: obj.Abs, Gen: gen, Nodes: 3, Steps: 30}
		tr := w.Run(int64(i + 1)).Trace()
		res, err := core.CheckACCWitness(tr, p, obj.TSOrder)
		if err != nil || !res.OK {
			b.Fatalf("%v %v", err, res.Reason)
		}
	}
}

// BenchmarkStateBased_Gossip measures the state-based PN-counter under
// random updates and anti-entropy (the future-work substrate).
func BenchmarkStateBased_Gossip(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		c := statebased.NewCluster(statebased.PNCounterObject{}, 3)
		for j := 0; j < 60; j++ {
			node := model.NodeID(rng.Intn(3))
			if err := c.Update(node, model.Op{Name: "inc", Arg: model.Int(1)}); err != nil {
				b.Fatal(err)
			}
			if rng.Intn(2) == 0 {
				c.GossipRandom(rng)
			}
		}
		c.GossipAll()
		if _, ok := c.Converged(); !ok {
			b.Fatal("diverged")
		}
	}
}

// BenchmarkLogic_Judgments measures the core logic judgments on the Fig 12
// assertions: stabilization, Sat, and entailment.
func BenchmarkLogic_Judgments(b *testing.B) {
	ctx := logic.Ctx{Spec: spec.ListSpec{}}
	ab := logic.Act(0, spec.OpAddAfter, model.Pair(model.Str("a"), model.Str("b")))
	ac := logic.Act(1, spec.OpAddAfter, model.Pair(model.Str("a"), model.Str("c")))
	ad := logic.Act(2, spec.OpAddAfter, model.Pair(model.Str("c"), model.Str("d")))
	base := logic.Base{Init: model.List(model.Str("a"))}
	R := logic.RG{
		{Issues: ab},
		{Requires: []logic.Action{ab}, Issues: ac},
		{Requires: []logic.Action{ac}, Issues: ad},
	}
	post := lang.MustParse(`node t { p := s == ["a"] || "b" in s || true; }`).Threads[0].Body[0].(lang.Assign).E
	b.Run("stabilize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := ctx.Stabilize(base, R)
			if err := ctx.Sta(p, R); err != nil {
				b.Fatal(err)
			}
		}
	})
	stable := ctx.Stabilize(base, R)
	b.Run("sat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := ctx.Sat(stable, post); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("entail", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := ctx.Entail(base, stable); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExploreParallel compares the sequential schedule explorer against
// the parallel engine on a 3-node, 8-op counter script. The three leading
// reads produce identity effectors (never broadcast), which keeps the
// interleaving space tractable while the five-increment tail gives the
// commutativity reduction a long drain phase to prune; the sequential
// explorer walks the same graph unreduced.
func BenchmarkExploreParallel(b *testing.B) {
	alg := registry.Counter()
	script := sim.Script{
		{Node: 0, Op: model.Op{Name: spec.OpRead}},
		{Node: 1, Op: model.Op{Name: spec.OpRead}},
		{Node: 2, Op: model.Op{Name: spec.OpRead}},
		{Node: 0, Op: model.Op{Name: spec.OpInc, Arg: model.Int(1)}},
		{Node: 1, Op: model.Op{Name: spec.OpInc, Arg: model.Int(2)}},
		{Node: 2, Op: model.Op{Name: spec.OpInc, Arg: model.Int(3)}},
		{Node: 0, Op: model.Op{Name: spec.OpInc, Arg: model.Int(4)}},
		{Node: 1, Op: model.Op{Name: spec.OpInc, Arg: model.Int(5)}},
	}
	const budget = 20_000_000
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.ExploreSchedules(alg.New(), 3, script, false, budget, func(*sim.Cluster) error { return nil }); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		workers := workers
		b.Run(fmt.Sprintf("parallel/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := sim.ExploreSchedulesParallel(alg.New(), 3, script, false,
					sim.ParallelConfig{Workers: workers, MaxStates: budget}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Dedup-key ablation: the per-configuration cost of the seen-set key on
	// the explorers' hot path — interning the canonical binary encoding as a
	// string vs the 64-bit fingerprint of the same bytes used now. The
	// snapshots include mid-schedule configurations with pending messages, so
	// both keyings cover the message fields, not just replica states.
	snaps := exploreSnapshots(alg, script)
	b.Run("dedup-key/string", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seen := make(map[string]bool, len(snaps))
			for j, c := range snaps {
				seen[strconv.Itoa(j%8)+"|"+string(c.AppendBinary(nil))] = true
			}
			if len(seen) != len(snaps) {
				b.Fatalf("string keys collided: %d of %d", len(seen), len(snaps))
			}
		}
	})
	b.Run("dedup-key/fingerprint", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seen := make(map[uint64]bool, len(snaps))
			for j, c := range snaps {
				seen[c.Fingerprint(uint64(j%8))] = true
			}
			if len(seen) != len(snaps) {
				b.Fatalf("fingerprints collided: %d of %d", len(seen), len(snaps))
			}
		}
	})
}

// exploreSnapshots walks one delivery schedule of script, cloning the cluster
// after every invoke and after each single delivery — a spread of distinct
// configurations (including ones with undelivered copies) matching what the
// explorers fingerprint.
func exploreSnapshots(alg registry.Algorithm, script sim.Script) []*sim.Cluster {
	var out []*sim.Cluster
	c := sim.NewCluster(alg.New(), 3)
	out = append(out, c.Clone())
	for _, so := range script {
		if _, _, err := c.Invoke(so.Node, so.Op); err == nil {
			out = append(out, c.Clone())
		}
		for dst := 0; dst < 3; dst++ {
			if mids := c.Deliverable(model.NodeID(dst)); len(mids) > 0 {
				if err := c.Deliver(model.NodeID(dst), mids[0]); err == nil {
					out = append(out, c.Clone())
				}
			}
		}
	}
	c.DeliverAll()
	return append(out, c.Clone())
}

// BenchmarkFW1_XLogicProof measures the prototype X-wins client-logic proof
// of the Sec 2.5 done-flag postcondition (add-wins side).
func BenchmarkFW1_XLogicProof(b *testing.B) {
	prog := lang.MustParse(`
		node t1 { add(0); remove(0); add("d1"); x := read(); }
		node t2 { add(0); remove(0); add("d2"); y := read(); }`)
	add1 := logic.Action{ID: "add1", Node: 0, Op: model.Op{Name: spec.OpAdd, Arg: model.Int(0)}}
	rmv1 := logic.Action{ID: "rmv1", Node: 0, Op: model.Op{Name: spec.OpRemove, Arg: model.Int(0)}}
	d1 := logic.Action{ID: "d1", Node: 0, Op: model.Op{Name: spec.OpAdd, Arg: model.Str("d1")}}
	add2 := logic.Action{ID: "add2", Node: 1, Op: model.Op{Name: spec.OpAdd, Arg: model.Int(0)}}
	rmv2 := logic.Action{ID: "rmv2", Node: 1, Op: model.Op{Name: spec.OpRemove, Arg: model.Int(0)}}
	d2 := logic.Action{ID: "d2", Node: 1, Op: model.Op{Name: spec.OpAdd, Arg: model.Str("d2")}}
	g1 := logic.RG{{Issues: add1}, {Requires: []logic.Action{add1}, Issues: rmv1}, {Requires: []logic.Action{rmv1}, Issues: d1}}
	g2 := logic.RG{{Issues: add2}, {Requires: []logic.Action{add2}, Issues: rmv2}, {Requires: []logic.Action{rmv2}, Issues: d2}}
	post1 := lang.MustParse(`node t { p := !("d2" in s) || !(0 in s); }`).Threads[0].Body[0].(lang.Assign).E
	post2 := lang.MustParse(`node t { p := !("d1" in s) || !(0 in s); }`).Threads[0].Body[0].(lang.Assign).E
	pf := logic.XProof{
		Ctx: logic.XCtx{XSpec: spec.AWSetSpec{}, IsQuery: func(n model.OpName) bool {
			return n == spec.OpRead || n == spec.OpLookup
		}},
		Init: model.List(),
		Threads: []logic.ThreadProof{
			{Thread: prog.Threads[0], R: g2, G: g1, Post: post1},
			{Thread: prog.Threads[1], R: g1, G: g2, Post: post2},
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := pf.Check(); err != nil {
			b.Fatal(err)
		}
	}
}
