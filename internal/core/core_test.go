package core

import (
	"math/big"
	"reflect"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/crdt"
	"repro/internal/crdts/cseq"
	"repro/internal/crdts/registry"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/trace"
)

func v(s string) model.Value { return model.Str(s) }

func addAfter(a, b model.Value) model.Op {
	return model.Op{Name: spec.OpAddAfter, Arg: model.Pair(a, b)}
}

func mustInvoke(t *testing.T, c *sim.Cluster, node model.NodeID, op model.Op) (model.Value, model.MsgID) {
	t.Helper()
	ret, mid, err := c.Invoke(node, op)
	if err != nil {
		t.Fatalf("Invoke(%s, %s): %v", node, op, err)
	}
	return ret, mid
}

func mustDeliver(t *testing.T, c *sim.Cluster, node model.NodeID, mid model.MsgID) {
	t.Helper()
	if err := c.Deliver(node, mid); err != nil {
		t.Fatal(err)
	}
}

func problem(alg registry.Algorithm) Problem {
	return Problem{Object: alg.New(), Spec: alg.Spec, Abs: alg.Abs}
}

// fig3aTrace builds the execution of Fig 3(a) on RGA: concurrent
// addAfter(a,b) at t1 and addAfter(a,c) at t2 (after a shared insert of a),
// cross delivery, then both nodes read acb.
func fig3aTrace(t *testing.T) (trace.Trace, Problem) {
	alg := registry.RGA()
	c := sim.NewCluster(alg.New(), 2)
	_, mA := mustInvoke(t, c, 0, addAfter(spec.Sentinel, v("a")))
	mustDeliver(t, c, 1, mA)
	_, mB := mustInvoke(t, c, 0, addAfter(v("a"), v("b")))
	_, mC := mustInvoke(t, c, 1, addAfter(v("a"), v("c")))
	mustDeliver(t, c, 1, mB)
	mustDeliver(t, c, 0, mC)
	want := model.List(v("a"), v("c"), v("b"))
	for node := model.NodeID(0); node < 2; node++ {
		ret, _ := mustInvoke(t, c, node, model.Op{Name: spec.OpRead})
		if !ret.Equal(want) {
			t.Fatalf("node %s read %s, want acb", node, ret)
		}
	}
	return c.Trace(), problem(alg)
}

// TestFig3a_ACC: the Fig 3(a) execution satisfies ACC, both exhaustively and
// via the ↣-witness, and both nodes arbitrate addAfter(a,b) before
// addAfter(a,c) (they conflict, so the orders must agree).
func TestFig3a_ACC(t *testing.T) {
	tr, p := fig3aTrace(t)
	res, err := CheckACC(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("ACC rejected Fig 3(a): %s", res.Reason)
	}
	wres, err := CheckACCWitness(tr, p, registry.RGA().TSOrder)
	if err != nil {
		t.Fatal(err)
	}
	if !wres.OK {
		t.Fatalf("witness ACC rejected Fig 3(a): %s", wres.Reason)
	}
	// b's op (mid 2) must precede c's op (mid 3) on both nodes: the final
	// read acb fixes the order of the conflicting adds.
	for node, ord := range res.Orders {
		pos := map[model.MsgID]int{}
		for i, m := range ord {
			pos[m] = i
		}
		if pos[2] > pos[3] {
			t.Errorf("node %s arbitrates c's add before b's: %v", node, ord)
		}
	}
}

// TestFig3b_VisibilityPreserved: the Fig 3(b) execution, where t2 reads ab
// after receiving addAfter(a,b) and only then issues addAfter(a,c).
func TestFig3b_VisibilityPreserved(t *testing.T) {
	alg := registry.RGA()
	c := sim.NewCluster(alg.New(), 2)
	_, mA := mustInvoke(t, c, 0, addAfter(spec.Sentinel, v("a")))
	mustDeliver(t, c, 1, mA)
	_, mB := mustInvoke(t, c, 0, addAfter(v("a"), v("b")))
	mustDeliver(t, c, 1, mB)
	u, _ := mustInvoke(t, c, 1, model.Op{Name: spec.OpRead})
	if !u.Equal(model.List(v("a"), v("b"))) {
		t.Fatalf("u = %s, want ab", u)
	}
	_, mC := mustInvoke(t, c, 1, addAfter(v("a"), v("c")))
	mustDeliver(t, c, 0, mC)
	x, _ := mustInvoke(t, c, 0, model.Op{Name: spec.OpRead})
	y, _ := mustInvoke(t, c, 1, model.Op{Name: spec.OpRead})
	want := model.List(v("a"), v("c"), v("b"))
	if !x.Equal(want) || !y.Equal(want) {
		t.Fatalf("x = %s, y = %s, want acb", x, y)
	}
	res, err := CheckACC(c.Trace(), problem(alg))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("ACC rejected Fig 3(b): %s", res.Reason)
	}
}

// TestFig4_DifferentArbitrationOrders reproduces Fig 4 on the continuous
// sequence: the apqced outcome forces t1 and t2 to order the NON-conflicting
// pairs (①,④) and (②,③) differently, while remaining coherent on
// conflicting pairs — the paper's argument for per-node arbitration orders.
func TestFig4_DifferentArbitrationOrders(t *testing.T) {
	chosen := map[model.MsgID]*big.Rat{
		3: big.NewRat(-2, 1), // ① p under anchor a, below c's sub-component
		4: big.NewRat(5, 1),  // ② d under anchor c (unbounded)
		5: big.NewRat(4, 1),  // ③ e under anchor c, below ②'s
		6: big.NewRat(-1, 1), // ④ q under anchor a, above ①'s
	}
	obj := cseq.NewWithChooser(func(lo, hi *big.Rat, origin model.NodeID, mid model.MsgID) *big.Rat {
		if r, ok := chosen[mid]; ok {
			return r
		}
		return cseq.Midpoint(lo, hi, origin, mid)
	})
	alg := registry.CSeq()
	c := sim.NewCluster(obj, 2)
	_, mA := mustInvoke(t, c, 0, addAfter(spec.Sentinel, v("a")))
	mustDeliver(t, c, 1, mA)
	_, mC := mustInvoke(t, c, 0, addAfter(v("a"), v("c")))
	mustDeliver(t, c, 1, mC)
	// ① and ② on t0; ③ and ④ on t1; no exchange until the end.
	_, m1 := mustInvoke(t, c, 0, addAfter(v("a"), v("p")))
	_, m2 := mustInvoke(t, c, 0, addAfter(v("c"), v("d")))
	_, m3 := mustInvoke(t, c, 1, addAfter(v("c"), v("e")))
	_, m4 := mustInvoke(t, c, 1, addAfter(v("a"), v("q")))
	mustDeliver(t, c, 1, m1)
	mustDeliver(t, c, 1, m2)
	mustDeliver(t, c, 0, m3)
	mustDeliver(t, c, 0, m4)
	want := model.List(v("a"), v("p"), v("q"), v("c"), v("e"), v("d"))
	for node := model.NodeID(0); node < 2; node++ {
		ret, _ := mustInvoke(t, c, node, model.Op{Name: spec.OpRead})
		if !ret.Equal(want) {
			t.Fatalf("node %s read %s, want apqced", node, ret)
		}
	}
	p := Problem{Object: obj, Spec: alg.Spec, Abs: alg.Abs}
	res, err := CheckACC(c.Trace(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("ACC rejected Fig 4: %s", res.Reason)
	}
	// The two nodes must order ① (m1) and ④ (m4) differently: t0 has
	// ④ before ①, t1 has ① ... wait — per the paper t1's only acceptable
	// order is ④①②③ and t2's is ②③④①: both order ④ before ①? No:
	// they order ① and ② differently from ③ and ④'s perspective. Assert
	// simply that the orders differ on at least one non-conflicting pair.
	ord0, ord1 := res.Orders[0], res.Orders[1]
	pos0, pos1 := map[model.MsgID]int{}, map[model.MsgID]int{}
	for i, m := range ord0 {
		pos0[m] = i
	}
	for i, m := range ord1 {
		pos1[m] = i
	}
	diff := false
	for _, a := range []model.MsgID{m1, m2, m3, m4} {
		for _, b := range []model.MsgID{m1, m2, m3, m4} {
			if a != b && (pos0[a] < pos0[b]) != (pos1[a] < pos1[b]) {
				diff = true
			}
		}
	}
	if !diff {
		t.Error("expected the two nodes to arbitrate some pair differently (Fig 4's point)")
	}
}

// fig5aTrace builds Fig 5(a) on the add-wins set (element 1 half):
// t2 adds 1, replicates; t1 adds 1 concurrently with t2's remove(1); after
// exchange, lookup(1) is true on both nodes.
func fig5aTrace(t *testing.T) (trace.Trace, XProblem) {
	alg := registry.AWSet()
	c := sim.NewCluster(alg.New(), 2, sim.WithCausalDelivery())
	_, mAdd1 := mustInvoke(t, c, 1, model.Op{Name: spec.OpAdd, Arg: model.Int(1)})
	mustDeliver(t, c, 0, mAdd1)
	_, mAdd2 := mustInvoke(t, c, 0, model.Op{Name: spec.OpAdd, Arg: model.Int(1)})
	_, mRmv := mustInvoke(t, c, 1, model.Op{Name: spec.OpRemove, Arg: model.Int(1)})
	mustDeliver(t, c, 0, mRmv)
	mustDeliver(t, c, 1, mAdd2)
	for node := model.NodeID(0); node < 2; node++ {
		ret, _ := mustInvoke(t, c, node, model.Op{Name: spec.OpLookup, Arg: model.Int(1)})
		if !ret.Equal(model.True) {
			t.Fatalf("node %s lookup(1) = %s, want true (add wins)", node, ret)
		}
	}
	return c.Trace(), XProblem{
		Problem: Problem{Object: alg.New(), Spec: alg.Spec, Abs: alg.Abs},
		XSpec:   alg.XSpec,
	}
}

// TestFig5a_XACC: the add-wins execution of Fig 5(a) satisfies XACC.
func TestFig5a_XACC(t *testing.T) {
	tr, p := fig5aTrace(t)
	res, err := CheckXACC(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("XACC rejected Fig 5(a): %s", res.Reason)
	}
}

// fig5bTrace builds Fig 5(b): t1 runs add(0); remove(0), t2 runs add(0);
// remove(0), with lookups true before and false after the exchange.
func fig5bTrace(t *testing.T) (trace.Trace, XProblem) {
	alg := registry.AWSet()
	c := sim.NewCluster(alg.New(), 2, sim.WithCausalDelivery())
	add0 := model.Op{Name: spec.OpAdd, Arg: model.Int(0)}
	rmv0 := model.Op{Name: spec.OpRemove, Arg: model.Int(0)}
	look0 := model.Op{Name: spec.OpLookup, Arg: model.Int(0)}
	_, m1 := mustInvoke(t, c, 0, add0) // ①
	_, m2 := mustInvoke(t, c, 1, add0) // ②
	r, _ := mustInvoke(t, c, 0, look0)
	if !r.Equal(model.True) {
		t.Fatal("t1 first lookup must be true")
	}
	r, _ = mustInvoke(t, c, 1, look0)
	if !r.Equal(model.True) {
		t.Fatal("t2 first lookup must be true")
	}
	_, m3 := mustInvoke(t, c, 0, rmv0) // ③ cancels ①
	_, m4 := mustInvoke(t, c, 1, rmv0) // ④ cancels ②
	mustDeliver(t, c, 0, m2)
	mustDeliver(t, c, 0, m4)
	mustDeliver(t, c, 1, m1)
	mustDeliver(t, c, 1, m3)
	r, _ = mustInvoke(t, c, 0, look0)
	if !r.Equal(model.False) {
		t.Fatal("t1 second lookup must be false")
	}
	r, _ = mustInvoke(t, c, 1, look0)
	if !r.Equal(model.False) {
		t.Fatal("t2 second lookup must be false")
	}
	return c.Trace(), XProblem{
		Problem: Problem{Object: alg.New(), Spec: alg.Spec, Abs: alg.Abs},
		XSpec:   alg.XSpec,
	}
}

// TestFig5b_XACCHoldsPlainCohWouldFail: the Fig 5(b) execution satisfies
// XACC thanks to cancellation (nc-vis) — but no pair of per-node orders
// satisfies the strict coherence Coh of plain ACC, which is exactly why
// Sec 9 relaxes it.
func TestFig5b_XACCHoldsPlainCohWouldFail(t *testing.T) {
	tr, p := fig5bTrace(t)
	res, err := CheckXACC(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("XACC rejected Fig 5(b): %s", res.Reason)
	}
	accRes, err := CheckACC(tr, p.Problem)
	if err != nil {
		t.Fatal(err)
	}
	if accRes.OK {
		t.Fatal("plain ACC accepted Fig 5(b); the strict Coh should make it fail")
	}
	if !strings.Contains(accRes.Reason, "Coh") {
		t.Errorf("expected a coherence failure, got: %s", accRes.Reason)
	}
}

// TestXACCRequiresCausalDelivery: XACC refuses non-causal traces.
func TestXACCRequiresCausalDelivery(t *testing.T) {
	alg := registry.AWSet()
	c := sim.NewCluster(alg.New(), 2) // no causal enforcement
	_, m1 := mustInvoke(t, c, 0, model.Op{Name: spec.OpAdd, Arg: model.Int(1)})
	_, m2 := mustInvoke(t, c, 0, model.Op{Name: spec.OpRemove, Arg: model.Int(1)})
	mustDeliver(t, c, 1, m2) // out of causal order
	mustDeliver(t, c, 1, m1)
	p := XProblem{Problem: Problem{Object: alg.New(), Spec: alg.Spec, Abs: alg.Abs}, XSpec: alg.XSpec}
	if _, err := CheckXACC(c.Trace(), p); err != ErrNotCausal {
		t.Fatalf("err = %v, want ErrNotCausal", err)
	}
}

// TestRandomTraces_WitnessACCAndSEC is the executable face of Theorem 8 and
// Lemma 5: for every UCR algorithm, randomized executions satisfy ACC (via
// the ↣-derived witness) and converge (CvT).
func TestRandomTraces_WitnessACCAndSEC(t *testing.T) {
	for _, alg := range registry.UCR() {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				w := sim.Workload{
					Object: alg.New(),
					Abs:    alg.Abs,
					Gen:    sim.GenFunc(alg.GenOp),
					Nodes:  3,
					Steps:  30,
				}
				c := w.Run(seed)
				tr := c.Trace()
				p := Problem{Object: alg.New(), Spec: alg.Spec, Abs: alg.Abs}
				res, err := CheckACCWitness(tr, p, alg.TSOrder)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !res.OK {
					t.Fatalf("seed %d: witness ACC failed: %s\ntrace:\n%s", seed, res.Reason, tr)
				}
				if err := CheckConvergence(tr, alg.New(), alg.Abs); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// TestSmallRandomTraces_ExhaustiveACC cross-validates the witness mode with
// the complete search on small traces.
func TestSmallRandomTraces_ExhaustiveACC(t *testing.T) {
	for _, alg := range registry.UCR() {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				w := sim.Workload{
					Object: alg.New(),
					Abs:    alg.Abs,
					Gen:    sim.GenFunc(alg.GenOp),
					Nodes:  2,
					Steps:  8,
				}
				c := w.Run(seed)
				p := Problem{Object: alg.New(), Spec: alg.Spec, Abs: alg.Abs}
				res, err := CheckACC(c.Trace(), p)
				if err != nil {
					t.Skipf("seed %d produced an over-large trace: %v", seed, err)
				}
				if !res.OK {
					t.Fatalf("seed %d: exhaustive ACC failed: %s\ntrace:\n%s", seed, res.Reason, c.Trace())
				}
			}
		})
	}
}

// TestXWinsRandomTraces_XACCAndSEC: small random causal executions of the
// add-wins and remove-wins sets satisfy XACC, and all executions converge.
func TestXWinsRandomTraces_XACCAndSEC(t *testing.T) {
	for _, alg := range registry.XWins() {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				w := sim.Workload{
					Object: alg.New(),
					Abs:    alg.Abs,
					Gen:    sim.GenFunc(alg.GenOp),
					Nodes:  2,
					Steps:  8,
					Causal: true,
				}
				c := w.Run(seed)
				p := XProblem{Problem: Problem{Object: alg.New(), Spec: alg.Spec, Abs: alg.Abs}, XSpec: alg.XSpec}
				res, err := CheckXACC(c.Trace(), p)
				if err != nil {
					t.Skipf("seed %d: %v", seed, err)
				}
				if !res.OK {
					t.Fatalf("seed %d: XACC failed: %s\ntrace:\n%s", seed, res.Reason, c.Trace())
				}
			}
			for seed := int64(1); seed <= 8; seed++ {
				w := sim.Workload{
					Object: alg.New(),
					Abs:    alg.Abs,
					Gen:    sim.GenFunc(alg.GenOp),
					Nodes:  3,
					Steps:  40,
					Causal: true,
				}
				c := w.Run(seed)
				if err := CheckConvergence(c.Trace(), alg.New(), alg.Abs); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// brokenSet is a negative control: a "set" whose remove effector deletes
// whatever is present at the RECEIVING node (not what the origin saw). Its
// effectors do not commute, it diverges, and ACC fails.
type brokenSet struct{}

type brokenState struct{ Elems *model.ValueSet }

func (s brokenState) AppendBinary(b []byte) []byte { return codec.AppendValueSet(b, s.Elems) }

type brokenAdd struct{ E model.Value }

func (d brokenAdd) Apply(s crdt.State) crdt.State {
	st := s.(brokenState)
	out := st.Elems.Clone()
	out.Add(d.E)
	return brokenState{Elems: out}
}
func (d brokenAdd) String() string { return "BrokenAdd(" + d.E.String() + ")" }

func (d brokenAdd) AppendBinary(b []byte) []byte { return append(b, d.String()...) }

type brokenRmv struct{ E model.Value }

func (d brokenRmv) Apply(s crdt.State) crdt.State {
	st := s.(brokenState)
	out := st.Elems.Clone()
	out.Remove(d.E)
	return brokenState{Elems: out}
}
func (d brokenRmv) String() string { return "BrokenRmv(" + d.E.String() + ")" }

func (d brokenRmv) AppendBinary(b []byte) []byte { return append(b, d.String()...) }

func (brokenSet) Init() crdt.State { return brokenState{Elems: model.NewValueSet()} }

func (brokenSet) Prepare(op model.Op, s crdt.State, origin model.NodeID, mid model.MsgID) (model.Value, crdt.Effector, error) {
	st := s.(brokenState)
	switch op.Name {
	case spec.OpAdd:
		return model.Nil(), brokenAdd{E: op.Arg}, nil
	case spec.OpRemove:
		return model.Nil(), brokenRmv{E: op.Arg}, nil
	case spec.OpLookup:
		return model.Bool(st.Elems.Has(op.Arg)), crdt.IdEff{}, nil
	default:
		return model.Nil(), nil, crdt.ErrUnknownOp
	}
}

func brokenAbs(s crdt.State) model.Value {
	return model.List(s.(brokenState).Elems.Elems()...)
}

// TestBrokenSetFailsACCAndSEC: the negative control is rejected — a
// concurrent add(x) ∥ remove(x) drives the replicas apart (the delivery
// order decides the outcome), violating both convergence and ACC.
func TestBrokenSetFailsACCAndSEC(t *testing.T) {
	obj := brokenSet{}
	c := sim.NewCluster(obj, 2)
	_, m1 := mustInvoke(t, c, 0, model.Op{Name: spec.OpAdd, Arg: v("x")})
	_, m2 := mustInvoke(t, c, 1, model.Op{Name: spec.OpRemove, Arg: v("x")})
	mustDeliver(t, c, 1, m1) // t1: remove then add → x present
	mustDeliver(t, c, 0, m2) // t0: add then remove → x absent
	r0, _ := mustInvoke(t, c, 0, model.Op{Name: spec.OpLookup, Arg: v("x")})
	r1, _ := mustInvoke(t, c, 1, model.Op{Name: spec.OpLookup, Arg: v("x")})
	if r0.Equal(r1) {
		t.Fatal("expected divergence in the broken set")
	}
	if err := CheckConvergence(c.Trace(), obj, brokenAbs); err == nil {
		t.Error("convergence check missed the divergence")
	}
	p := Problem{Object: obj, Spec: spec.SetSpec{}, Abs: brokenAbs}
	res, err := CheckACC(c.Trace(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Error("ACC accepted the broken set")
	}
}

// TestACCDetectsWrongReturnValue: an execution whose recorded return value
// contradicts every arbitration order is rejected (the FC half of ACC).
func TestACCDetectsWrongReturnValue(t *testing.T) {
	alg := registry.Counter()
	c := sim.NewCluster(alg.New(), 1)
	mustInvoke(t, c, 0, model.Op{Name: spec.OpInc, Arg: model.Int(2)})
	mustInvoke(t, c, 0, model.Op{Name: spec.OpRead})
	tr := c.Trace()
	// Tamper with the read's return value.
	tr[len(tr)-1].Ret = model.Int(99)
	res, err := CheckACC(tr, problem(alg))
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("ACC accepted a wrong return value")
	}
}

// TestXACCWitnessAgreesWithExhaustive cross-validates the constructive XACC
// witness with the complete search on small causal traces, and checks it
// accepts long ones.
func TestXACCWitnessAgreesWithExhaustive(t *testing.T) {
	for _, alg := range registry.XWins() {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			p := XProblem{Problem: Problem{Object: alg.New(), Spec: alg.Spec, Abs: alg.Abs}, XSpec: alg.XSpec}
			for seed := int64(1); seed <= 6; seed++ {
				w := sim.Workload{
					Object: alg.New(), Abs: alg.Abs, Gen: sim.GenFunc(alg.GenOp),
					Nodes: 2, Steps: 8, Causal: true,
				}
				tr := w.Run(seed).Trace()
				wres, err := CheckXACCWitness(tr, p)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				eres, err := CheckXACC(tr, p)
				if err != nil {
					t.Skipf("seed %d: %v", seed, err)
				}
				if !eres.OK {
					t.Fatalf("seed %d: exhaustive XACC failed: %s", seed, eres.Reason)
				}
				if !wres.OK {
					t.Fatalf("seed %d: witness XACC failed where exhaustive passed: %s\n%s", seed, wres.Reason, tr)
				}
			}
			// Long causal traces: witness-mode only.
			for seed := int64(1); seed <= 5; seed++ {
				w := sim.Workload{
					Object: alg.New(), Abs: alg.Abs, Gen: sim.GenFunc(alg.GenOp),
					Nodes: 3, Steps: 40, Causal: true,
				}
				tr := w.Run(seed).Trace()
				res, err := CheckXACCWitness(tr, p)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !res.OK {
					t.Fatalf("seed %d: witness XACC failed on long trace: %s", seed, res.Reason)
				}
			}
		})
	}
}

// TestXACCWitnessFig5b: the constructive witness reproduces the Fig 5(b)
// certificate, including the cancellation exemption from ◀.
func TestXACCWitnessFig5b(t *testing.T) {
	tr, p := fig5bTrace(t)
	res, err := CheckXACCWitness(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("witness XACC rejected Fig 5(b): %s", res.Reason)
	}
}

// TestXACCWitnessRejectsNonCausal mirrors the exhaustive precondition.
func TestXACCWitnessRejectsNonCausal(t *testing.T) {
	alg := registry.AWSet()
	c := sim.NewCluster(alg.New(), 2)
	_, m1 := mustInvoke(t, c, 0, model.Op{Name: spec.OpAdd, Arg: model.Int(1)})
	_, m2 := mustInvoke(t, c, 0, model.Op{Name: spec.OpRemove, Arg: model.Int(1)})
	mustDeliver(t, c, 1, m2)
	mustDeliver(t, c, 1, m1)
	p := XProblem{Problem: Problem{Object: alg.New(), Spec: alg.Spec, Abs: alg.Abs}, XSpec: alg.XSpec}
	if _, err := CheckXACCWitness(c.Trace(), p); err != ErrNotCausal {
		t.Fatalf("err = %v, want ErrNotCausal", err)
	}
}

// TestExecRelatedIncrementalAgreesWithNaive: the incremental ExecRelated and
// the specification-literal one agree on random traces with both correct and
// corrupted arbitration orders.
func TestExecRelatedIncrementalAgreesWithNaive(t *testing.T) {
	for _, alg := range registry.UCR() {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			p := Problem{Object: alg.New(), Spec: alg.Spec, Abs: alg.Abs}
			for seed := int64(1); seed <= 5; seed++ {
				w := sim.Workload{
					Object: alg.New(), Abs: alg.Abs, Gen: sim.GenFunc(alg.GenOp),
					Nodes: 3, Steps: 25,
				}
				tr := w.Run(seed).Trace()
				c := &acc{sp: p.Spec, ts: alg.TSOrder}
				if err := c.start(tr); err != nil {
					t.Fatal(err)
				}
				for _, node := range tr.Nodes() {
					ord, err := witnessOrder(tr, node, c)
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					a := execRelated(tr, node, ord, p)
					b := execRelatedNaive(tr, node, ord, p)
					if a != b {
						t.Fatalf("seed %d node %s: incremental %v vs naive %v", seed, node, a, b)
					}
					// Corrupt the order (swap two entries) and compare again.
					if len(ord) >= 2 {
						bad := append(Order(nil), ord...)
						bad[0], bad[len(bad)-1] = bad[len(bad)-1], bad[0]
						a = execRelated(tr, node, bad, p)
						b = execRelatedNaive(tr, node, bad, p)
						if a != b {
							t.Fatalf("seed %d node %s (corrupted): incremental %v vs naive %v", seed, node, a, b)
						}
					}
				}
			}
		})
	}
}

// TestNcVisPairsIncrementalAgreesWithNaive: ncVisPairs, which updates
// nc-vis per arrival, records the same pairs as the specification-literal
// recomputation at every prefix, on causal traces of both X-wins sets.
func TestNcVisPairsIncrementalAgreesWithNaive(t *testing.T) {
	for _, alg := range registry.XWins() {
		for seed := int64(1); seed <= 20; seed++ {
			w := sim.Workload{
				Object: alg.New(), Abs: alg.Abs, Gen: sim.GenFunc(alg.GenOp),
				Nodes: 3, Steps: 40, Causal: true,
			}
			tr := w.Run(seed).Trace()
			c := &xacc{x: alg.XSpec}
			if err := c.start(tr); err != nil {
				t.Fatal(err)
			}
			for _, node := range tr.Nodes() {
				got, want := ncVisPairs(tr, node, c.h), ncVisPairsNaive(tr, node, c.h)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s seed %d node %s: incremental %v, naive %v", alg.Name, seed, node, got, want)
				}
			}
		}
	}
}

// TestWitnessNaiveVariantAgrees: the ablation variant reaches the same
// verdicts as the default witness checker.
func TestWitnessNaiveVariantAgrees(t *testing.T) {
	alg := registry.RGA()
	p := Problem{Object: alg.New(), Spec: alg.Spec, Abs: alg.Abs}
	for seed := int64(1); seed <= 3; seed++ {
		w := sim.Workload{
			Object: alg.New(), Abs: alg.Abs, Gen: sim.GenFunc(alg.GenOp),
			Nodes: 3, Steps: 30,
		}
		tr := w.Run(seed).Trace()
		a, err := CheckACCWitness(tr, p, alg.TSOrder)
		if err != nil {
			t.Fatal(err)
		}
		b, err := checkACCWitnessNaive(tr, p, alg.TSOrder)
		if err != nil {
			t.Fatal(err)
		}
		if a.OK != b.OK {
			t.Fatalf("seed %d: verdicts differ: %v vs %v", seed, a.OK, b.OK)
		}
	}
}

// noStrategy reads a UCR specification as an X-wins one with ◀ = ▷ = ∅.
type noStrategy struct{ spec.Spec }

func (noStrategy) WonBy(model.Op, model.Op) bool      { return false }
func (noStrategy) CanceledBy(model.Op, model.Op) bool { return false }

// TestUCRIsXWinsWithoutStrategy: a UCR specification is the X-wins case
// with ◀ = ▷ = ∅ (Sec 2.4), where RCoh is Coh and PresvCancel holds
// trivially. So on causal traces of every UCR algorithm, CheckXACC over the
// specification with empty ◀ and ▷ reaches CheckACC's verdict and picks the
// same arbitration orders.
func TestUCRIsXWinsWithoutStrategy(t *testing.T) {
	for _, alg := range registry.UCR() {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			p := problem(alg)
			xp := XProblem{Problem: p, XSpec: noStrategy{alg.Spec}}
			for _, nodes := range []int{2, 3} {
				for seed := int64(1); seed <= 300; seed++ {
					w := sim.Workload{
						Object: alg.New(), Abs: alg.Abs, Gen: sim.GenFunc(alg.GenOp),
						Nodes: nodes, Steps: 8, Causal: true,
					}
					tr := w.Run(seed).Trace()
					a, aerr := CheckACC(tr, p)
					x, xerr := CheckXACC(tr, xp)
					if aerr != nil || xerr != nil {
						t.Fatalf("nodes %d seed %d: CheckACC error %v, CheckXACC error %v", nodes, seed, aerr, xerr)
					}
					if a.OK != x.OK || !reflect.DeepEqual(a.Orders, x.Orders) {
						t.Fatalf("nodes %d seed %d: CheckACC ok=%v %v, CheckXACC ok=%v %v",
							nodes, seed, a.OK, a.Orders, x.OK, x.Orders)
					}
				}
			}
		})
	}
}

// TestWitnessNamesCycle: when visibility ∪ ↣ is cyclic, the witness names
// one cycle, each event with its operation and each edge with its
// relation. In this 3-node RGA trace without causal delivery, t0 applies
// remove(x1) before x1's insert and then issues an insert whose stamp does
// not dominate x1's.
func TestWitnessNamesCycle(t *testing.T) {
	alg := registry.RGA()
	w := sim.Workload{
		Object: alg.New(), Abs: alg.Abs, Gen: sim.GenFunc(alg.GenOp),
		Nodes: 3, Steps: 30,
	}
	res, err := CheckACCWitness(w.Run(89).Trace(), problem(alg), alg.TSOrder)
	if err != nil {
		t.Fatal(err)
	}
	want := `node t0: visibility ∪ ↣ is cyclic over 7 visible operations: ` +
		`m1 addAfter(("◦", "x1")) ─↣→ m3 remove("x1") ─vis→ m9 addAfter(("◦", "x5")) ─↣→ m1`
	if res.OK || res.Reason != want {
		t.Fatalf("ok=%v reason:\n%s\nwant:\n%s", res.OK, res.Reason, want)
	}
}
