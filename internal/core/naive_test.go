package core

// The specification-literal ExecRelated and the witness checker built on it:
// the oracles TestExecRelatedIncrementalAgreesWithNaive and
// TestWitnessNaiveVariantAgrees hold the incremental checker to, and the
// baseline of the "memoized vs naive prefix re-execution" ablation; and the
// specification-literal nc-vis pairs, the oracle of
// TestNcVisPairsIncrementalAgreesWithNaive.

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/crdts/registry"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/trace"
)

// execRelatedNaive is the specification-literal ExecRelated: it re-executes
// the whole serialization of the visible set at every prefix.
func execRelatedNaive(tr trace.Trace, t model.NodeID, ar Order, p Problem) bool {
	pos := ar.positions()
	s := p.Object.Init()
	absInit := p.Abs(s)
	var visible []trace.Event // origin events visible so far, kept ar-sorted
	insert := func(e trace.Event) bool {
		at, ok := pos[e.MID]
		if !ok {
			return false
		}
		i := sort.Search(len(visible), func(i int) bool { return pos[visible[i].MID] >= at })
		visible = append(visible, trace.Event{})
		copy(visible[i+1:], visible[i:])
		visible[i] = e
		return true
	}
	for _, e := range tr {
		if e.Node != t {
			continue
		}
		s = e.Eff.Apply(s)
		orig, ok := tr.OriginOf(e.MID)
		if !ok || !insert(orig) {
			return false // ar is not total over visible(E, t)
		}
		ops := make([]model.Op, len(visible))
		for i, ve := range visible {
			ops[i] = ve.Op
		}
		got, lastRet := spec.Exec(p.Spec, absInit, ops)
		if !p.Abs(s).Equal(got) {
			return false
		}
		if e.IsOrigin && !lastRet.Equal(e.Ret) {
			return false
		}
	}
	return true
}

// checkACCWitnessNaive is CheckACCWitness with the specification-literal
// ExecRelated (full re-execution per prefix).
func checkACCWitnessNaive(tr trace.Trace, p Problem, ts TSOrder) (Result, error) {
	if err := tr.CheckWellFormed(); err != nil {
		return Result{}, err
	}
	c := &acc{sp: p.Spec, ts: ts}
	if err := c.start(tr); err != nil {
		return Result{}, err
	}
	nodes := tr.Nodes()
	orders := map[model.NodeID]Order{}
	for _, t := range nodes {
		ord, err := witnessOrder(tr, t, c)
		if err != nil {
			return Result{Reason: fmt.Sprintf("node %s: %v", t, err)}, nil
		}
		if !execRelatedNaive(tr, t, ord, p) {
			return Result{Reason: fmt.Sprintf("node %s: witness order %v fails ExecRelated", t, ord)}, nil
		}
		orders[t] = ord
	}
	for i, t1 := range nodes {
		for _, t2 := range nodes[i+1:] {
			if !c.agree(orders[t1], orders[t2], nil, nil) {
				return Result{Reason: fmt.Sprintf("witness orders of %s and %s are incoherent on conflicting operations", t1, t2)}, nil
			}
		}
	}
	return Result{OK: true, Orders: orders}, nil
}

// ncVisPairsNaive is the specification-literal ncVisPairs: at every prefix
// it recomputes nc-vis(E', t) from scratch and records each conflicting pair
// in it.
func ncVisPairsNaive(tr trace.Trace, t model.NodeID, h spec.History[model.MsgID]) map[[2]model.MsgID]bool {
	out := map[[2]model.MsgID]bool{}
	var visible []model.MsgID
	for _, e := range tr {
		if e.Node != t {
			continue
		}
		visible = append(visible, e.MID)
		var nc []model.MsgID
		for _, m := range visible {
			if !h.CanceledIn(m, visible) {
				nc = append(nc, m)
			}
		}
		for i, a := range nc {
			for _, b := range nc[i+1:] {
				if h.Spec.Conflict(h.Op(a), h.Op(b)) {
					out[[2]model.MsgID{min(a, b), max(a, b)}] = true
				}
			}
		}
	}
	return out
}

// BenchmarkExecRelated_Ablation compares the incremental ExecRelated (the
// default) with the specification-literal full re-execution, on witness
// orders over RGA traces — the "memoized vs naive prefix re-execution"
// ablation from DESIGN.md.
func BenchmarkExecRelated_Ablation(b *testing.B) {
	alg := registry.RGA()
	for _, steps := range []int{40, 120} {
		w := sim.Workload{
			Object: alg.New(), Abs: alg.Abs, Gen: sim.GenFunc(alg.GenOp),
			Nodes: 3, Steps: steps,
		}
		tr := w.Run(1).Trace()
		p := Problem{Object: alg.New(), Spec: alg.Spec, Abs: alg.Abs}
		for _, mode := range []string{"incremental", "naive"} {
			check := CheckACCWitness
			if mode == "naive" {
				check = checkACCWitnessNaive
			}
			b.Run(fmt.Sprintf("%s/events=%d", mode, len(tr)), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := check(tr, p, alg.TSOrder)
					if err != nil || !res.OK {
						b.Fatalf("%v %v", err, res.Reason)
					}
				}
			})
		}
	}
}
