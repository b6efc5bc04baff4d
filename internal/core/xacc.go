package core

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/trace"
)

// ErrNotCausal is returned by CheckXACC when the trace violates causal
// delivery, which XACC assumes (Sec 9).
var ErrNotCausal = fmt.Errorf("core: trace violates causal delivery, which XACC presumes")

// XProblem extends Problem with the X-wins specification (Γ, ⊲⊳, ◀, ▷).
type XProblem struct {
	Problem
	XSpec spec.XSpec
}

// CheckXACC decides XACT(E, S, (Γ, ⊲⊳, ◀, ▷)) (Def 9) for one causal trace:
// it searches for per-node arbitration orders that extend visibility, respect
// PresvCancel, satisfy ExecRelated, and are pairwise related by the relaxed
// coherence RCoh of Fig 13.
func CheckXACC(tr trace.Trace, p XProblem) (Result, error) {
	p.Spec = p.XSpec
	return decide(tr, p.Problem, &xacc{x: p.XSpec})
}

// CheckXACCWitness decides XACT constructively, the X-wins analogue of
// CheckACCWitness: per node it builds one arbitration order as a topological
// sort of the visibility order together with the strategy edges
//
//   - e1 before e2 when they conflict and e1 happens before e2 (this also
//     covers PresvCancel, since ▷ ⊆ ⊲⊳), and
//   - loser before winner (◀) for concurrent conflicting pairs in which
//     neither side has been canceled by something it is visible to
//
// then verifies ExecRelated, PresvCancel and pairwise RCoh directly. Unlike
// CheckXACC it scales to long causal traces; a failure only means the
// witness failed.
func CheckXACCWitness(tr trace.Trace, p XProblem) (Result, error) {
	p.Spec = p.XSpec
	return witness(tr, p.Problem, &xacc{x: p.XSpec})
}

// xacc is Def 9's condition: causal delivery, PresvCancel, and RCoh between
// nodes. Its witness orients a conflicting pair by happens-before, or by ◀
// with the arrival-aware flip.
type xacc struct {
	x spec.XSpec
	h spec.History[model.MsgID]
}

var xaccTexts = texts{
	noOrder:  "extends visibility, respects PresvCancel and satisfies ExecRelated",
	noCombo:  "no combination of per-node arbitration orders satisfies RCoh",
	union:    "visibility ∪ X-wins strategy",
	disagree: "violate RCoh",
}

func (c *xacc) start(tr trace.Trace) error {
	if !tr.CausalDelivery() {
		return ErrNotCausal
	}
	hb := tr.HappensBefore()
	ops := originOps(tr)
	c.h = spec.History[model.MsgID]{Spec: c.x, X: c.x,
		Op:  func(m model.MsgID) model.Op { return ops[m] },
		Saw: func(a, b model.MsgID) bool { return hb[a][b] },
	}
	return nil
}

// must adds PresvCancel(ar, t, E, (Γ, ▷)): if e2 cancels e1, e1 comes first.
func (c *xacc) must(vis []trace.Event, before map[[2]model.MsgID]bool) {
	for _, e1 := range vis {
		for _, e2 := range vis {
			if c.h.Cancels(e1.MID, e2.MID) {
				before[[2]model.MsgID{e1.MID, e2.MID}] = true
			}
		}
	}
}

// orient puts e1 before a conflicting e2 that it happens before, and the
// ◀-loser of a concurrent conflicting pair before its winner — the winner's
// effect must prevail — unless the winner had already been canceled at t:
// if some operation canceling the winner reached t before the loser did,
// the winner's effect was gone when the loser arrived, and the loser is
// serialized after it instead. This arrival-aware flip is exactly the
// flexibility the relaxed coherence of Fig 13 grants for canceled actions,
// resolved deterministically per node.
func (c *xacc) orient(tr trace.Trace, t model.NodeID, vis []trace.Event, edge func(i, j int, rel string)) {
	// arrival[mid] is the index in E|t at which mid's effector reached t.
	arrival := map[model.MsgID]int{}
	for i, e := range tr.Restrict(t) {
		if _, seen := arrival[e.MID]; !seen {
			arrival[e.MID] = i
		}
	}
	canceledBefore := func(winner, loser model.MsgID) bool {
		for _, e := range vis {
			if c.h.Cancels(winner, e.MID) && arrival[e.MID] < arrival[loser] {
				return true
			}
		}
		return false
	}
	for i, e1 := range vis {
		for j, e2 := range vis {
			if i == j || !c.x.Conflict(e1.Op, e2.Op) {
				continue
			}
			switch {
			case c.h.Saw(e2.MID, e1.MID):
				edge(i, j, "hb")
			case c.h.Saw(e1.MID, e2.MID):
				// covered by the symmetric iteration
			case c.x.WonBy(e1.Op, e2.Op): // e1 is the loser
				if canceledBefore(e2.MID, e1.MID) {
					edge(j, i, "◀ after cancel")
				} else {
					edge(i, j, "◀")
				}
			}
		}
	}
}

func (c *xacc) pairs(tr trace.Trace, t model.NodeID) map[[2]model.MsgID]bool {
	return ncVisPairs(tr, t, c.h)
}

func (c *xacc) check(ord Order) string {
	if x, y, ok := c.h.PresvCancel(ord); !ok {
		return fmt.Sprintf("PresvCancel violated: %s ▷ %s but ordered after it", c.h.Op(x), c.h.Op(y))
	}
	return ""
}

func (c *xacc) agree(a, b Order, pa, pb map[[2]model.MsgID]bool) bool {
	return rcoh(c.h, a, b, pa, pb)
}

func (*xacc) texts() *texts { return &xaccTexts }

// ncVisPairs computes the conflicting pairs {e0, e1} that are simultaneously
// non-canceled-visible at node t for some prefix of the trace:
// {e0, e1} ⊆ nc-vis(E', t) (Fig 13). Pairs are keyed with the smaller MsgID
// first.
//
// Visibility only grows, so an operation once canceled stays canceled:
// nc-vis changes at each arrival at t only by the arriving operation and by
// what it cancels, and every pair it gains contains the arriving operation.
func ncVisPairs(tr trace.Trace, t model.NodeID, h spec.History[model.MsgID]) map[[2]model.MsgID]bool {
	out := map[[2]model.MsgID]bool{}
	var visible, nc []model.MsgID
	for _, e := range tr {
		if e.Node != t {
			continue
		}
		visible = append(visible, e.MID)
		kept := nc[:0]
		for _, m := range nc {
			if !h.Cancels(m, e.MID) {
				kept = append(kept, m)
			}
		}
		nc = kept
		if h.CanceledIn(e.MID, visible) {
			continue
		}
		for _, m := range nc {
			if h.Spec.Conflict(h.Op(m), h.Op(e.MID)) {
				out[[2]model.MsgID{min(m, e.MID), max(m, e.MID)}] = true
			}
		}
		nc = append(nc, e.MID)
	}
	return out
}

// rcoh implements RCoh(t,t')((ar, ar'), E, (Γ, ⊲⊳, ◀, ▷)) (Fig 13) for two
// fixed arbitration orders: every conflicting pair that is non-canceled-
// visible at both nodes (at some pair of prefixes) must be ordered the same
// way by both, and concurrent pairs related by ◀ must be ordered loser
// first.
func rcoh(h spec.History[model.MsgID], ar1, ar2 Order, nc1, nc2 map[[2]model.MsgID]bool) bool {
	p1 := ar1.positions()
	p2 := ar2.positions()
	for pair := range nc1 {
		if !nc2[pair] {
			continue
		}
		a, b := pair[0], pair[1]
		i1, ok1 := p1[a]
		j1, ok2 := p1[b]
		i2, ok3 := p2[a]
		j2, ok4 := p2[b]
		if !ok1 || !ok2 || !ok3 || !ok4 {
			return false // both events must appear in both orders
		}
		if (i1 < j1) != (i2 < j2) {
			return false
		}
		if i1 > j1 {
			a, b = b, a
		}
		if h.Misordered(a, b) {
			return false
		}
	}
	return true
}
