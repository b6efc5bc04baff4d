// Package core implements the paper's primary contribution as executable
// decision procedures over event traces:
//
//   - ACT / ACC (Defs 2–3, Fig 8): per-node arbitration orders, visibility
//     preservation, ExecRelated, and the coherence condition Coh;
//   - CvT / convergence (Def 4): the strong-eventual-consistency property
//     that Lemma 5 derives from ACC;
//   - XACT / XACC (Def 9, Fig 13): the relaxed coherence RCoh with the
//     won-by (◀) and canceled-by (▷) relations, PresvCancel, nc-vis, and the
//     causal-delivery precondition.
//
// Two checking modes are provided. The exhaustive mode enumerates, per node,
// all arbitration orders that extend the visibility order and satisfy
// ExecRelated, then searches for a coherent combination — a complete decision
// procedure for bounded traces. The witness mode (witness.go) constructs a
// single arbitration order per node from an algorithm's timestamp order ↣
// and checks it directly; it scales to long randomized traces and doubles as
// the executable content of Theorem 8.
package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/crdt"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/trace"
)

// Order is an arbitration order: a sequence of operation request IDs.
type Order []model.MsgID

// positions returns the index of each MsgID in the order.
func (o Order) positions() map[model.MsgID]int {
	pos := make(map[model.MsgID]int, len(o))
	for i, m := range o {
		pos[m] = i
	}
	return pos
}

// Result reports the outcome of an ACC/XACC check on one trace.
type Result struct {
	OK bool
	// Orders holds one witnessing arbitration order per node when OK.
	Orders map[model.NodeID]Order
	// Reason describes the first failure when !OK.
	Reason string
}

// Problem bundles the inputs common to all trace checks: the implementation,
// its specification, the abstraction function and the initial state.
type Problem struct {
	Object crdt.Object
	Spec   spec.Spec
	Abs    crdt.Abstraction
	// Init is the initial replica state; if nil, Object.Init() is used.
	Init crdt.State
}

func (p Problem) initState() crdt.State {
	if p.Init != nil {
		return p.Init
	}
	return p.Object.Init()
}

// MaxVisible bounds the exhaustive search: traces where some node sees more
// than this many operations are rejected with an explanatory error (use the
// witness mode for longer traces).
const MaxVisible = 9

// CheckACC decides ACT(E, S, (Γ, ⊲⊳)) (Def 3) for one trace: it searches for
// per-node arbitration orders that are total over the node's visible events,
// extend the node's visibility order, satisfy ExecRelated on every prefix,
// and are pairwise coherent on conflicting operations.
func CheckACC(tr trace.Trace, p Problem) (Result, error) {
	if err := tr.CheckWellFormed(); err != nil {
		return Result{}, err
	}
	nodes := tr.Nodes()
	// The per-node candidate enumerations are independent (the trace and
	// problem are only read), so run them concurrently; errors and empty
	// candidate sets are reported in node order so the outcome is
	// deterministic regardless of scheduling.
	cands := make([][]Order, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, t := range nodes {
		wg.Add(1)
		go func(i int, t model.NodeID) {
			defer wg.Done()
			cands[i], errs[i] = candidateOrders(tr, t, p)
		}(i, t)
	}
	wg.Wait()
	for i, t := range nodes {
		if errs[i] != nil {
			return Result{}, errs[i]
		}
		if len(cands[i]) == 0 {
			return Result{Reason: fmt.Sprintf("node %s: no arbitration order extends visibility and satisfies ExecRelated", t)}, nil
		}
	}
	ops := originOps(tr)
	chosen := make([]Order, len(nodes))
	if pickCoherent(tr, p, nodes, cands, ops, chosen, 0) {
		out := map[model.NodeID]Order{}
		for i, t := range nodes {
			out[t] = chosen[i]
		}
		return Result{OK: true, Orders: out}, nil
	}
	return Result{Reason: "no coherent combination of per-node arbitration orders (Coh fails)"}, nil
}

// originOps maps each MsgID to its operation.
func originOps(tr trace.Trace) map[model.MsgID]model.Op {
	out := map[model.MsgID]model.Op{}
	for _, e := range tr.Origins() {
		out[e.MID] = e.Op
	}
	return out
}

// pickCoherent backtracks over nodes, assigning one candidate order each and
// checking Coh against all previously assigned nodes.
func pickCoherent(tr trace.Trace, p Problem, nodes []model.NodeID, cands [][]Order, ops map[model.MsgID]model.Op, chosen []Order, i int) bool {
	if i == len(nodes) {
		return true
	}
	for _, c := range cands[i] {
		ok := true
		for j := 0; j < i; j++ {
			if !coherent(p.Spec, ops, chosen[j], c) {
				ok = false
				break
			}
		}
		if ok {
			chosen[i] = c
			if pickCoherent(tr, p, nodes, cands, ops, chosen, i+1) {
				return true
			}
		}
	}
	return false
}

// coherent implements Coh(ar, ar', (Γ, ⊲⊳)) (Fig 8): any two events ordered
// oppositely by the two orders must not conflict.
func coherent(sp spec.Spec, ops map[model.MsgID]model.Op, a, b Order) bool {
	pa, pb := a.positions(), b.positions()
	for _, m1 := range a {
		j1, ok1 := pb[m1]
		if !ok1 {
			continue
		}
		for _, m2 := range a {
			if m1 == m2 {
				continue
			}
			j2, ok2 := pb[m2]
			if !ok2 {
				continue
			}
			if pa[m1] < pa[m2] && j1 > j2 && sp.Conflict(ops[m1], ops[m2]) {
				return false
			}
		}
	}
	return true
}

// candidateOrders enumerates every total order over visible(E, t) that
// extends the visibility order of node t and satisfies
// ExecRelated_φ(t, (E, S), (Γ, ar)).
func candidateOrders(tr trace.Trace, t model.NodeID, p Problem) ([]Order, error) {
	visEvents := tr.VisibleEvents(t)
	if len(visEvents) > MaxVisible {
		return nil, fmt.Errorf("core: node %s sees %d operations, exceeding the exhaustive bound %d (use CheckACCWitness)",
			t, len(visEvents), MaxVisible)
	}
	items := make([]model.MsgID, len(visEvents))
	for i, e := range visEvents {
		items[i] = e.MID
	}
	before := tr.VisPairs(t)
	var out []Order
	forEachLinearExtension(items, before, func(ord Order) {
		if execRelated(tr, t, ord, p) {
			cp := make(Order, len(ord))
			copy(cp, ord)
			out = append(out, cp)
		}
	})
	return out, nil
}

// forEachLinearExtension enumerates all linear extensions of the strict
// partial order `before` over items, invoking fn with each (the slice is
// reused between calls).
func forEachLinearExtension(items []model.MsgID, before map[[2]model.MsgID]bool, fn func(Order)) {
	n := len(items)
	used := make([]bool, n)
	cur := make(Order, 0, n)
	var rec func()
	rec = func() {
		if len(cur) == n {
			fn(cur)
			return
		}
		for i, it := range items {
			if used[i] {
				continue
			}
			ready := true
			for j, other := range items {
				if i != j && !used[j] && before[[2]model.MsgID{other, it}] {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			used[i] = true
			cur = append(cur, it)
			rec()
			cur = cur[:len(cur)-1]
			used[i] = false
		}
	}
	rec()
}

// execRelated implements ExecRelated_φ(t, (E, S), (Γ, ar)) (Fig 8): for every
// prefix E' of E, replaying E'|t concretely and executing the serialization
// of visible(E', t) under ar abstractly reach φ-related states, and every
// request issued by t returns the abstract result.
//
// Visibility and the node-local state change only at events on t, so it
// suffices to check after each such event (and initially). This
// implementation is incremental: it maintains the abstract states along the
// current serialization and, when a newly visible operation is inserted at
// position i, re-executes only the suffix from i — most arrivals insert near
// the end, so the common cost per event is O(1) abstract steps instead of
// O(|visible|). execRelatedNaive, in the tests, is the
// specification-literal version it is checked and benchmarked against.
func execRelated(tr trace.Trace, t model.NodeID, ar Order, p Problem) bool {
	pos := ar.positions()
	s := p.initState()
	absInit := p.Abs(s)
	var ops []model.Op               // current serialization
	var mids []model.MsgID           // parallel MsgIDs
	states := []model.Value{absInit} // states[i] = abstract state after ops[:i]
	for _, e := range tr {
		if e.Node != t {
			continue
		}
		s = e.Eff.Apply(s)
		orig, ok := tr.OriginOf(e.MID)
		if !ok {
			return false
		}
		at, ok := pos[orig.MID]
		if !ok {
			return false // ar is not total over visible(E, t)
		}
		i := sort.Search(len(mids), func(i int) bool { return pos[mids[i]] >= at })
		ops = append(ops, model.Op{})
		copy(ops[i+1:], ops[i:])
		ops[i] = orig.Op
		mids = append(mids, 0)
		copy(mids[i+1:], mids[i:])
		mids[i] = orig.MID
		// Recompute the state suffix from the insertion point.
		states = states[:i+1]
		lastRet := model.Nil()
		for j := i; j < len(ops); j++ {
			var st model.Value
			lastRet, st = p.Spec.Apply(ops[j], states[j])
			states = append(states, st)
		}
		if !p.Abs(s).Equal(states[len(states)-1]) {
			return false
		}
		if e.IsOrigin && !lastRet.Equal(e.Ret) {
			return false
		}
	}
	return true
}
