package core

import (
	"fmt"
	"sort"

	"repro/internal/crdt"
	"repro/internal/model"
	"repro/internal/trace"
)

// TSOrder is an algorithm's timestamp order ↣ lifted to effectors (Sec 8).
type TSOrder func(d1, d2 crdt.Effector) bool

// CheckACCWitness decides ACT constructively, realizing the executable
// content of Theorem 8 (CRDT-TS ⇒ ACC): instead of searching all arbitration
// orders, it builds one per node as a topological order of the node's
// visibility relation combined with the algorithm's timestamp order ↣, then
// verifies ExecRelated and pairwise coherence directly. Unlike CheckACC this
// scales to long randomized traces, but a failure only means the witness
// failed, not that no arbitration order exists.
func CheckACCWitness(tr trace.Trace, p Problem, ts TSOrder) (Result, error) {
	if err := tr.CheckWellFormed(); err != nil {
		return Result{}, err
	}
	nodes := tr.Nodes()
	orders := map[model.NodeID]Order{}
	for _, t := range nodes {
		ord, err := witnessOrder(tr, t, ts, p)
		if err != nil {
			return Result{Reason: fmt.Sprintf("node %s: %v", t, err)}, nil
		}
		if !execRelated(tr, t, ord, p) {
			return Result{Reason: fmt.Sprintf("node %s: witness order %v fails ExecRelated", t, ord)}, nil
		}
		orders[t] = ord
	}
	ops := originOps(tr)
	for i, t1 := range nodes {
		for _, t2 := range nodes[i+1:] {
			if !coherent(p.Spec, ops, orders[t1], orders[t2]) {
				return Result{Reason: fmt.Sprintf("witness orders of %s and %s are incoherent on conflicting operations", t1, t2)}, nil
			}
		}
	}
	return Result{OK: true, Orders: orders}, nil
}

// witnessOrder topologically sorts visible(E, t) by the union of the node's
// visibility order and the effector timestamp order ↣ restricted to
// conflicting operations, breaking ties by MsgID for determinism. It fails
// if the union is cyclic.
//
// Restricting ↣ to conflicting pairs is sound and necessary: arbitration
// orders only have to agree across nodes on conflicting operations (Coh), and
// since non-conflicting operations commute (Def 1), any two serializations
// with the same conflicting-pair orientation reach the same states — the
// standard Mazurkiewicz-trace argument. Unrestricted, the global stamp order
// between unrelated inserts can contradict a node's visibility order (a node
// can issue a small-stamped insert after observing a remove whose element
// was inserted elsewhere with a larger stamp) and create spurious cycles.
func witnessOrder(tr trace.Trace, t model.NodeID, ts TSOrder, p Problem) (Order, error) {
	visEvents := tr.VisibleEvents(t)
	n := len(visEvents)
	idx := make(map[model.MsgID]int, n)
	for i, e := range visEvents {
		idx[e.MID] = i
	}
	adj := make([][]int, n) // edges i -> j: i must precede j
	indeg := make([]int, n)
	addEdge := func(i, j int) {
		adj[i] = append(adj[i], j)
		indeg[j]++
	}
	for pair := range tr.VisPairs(t) {
		i, ok1 := idx[pair[0]]
		j, ok2 := idx[pair[1]]
		if ok1 && ok2 {
			addEdge(i, j)
		}
	}
	for i, e1 := range visEvents {
		for j, e2 := range visEvents {
			if i != j && p.Spec.Conflict(e1.Op, e2.Op) && ts(e1.Eff, e2.Eff) {
				addEdge(i, j)
			}
		}
	}
	// Kahn's algorithm with a deterministic (min MsgID) frontier.
	var frontier []int
	for i := range visEvents {
		if indeg[i] == 0 {
			frontier = append(frontier, i)
		}
	}
	out := make(Order, 0, n)
	for len(frontier) > 0 {
		sort.Slice(frontier, func(a, b int) bool {
			return visEvents[frontier[a]].MID < visEvents[frontier[b]].MID
		})
		i := frontier[0]
		frontier = frontier[1:]
		out = append(out, visEvents[i].MID)
		for _, j := range adj[i] {
			indeg[j]--
			if indeg[j] == 0 {
				frontier = append(frontier, j)
			}
		}
	}
	if len(out) != n {
		return nil, fmt.Errorf("visibility ∪ ↣ is cyclic over %d visible operations", n)
	}
	return out, nil
}
