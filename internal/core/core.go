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
// Two checking modes are provided, each one function over both conditions
// (decide.go): a UCR specification is the X-wins case with ◀ = ▷ = ∅. The
// exhaustive mode enumerates, per node, all arbitration orders that extend
// the visibility order and satisfy ExecRelated, then searches for a coherent
// combination — a complete decision procedure for bounded traces. The
// witness mode constructs a single arbitration order per node — from an
// algorithm's timestamp order ↣, or from happens-before and ◀ — and checks
// it directly; it scales to long randomized traces and doubles as the
// executable content of Theorem 8.
package core

import (
	"sort"

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
// whose Init is the initial replica state, its specification and the
// abstraction function.
type Problem struct {
	Object crdt.Object
	Spec   spec.Spec
	Abs    crdt.Abstraction
}

// MaxVisible bounds the exhaustive search: traces where some node sees more
// than this many operations are rejected with an explanatory error (use the
// witness mode for longer traces).
const MaxVisible = 9

// TSOrder is an algorithm's timestamp order ↣ lifted to effectors (Sec 8).
type TSOrder func(d1, d2 crdt.Effector) bool

// CheckACC decides ACT(E, S, (Γ, ⊲⊳)) (Def 3) for one trace: it searches for
// per-node arbitration orders that are total over the node's visible events,
// extend the node's visibility order, satisfy ExecRelated on every prefix,
// and are pairwise coherent on conflicting operations.
func CheckACC(tr trace.Trace, p Problem) (Result, error) {
	return decide(tr, p, &acc{sp: p.Spec})
}

// CheckACCWitness decides ACT constructively, realizing the executable
// content of Theorem 8 (CRDT-TS ⇒ ACC): instead of searching all arbitration
// orders, it builds one per node as a topological order of the node's
// visibility relation combined with the algorithm's timestamp order ↣, then
// verifies ExecRelated and pairwise coherence directly. Unlike CheckACC this
// scales to long randomized traces, but a failure only means the witness
// failed, not that no arbitration order exists.
func CheckACCWitness(tr trace.Trace, p Problem, ts TSOrder) (Result, error) {
	return witness(tr, p, &acc{sp: p.Spec, ts: ts})
}

// acc is Def 3's condition: no premise, no ordering beyond visibility, and
// Coh between nodes. Its witness orients a conflicting pair by ↣.
type acc struct {
	sp spec.Spec
	ts TSOrder // nil in the exhaustive decider, which builds no witness
	h  spec.History[model.MsgID]
}

var accTexts = texts{
	bound:    " (use CheckACCWitness)",
	noOrder:  "extends visibility and satisfies ExecRelated",
	noCombo:  "no coherent combination of per-node arbitration orders (Coh fails)",
	union:    "visibility ∪ ↣",
	disagree: "are incoherent on conflicting operations",
}

func (c *acc) start(tr trace.Trace) error {
	ops := originOps(tr)
	c.h = spec.History[model.MsgID]{Spec: c.sp, Op: func(m model.MsgID) model.Op { return ops[m] }}
	return nil
}

func (*acc) must([]trace.Event, map[[2]model.MsgID]bool) {}

// orient restricts ↣ to conflicting pairs. That is sound and necessary:
// arbitration orders only have to agree across nodes on conflicting
// operations (Coh), and since non-conflicting operations commute (Def 1),
// any two serializations with the same conflicting-pair orientation reach
// the same states — the standard Mazurkiewicz-trace argument. Unrestricted,
// the global stamp order between unrelated inserts can contradict a node's
// visibility order (a node can issue a small-stamped insert after observing
// a remove whose element was inserted elsewhere with a larger stamp) and
// create spurious cycles.
func (c *acc) orient(_ trace.Trace, _ model.NodeID, vis []trace.Event, edge func(i, j int, rel string)) {
	for i, e1 := range vis {
		for j, e2 := range vis {
			if i != j && c.sp.Conflict(e1.Op, e2.Op) && c.ts(e1.Eff, e2.Eff) {
				edge(i, j, "↣")
			}
		}
	}
}

func (*acc) pairs(trace.Trace, model.NodeID) map[[2]model.MsgID]bool { return nil }
func (*acc) check(Order) string                                      { return "" }

// agree is Coh(ar, ar', (Γ, ⊲⊳)) (Fig 8), RCoh with ◀ = ▷ = ∅: two events
// ordered oppositely by the two orders must not conflict.
func (c *acc) agree(a, b Order, _, _ map[[2]model.MsgID]bool) bool { return c.h.RCoh(a, b) }
func (*acc) texts() *texts                                         { return &accTexts }

// originOps maps each MsgID to its operation.
func originOps(tr trace.Trace) map[model.MsgID]model.Op {
	out := map[model.MsgID]model.Op{}
	for _, e := range tr.Origins() {
		out[e.MID] = e.Op
	}
	return out
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
	s := p.Object.Init()
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
