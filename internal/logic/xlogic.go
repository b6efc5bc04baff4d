package logic

import (
	"repro/internal/lang"
	"repro/internal/model"
	"repro/internal/spec"
)

// This file prototypes the client logic for X-wins CRDTs — the extension the
// paper leaves as future work ("we leave the program logic for clients using
// X-wins CRDTs as future work", Sec 11). It follows the recipe the paper
// sketches: keep Fig 11's rules — XProof runs the same proof-outline checker
// as Proof (outline.go) — take the ◀ and ▷ relations into account, and
// interpret assertions against the relaxed abstract operational semantics of
// Sec 9. This file supplies only that semantics.
//
// Worlds gain a per-action visibility set (World.Seen). The semantics of a
// world then quantifies over:
//
//   - arrival supersets that are causally closed (X-wins CRDTs assume causal
//     delivery: an action cannot arrive before the actions it saw), and
//   - linearizations that respect the explicit Before order, visibility
//     between conflicting actions (a saw b ⇒ b first, which subsumes
//     PresvCancel since ▷ ⊆ ⊲⊳), and the won-by discipline: for concurrent
//     conflicting actions that are both non-canceled in the linearization,
//     the ◀-loser comes first.
//
// Environment actions added by stabilization have only partially-known
// visibility (their rule's prerequisite is a lower bound), so stabilization
// case-splits over every admissible visibility set — exactly the uncertainty
// a prover faces, made explicit as world disjunction.

// XCtx is the X-wins logic context over (Γ, ⊲⊳, ◀, ▷).
type XCtx struct {
	XSpec spec.XSpec
}

// The X-wins semantics of Fig 11's rules (see semantics): arrival sets are
// causally closed and linearizations obey the ◀/▷ discipline.
func (c XCtx) spec() spec.Spec                         { return c.XSpec }
func (XCtx) admitsArrivals(w World, ids []string) bool { return w.causallyClosed(ids) }

// newWorld starts visibility tracking: every X-wins world carries Seen.
func (XCtx) newWorld(init model.Value) World {
	w := NewWorld(init)
	w.Seen = map[string]map[string]bool{}
	return w
}

// issue records the thread's own action α as seeing exactly the actions that
// have arrived at its node, which the call's arrival split pins per world.
func (XCtx) issue(w *World, alpha Action) {
	w.SetSeen(alpha.ID, w.Arrived)
	w.AddAction(alpha, true)
}

// admitsLin checks the X-wins linearization discipline: an action comes
// after the conflicting actions it saw, and of two concurrent conflicting
// actions that the linearization does not cancel, the ◀-loser comes first.
func (c XCtx) admitsLin(w World) func(lin []string) bool {
	h := spec.History[string]{Spec: c.XSpec, X: c.XSpec,
		Op:  func(id string) model.Op { return w.Actions[id].Op },
		Saw: w.SawBy,
	}
	return func(lin []string) bool {
		for i, x := range lin {
			saw := w.Seen[x]
			for _, y := range lin[i+1:] {
				if saw[y] && c.XSpec.Conflict(h.Op(x), h.Op(y)) {
					return false // y visible to x must precede it
				}
			}
		}
		return h.WonByOrdered(lin)
	}
}

// causallyClosed reports whether an arrival set respects causal delivery.
func (w World) causallyClosed(ids []string) bool {
	in := map[string]bool{}
	for _, id := range ids {
		in[id] = true
	}
	for _, id := range ids {
		for saw := range w.Seen[id] {
			if _, known := w.Actions[saw]; known && !in[saw] {
				return false
			}
		}
	}
	return true
}

// XProof is a whole-program X-wins proof.
type XProof struct {
	Ctx     XCtx
	Init    model.Value
	Threads []ThreadProof
}

// Check validates the proof: the par-rule interference conditions, then each
// thread by symbolic execution under the X-wins world semantics, then each
// thread's postcondition under ⇛.
func (pf XProof) Check() error { return check(pf.Ctx, pf.Init, pf.Threads) }

// stabilize closes the world set under the rely rules. An environment action
// may have seen any subset of the actions already known (at least its rule's
// prerequisite), so each application splits into one world per admissible
// visibility set.
func (c XCtx) stabilize(worlds []World, R RG) []World {
	return closure(worlds, func(w World, push func(World)) {
		for _, r := range R {
			if !w.enables(r) {
				continue
			}
			// Enumerate visibility sets: Requires ⊆ S ⊆ known actions.
			required := map[string]bool{}
			for _, req := range r.Requires {
				required[req.ID] = true
			}
			var optional []string
			for _, id := range w.sortedIDs() {
				if !required[id] {
					optional = append(optional, id)
				}
			}
			for mask := 0; mask < 1<<len(optional); mask++ {
				saw := map[string]bool{}
				for id := range required {
					saw[id] = true
				}
				for i, id := range optional {
					if mask&(1<<i) != 0 {
						saw[id] = true
					}
				}
				// Visibility is transitive under causal delivery: seeing an
				// action means having seen everything it saw.
				closeSeen(w, saw)
				nw := w.Clone()
				nw.AddAction(r.Issues, false)
				nw.SetSeen(r.Issues.ID, saw)
				// Cyclic visibility cannot occur in any execution; such
				// world candidates are pruned rather than carried.
				if seenAcyclic(nw) {
					push(nw)
				}
			}
		}
	})
}

// closeSeen extends a visibility set with everything its members saw
// (restricted to actions known in w).
func closeSeen(w World, saw map[string]bool) {
	changed := true
	for changed {
		changed = false
		for id := range saw {
			for dep := range w.Seen[id] {
				if _, known := w.Actions[dep]; known && !saw[dep] {
					saw[dep] = true
					changed = true
				}
			}
		}
	}
}

// seenAcyclic reports whether the visibility digraph of w has no cycles
// (a saw b draws the edge b → a).
func seenAcyclic(w World) bool {
	color := map[string]int{}
	var visit func(id string) bool
	visit = func(id string) bool {
		switch color[id] {
		case 1:
			return false
		case 2:
			return true
		}
		color[id] = 1
		for dep := range w.Seen[id] {
			if _, known := w.Actions[dep]; known && !visit(dep) {
				return false
			}
		}
		color[id] = 2
		return true
	}
	for id := range w.Actions {
		if !visit(id) {
			return false
		}
	}
	return true
}

// Sat decides the lifted state assertion judgment over explicit worlds in
// X-wins mode: every causally-closed arrival superset and every ◀/▷-valid
// linearization of every world must satisfy P.
func (c XCtx) Sat(worlds []World, P lang.Expr) error { return satAll(c, worlds, P, false) }

// DeliverSat is Sat under ⇛: every issued action is delivered first.
func (c XCtx) DeliverSat(worlds []World, P lang.Expr) error { return satAll(c, worlds, P, true) }
