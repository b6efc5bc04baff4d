package logic

import (
	"fmt"
	"sort"

	"repro/internal/lang"
	"repro/internal/model"
	"repro/internal/spec"
)

// Ctx bundles the specification context of a logic judgment: Γ, ⊲⊳ and the
// object-state variable name used by lifted state assertions.
type Ctx struct {
	Spec spec.Spec
	// StateVar is the variable bound to the abstract object state when
	// evaluating lifted state assertions (default "s").
	StateVar string
	// IsQuery identifies read-only operations, whose identity actions need
	// no guarantee coverage and are not recorded in worlds. Nil treats every
	// operation as effectful.
	IsQuery func(model.OpName) bool
}

// Conflict returns the ⊲⊳ of the context.
func (c Ctx) Conflict() Conflict { return c.Spec.Conflict }

// The UCR semantics of Fig 11's rules (see semantics): every arrival set
// and every linearization consistent with the known order is reachable, and
// the thread's own action is ordered after the conflicting actions that
// have arrived.
func (c Ctx) spec() spec.Spec                   { return c.Spec }
func (c Ctx) isQuery(n model.OpName) bool       { return c.IsQuery != nil && c.IsQuery(n) }
func (c Ctx) stateVar() string                  { return c.StateVar }
func (Ctx) admitsArrivals(World, []string) bool { return true }
func (Ctx) admitsLin(World) func([]string) bool { return nil }
func (Ctx) newWorld(init model.Value) World     { return NewWorld(init) }

// issue appends α via (q, ⊲⊳) ⋉ ⌈α⌉: α is ordered after every arrived action
// it conflicts with. The order cannot close a cycle: α is new to w, so no
// pair of w.Before names it yet.
func (c Ctx) issue(w *World, alpha Action) {
	for id, a := range w.Actions {
		if w.Arrived[id] && c.Spec.Conflict(a.Op, alpha.Op) {
			w.Order(id, alpha.ID)
		}
	}
	w.AddAction(alpha, true)
}

// Sat decides the lifted state assertion judgment p ⇒ P (Sec 7): for every
// world of p, every arrival superset of its actions, and every linearization
// consistent with the known order, the resulting object state (bound to the
// state variable) together with the world's pinned client variables
// satisfies the boolean expression P.
func (c Ctx) Sat(p Assn, P lang.Expr) error {
	return satAll(c, p.Worlds(c.Conflict()), P, false)
}

// DeliverSat decides p ⇛ P: like Sat, but every issued action is considered
// arrived first (the paper's "receiving and applying all the actions on the
// way").
func (c Ctx) DeliverSat(p Assn, P lang.Expr) error {
	return satAll(c, p.Worlds(c.Conflict()), P, true)
}

// Entail decides p ⇒ q as world coverage: every world of p must be covered
// by some world of q (q may forget order, downgrade arrived actions to
// issued ones, and drop variable knowledge — the paper's safe weakenings).
func (c Ctx) Entail(p, q Assn) error {
	qs := q.Worlds(c.Conflict())
	for _, w := range p.Worlds(c.Conflict()) {
		if !coveredBy(w, qs) {
			return fmt.Errorf("logic: entailment fails: world %s of %s is not covered by %s", w.Key(), p, q)
		}
	}
	return nil
}

// Rule is one rely/guarantee conjunct p' ; [α]^i_t: node t may issue α once
// the actions in Requires have arrived at t.
type Rule struct {
	// Requires lists the actions whose arrival at the issuing node is the
	// prerequisite p' (the boxed actions of p'; an unconditional rule has
	// none).
	Requires []Action
	// Issues is the action the rule emits.
	Issues Action
}

// String renders the rule.
func (r Rule) String() string {
	if len(r.Requires) == 0 {
		return fmt.Sprintf("true ; [%s]", r.Issues)
	}
	parts := make([]string, len(r.Requires))
	for i, a := range r.Requires {
		parts[i] = "⌈" + a.String() + "⌉"
	}
	return fmt.Sprintf("%s ; [%s]", parts, r.Issues)
}

// RG is a rely or guarantee condition: a disjunction of rules.
type RG []Rule

// Includes reports whether every rule of g appears in r (used for the par
// rule's (∨ G_t') ⇒ R_t side condition).
func (r RG) Includes(g RG) bool {
	for _, gr := range g {
		found := false
		for _, rr := range r {
			if rr.String() == gr.String() {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// stabilizeWorld applies one rely rule to one world, following the paper's
// three steps: (1) the rule applies if the world knows every required action
// (possibly still in brackets); (2) the issued action is added in brackets;
// (3) required actions that conflict with the issued one are ordered before
// it. It returns the extended world and whether the rule applied.
func (c Ctx) stabilizeWorld(w World, r Rule) (World, bool) {
	if !w.enables(r) {
		return w, false
	}
	nw := w.Clone()
	nw.AddAction(r.Issues, false)
	for _, req := range r.Requires {
		if c.Spec.Conflict(req.Op, r.Issues.Op) {
			nw.Order(req.ID, r.Issues.ID) // r.Issues is new to w: no cycle
		}
	}
	return nw, true
}

// Sta decides Sta(p, R, ⊲⊳): p is stable under every rely rule — extending
// any of its worlds by an applicable environment action stays within p.
func (c Ctx) Sta(p Assn, R RG) error {
	worlds := p.Worlds(c.Conflict())
	for _, w := range worlds {
		for _, r := range R {
			nw, applied := c.stabilizeWorld(w, r)
			if applied && !coveredBy(nw, worlds) {
				return fmt.Errorf("logic: %s is not stable under %s: world %s extends to uncovered %s",
					p, r, w.Key(), nw.Key())
			}
		}
	}
	return nil
}

// Stabilize closes p under the rely rules: it repeatedly applies every
// applicable rule to every world and returns the disjunction of all
// reachable worlds. The result is stable by construction.
func (c Ctx) Stabilize(p Assn, R RG) Assn {
	return Lit{Ws: c.stabilize(p.Worlds(c.Conflict()), R)}
}

func (c Ctx) stabilize(worlds []World, R RG) []World {
	return closure(worlds, func(w World, push func(World)) {
		for _, r := range R {
			if nw, applied := c.stabilizeWorld(w, r); applied {
				push(nw)
			}
		}
	})
}

// CmtClosed decides cmt-closed(p): receiving any already-issued action (in
// any world) stays within p.
func (c Ctx) CmtClosed(p Assn) error {
	worlds := p.Worlds(c.Conflict())
	for _, w := range worlds {
		for id := range w.Actions {
			if w.Arrived[id] {
				continue
			}
			nw := w.Clone()
			nw.Arrived[id] = true
			if !coveredBy(nw, worlds) {
				return fmt.Errorf("logic: %s is not cmt-closed: arrival of %s leaves world %s uncovered",
					p, id, w.Key())
			}
		}
	}
	return nil
}

// CmtClose closes p under arrivals of already-issued actions.
func (c Ctx) CmtClose(p Assn) Assn {
	return Lit{Ws: closure(p.Worlds(c.Conflict()), func(w World, push func(World)) {
		for id := range w.Actions {
			if !w.Arrived[id] {
				nw := w.Clone()
				nw.Arrived[id] = true
				push(nw)
			}
		}
	})}
}

// closure returns every world reachable from worlds by repeated steps of
// next, which passes each successor of a world to push. The result holds
// one world per Key, in Key order.
func closure(worlds []World, next func(w World, push func(World))) []World {
	seen := map[string]World{}
	var queue []World
	push := func(w World) {
		k := w.Key()
		if _, ok := seen[k]; !ok {
			seen[k] = w
			queue = append(queue, w)
		}
	}
	for _, w := range worlds {
		push(w)
	}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		next(w, push)
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]World, 0, len(keys))
	for _, k := range keys {
		out = append(out, seen[k])
	}
	return out
}
