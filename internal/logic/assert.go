package logic

import (
	"fmt"
	"strings"

	"repro/internal/lang"
	"repro/internal/model"
)

// Assn is an action assertion of Fig 10, denoting a finite set of worlds.
// The constructors mirror the paper's syntax:
//
//	Base         — S0 ∧ emp (an explicit initial abstract state)
//	Issued       — [α]^i_t        (issued, possibly not yet arrived)
//	Arrived      — ⌈α⌉^i_t        (arrived at the current node)
//	Join         — p ⊔ q          (merge without new ordering)
//	After        — p ⋉ [α] / p ⋉ ⌈α⌉ (α ordered after everything in p)
//	AfterConf    — (p, ⊲⊳) ⋉ …    (α ordered only after conflicting arrived actions)
//	Or           — disjunction
//	WithEnv      — pin client variables
type Assn interface {
	// Worlds computes the denotation under the given conflict relation.
	Worlds(conflict Conflict) []World
	fmt.Stringer
}

// Conflict abstracts the ⊲⊳ relation over operations.
type Conflict func(a, b model.Op) bool

// Base is S0 ∧ emp.
type Base struct{ Init model.Value }

// Worlds implements Assn.
func (b Base) Worlds(Conflict) []World { return []World{NewWorld(b.Init)} }

// String implements fmt.Stringer.
func (b Base) String() string { return fmt.Sprintf("(s = %s ∧ emp)", b.Init) }

// Issued is [α]^i_t appended to a base assertion via Join/After; standalone
// it denotes a world with unknown initial state, so it may only appear under
// combinators — Worlds panics if used bare.
type Issued struct{ A Action }

// Worlds implements Assn.
func (i Issued) Worlds(Conflict) []World {
	panic("logic: bare [α] has no standalone denotation; combine it with a Base via Join/After")
}

// String implements fmt.Stringer.
func (i Issued) String() string { return fmt.Sprintf("[%s]", i.A) }

// Arrived is ⌈α⌉^i_t; like Issued it only appears under combinators.
type Arrived struct{ A Action }

// Worlds implements Assn.
func (a Arrived) Worlds(Conflict) []World {
	panic("logic: bare ⌈α⌉ has no standalone denotation; combine it with a Base via Join/After")
}

// String implements fmt.Stringer.
func (a Arrived) String() string { return fmt.Sprintf("⌈%s⌉", a.A) }

// Join is p ⊔ q: merge the action knowledge without adding order. The right
// operand must be an Issued/Arrived singleton or another combinator chain
// ending in singletons.
type Join struct {
	P Assn
	Q Assn
}

// Worlds implements Assn.
func (j Join) Worlds(cf Conflict) []World {
	return combine(j.P, j.Q, cf, func(w *World, a Action, arrived bool) bool {
		w.AddAction(a, arrived)
		return true
	})
}

// String implements fmt.Stringer.
func (j Join) String() string { return fmt.Sprintf("%s ⊔ %s", j.P, j.Q) }

// After is p ⋉ [α] or p ⋉ ⌈α⌉: α is ordered after every action in p.
type After struct {
	P Assn
	Q Assn // Issued or Arrived singleton
}

// Worlds implements Assn.
func (f After) Worlds(cf Conflict) []World {
	return combine(f.P, f.Q, cf, func(w *World, a Action, arrived bool) bool {
		prior := w.sortedIDs()
		w.AddAction(a, arrived)
		for _, id := range prior {
			if id != a.ID && !w.Order(id, a.ID) {
				return false
			}
		}
		return true
	})
}

// String implements fmt.Stringer.
func (f After) String() string { return fmt.Sprintf("(%s ⋉ %s)", f.P, f.Q) }

// AfterConf is (p, ⊲⊳) ⋉ [α] or (p, ⊲⊳) ⋉ ⌈α⌉: α is ordered only after the
// ARRIVED actions of p that conflict with it.
type AfterConf struct {
	P Assn
	Q Assn // Issued or Arrived singleton
}

// Worlds implements Assn.
func (f AfterConf) Worlds(cf Conflict) []World {
	return combine(f.P, f.Q, cf, func(w *World, a Action, arrived bool) bool {
		prior := w.sortedIDs()
		arrivedPrior := map[string]bool{}
		for _, id := range prior {
			if w.Arrived[id] {
				arrivedPrior[id] = true
			}
		}
		w.AddAction(a, arrived)
		for _, id := range prior {
			if id == a.ID || !arrivedPrior[id] {
				continue
			}
			if cf(w.Actions[id].Op, a.Op) && !w.Order(id, a.ID) {
				return false
			}
		}
		return true
	})
}

// String implements fmt.Stringer.
func (f AfterConf) String() string { return fmt.Sprintf("((%s, ⊲⊳) ⋉ %s)", f.P, f.Q) }

// combine evaluates the left operand to worlds and folds the right-hand
// singleton (or chain of singletons) into each using add.
func combine(p, q Assn, cf Conflict, add func(w *World, a Action, arrived bool) bool) []World {
	worlds := p.Worlds(cf)
	var out []World
	for _, w := range worlds {
		nw := w.Clone()
		ok := true
		for _, s := range singletons(q) {
			if !add(&nw, s.a, s.arrived) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, nw)
		}
	}
	return dedup(out)
}

type singleton struct {
	a       Action
	arrived bool
}

func singletons(q Assn) []singleton {
	switch x := q.(type) {
	case Issued:
		return []singleton{{a: x.A}}
	case Arrived:
		return []singleton{{a: x.A, arrived: true}}
	default:
		panic(fmt.Sprintf("logic: the right operand of ⊔/⋉ must be [α] or ⌈α⌉, got %T", q))
	}
}

// Or is disjunction.
type Or struct{ Disjuncts []Assn }

// Worlds implements Assn.
func (o Or) Worlds(cf Conflict) []World {
	var out []World
	for _, d := range o.Disjuncts {
		out = append(out, d.Worlds(cf)...)
	}
	return dedup(out)
}

// String implements fmt.Stringer.
func (o Or) String() string {
	parts := make([]string, len(o.Disjuncts))
	for i, d := range o.Disjuncts {
		parts[i] = d.String()
	}
	return "(" + strings.Join(parts, " ∨ ") + ")"
}

// WithEnv pins client variables in every world of P.
type WithEnv struct {
	P   Assn
	Env lang.Env
}

// Worlds implements Assn.
func (we WithEnv) Worlds(cf Conflict) []World {
	worlds := we.P.Worlds(cf)
	out := make([]World, 0, len(worlds))
	for _, w := range worlds {
		nw := w.Clone()
		for k, v := range we.Env {
			nw.Env[k] = v
		}
		out = append(out, nw)
	}
	return out
}

// String implements fmt.Stringer.
func (we WithEnv) String() string { return fmt.Sprintf("(%s ∧ %s)", we.P, we.Env.Key()) }

// Lit wraps an explicit world set (used by the symbolic executor, whose
// intermediate assertions are computed rather than written).
type Lit struct{ Ws []World }

// Worlds implements Assn.
func (l Lit) Worlds(Conflict) []World { return dedup(l.Ws) }

// String implements fmt.Stringer.
func (l Lit) String() string {
	parts := make([]string, len(l.Ws))
	for i, w := range l.Ws {
		parts[i] = w.Key()
	}
	return "{" + strings.Join(parts, " | ") + "}"
}

func dedup(ws []World) []World {
	seen := map[string]bool{}
	out := make([]World, 0, len(ws))
	for _, w := range ws {
		k := w.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, w)
		}
	}
	return out
}
