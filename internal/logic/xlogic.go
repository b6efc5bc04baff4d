package logic

import (
	"fmt"

	"repro/internal/lang"
	"repro/internal/model"
	"repro/internal/spec"
)

// This file prototypes the client logic for X-wins CRDTs — the extension the
// paper leaves as future work ("we leave the program logic for clients using
// X-wins CRDTs as future work", Sec 11). It follows the recipe the paper
// sketches: take the ◀ and ▷ relations into account, and interpret
// assertions against the relaxed abstract operational semantics of Sec 9.
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
	// StateVar is the object-state variable for lifted assertions
	// (default "s").
	StateVar string
	// IsQuery identifies read-only operations.
	IsQuery func(model.OpName) bool
}

func (c XCtx) stateVar() string {
	if c.StateVar == "" {
		return "s"
	}
	return c.StateVar
}

// canceledInLin reports whether lin[i] is canceled within the linearization:
// some action in lin saw it and cancels it.
func (c XCtx) canceledInLin(w World, lin []string, i int) bool {
	x := lin[i]
	for _, y := range lin {
		if y != x && c.XSpec.CanceledBy(w.Actions[x].Op, w.Actions[y].Op) && w.SawBy(y, x) {
			return true
		}
	}
	return false
}

// validLin checks the X-wins linearization discipline.
func (c XCtx) validLin(w World, lin []string) bool {
	pos := map[string]int{}
	for i, id := range lin {
		pos[id] = i
	}
	for i, x := range lin {
		for _, y := range lin[i+1:] { // x before y
			if !c.XSpec.Conflict(w.Actions[x].Op, w.Actions[y].Op) {
				continue
			}
			if w.SawBy(x, y) {
				return false // y visible to x must precede it
			}
			if w.SawBy(y, x) {
				continue // causal order respected
			}
			// Concurrent: the ◀-loser must come first unless one side is
			// canceled within this linearization.
			if c.XSpec.WonBy(w.Actions[y].Op, w.Actions[x].Op) { // y ◀ x but x first
				xi := indexOf(lin, x)
				yi := indexOf(lin, y)
				if !c.canceledInLin(w, lin, xi) && !c.canceledInLin(w, lin, yi) {
					return false
				}
			}
		}
	}
	return true
}

func indexOf(lin []string, id string) int {
	for i, x := range lin {
		if x == id {
			return i
		}
	}
	return -1
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

// satWorld checks the lifted state assertion in X-wins mode.
func (c XCtx) satWorld(w World, P lang.Expr, deliverAll bool) error {
	if deliverAll {
		w = w.Clone()
		for id := range w.Actions {
			w.Arrived[id] = true
		}
	}
	var firstErr error
	ok := w.arrivalSupersets(func(ids []string) bool {
		if !w.causallyClosed(ids) {
			return true // causal delivery rules this arrival set out
		}
		return w.linearize(ids, func(lin []string) bool {
			if !c.validLin(w, lin) {
				return true
			}
			s := w.Init
			for _, id := range lin {
				_, s = c.XSpec.Apply(w.Actions[id].Op, s)
			}
			env := w.Env.Clone()
			env[c.stateVar()] = s
			v, err := lang.Eval(P, env)
			if err != nil {
				firstErr = fmt.Errorf("logic: evaluating %s under %s: %w", P, env.Key(), err)
				return false
			}
			if !v.Equal(model.True) {
				firstErr = fmt.Errorf("logic: %s fails at world %s with %s=%s (order %v)",
					P, w.Key(), c.stateVar(), s, lin)
				return false
			}
			return true
		})
	})
	if !ok {
		return firstErr
	}
	return nil
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
func (pf XProof) Check() error {
	for i, tp := range pf.Threads {
		var othersG RG
		for j, other := range pf.Threads {
			if i != j {
				othersG = append(othersG, other.G...)
			}
		}
		if !tp.R.Includes(othersG) {
			return fmt.Errorf("logic: thread %s: rely does not include some other thread's guarantee", tp.Thread.Name)
		}
		if err := pf.checkThread(tp); err != nil {
			return fmt.Errorf("logic: thread %s: %w", tp.Thread.Name, err)
		}
	}
	return nil
}

func (pf XProof) checkThread(tp ThreadProof) error {
	init := NewWorld(pf.Init)
	init.Seen = map[string]map[string]bool{}
	worlds := pf.stabilize([]World{init}, tp.R)
	if err := checkInvariant(pf.Ctx.satWorld, tp, worlds); err != nil {
		return fmt.Errorf("invariant at precondition: %w", err)
	}
	final, err := pf.execStmts(tp, worlds, tp.Thread.Body)
	if err != nil {
		return err
	}
	if tp.Post == nil {
		return nil
	}
	for _, w := range final {
		if err := pf.Ctx.satWorld(w, tp.Post, true); err != nil {
			return err
		}
	}
	return nil
}

// stabilize closes the world set under the rely rules. An environment action
// may have seen any subset of the actions already known (at least its rule's
// prerequisite), so each application splits into one world per admissible
// visibility set.
func (pf XProof) stabilize(worlds []World, R RG) []World {
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
		for _, r := range R {
			if w.Has(r.Issues) {
				continue
			}
			applicable := true
			for _, req := range r.Requires {
				if !w.Has(req) {
					applicable = false
					break
				}
			}
			if !applicable {
				continue
			}
			// Enumerate visibility sets: Requires ⊆ S ⊆ known actions.
			known := w.sortedIDs()
			required := map[string]bool{}
			for _, req := range r.Requires {
				required[req.ID] = true
			}
			var optional []string
			for _, id := range known {
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
				if !seenAcyclic(nw) {
					continue
				}
				push(nw)
			}
		}
	}
	out := make([]World, 0, len(seen))
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sortStrings(keys)
	for _, k := range keys {
		out = append(out, seen[k])
	}
	return out
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

// execStmts executes a statement list over a world set, re-checking the
// object invariant after every statement, as Proof does.
func (pf XProof) execStmts(tp ThreadProof, worlds []World, stmts []lang.Stmt) ([]World, error) {
	var err error
	for _, s := range stmts {
		worlds, err = pf.execStmt(tp, worlds, s)
		if err != nil {
			return nil, fmt.Errorf("at %s: %w", s, err)
		}
		if err := checkInvariant(pf.Ctx.satWorld, tp, worlds); err != nil {
			return nil, fmt.Errorf("invariant after %s: %w", s, err)
		}
	}
	return worlds, nil
}

func (pf XProof) execStmt(tp ThreadProof, worlds []World, s lang.Stmt) ([]World, error) {
	switch st := s.(type) {
	case lang.Skip:
		return worlds, nil
	case lang.Assign:
		var out []World
		for _, w := range worlds {
			v, err := lang.Eval(st.E, w.Env)
			if err != nil {
				return nil, err
			}
			nw := w.Clone()
			nw.Env[st.X] = v
			out = append(out, nw)
		}
		return out, nil
	case lang.Assert:
		for _, w := range worlds {
			if err := pf.Ctx.satWorld(w, st.E, false); err != nil {
				return nil, err
			}
		}
		return worlds, nil
	case lang.If:
		var thenW, elseW []World
		for _, w := range worlds {
			v, err := lang.Eval(st.Cond, w.Env)
			if err != nil {
				return nil, fmt.Errorf("branch condition %s undecided: %w", st.Cond, err)
			}
			if v.Equal(model.True) {
				thenW = append(thenW, w)
			} else {
				elseW = append(elseW, w)
			}
		}
		var out []World
		if len(thenW) > 0 {
			res, err := pf.execStmts(tp, thenW, st.Then)
			if err != nil {
				return nil, err
			}
			out = append(out, res...)
		}
		if len(elseW) > 0 {
			res, err := pf.execStmts(tp, elseW, st.Else)
			if err != nil {
				return nil, err
			}
			out = append(out, res...)
		}
		return dedup(out), nil
	case lang.While:
		return nil, fmt.Errorf("the X-wins logic checker handles loop-free clients only")
	case lang.Call:
		return pf.execCall(tp, worlds, st)
	default:
		return nil, fmt.Errorf("unknown statement %T", s)
	}
}

// execCall performs a call in X-wins mode: the thread's own action sees
// exactly the actions that have arrived at its node, which the arrival split
// pins per refined world.
func (pf XProof) execCall(tp ThreadProof, worlds []World, call lang.Call) ([]World, error) {
	var out []World
	for _, w := range worlds {
		op, err := callOp(call, w.Env)
		if err != nil {
			return nil, err
		}
		query := pf.Ctx.IsQuery != nil && pf.Ctx.IsQuery(op.Name)
		var alpha Action
		if !query {
			rule, err := guaranteeRule(tp, op)
			if err != nil {
				return nil, err
			}
			for _, req := range rule.Requires {
				if !w.Arrived[req.ID] {
					return nil, fmt.Errorf("guarantee prerequisite ⌈%s⌉ not arrived in world %s", req, w.Key())
				}
			}
			alpha = rule.Issues
			if w.Has(alpha) {
				return nil, fmt.Errorf("action %s issued twice", alpha)
			}
		}
		w.arrivalSupersets(func(ids []string) bool {
			if !w.causallyClosed(ids) {
				return true
			}
			arrivedNow := map[string]bool{}
			for _, id := range ids {
				arrivedNow[id] = true
			}
			rets := map[string]model.Value{}
			w.linearize(ids, func(lin []string) bool {
				if !pf.Ctx.validLin(w, lin) {
					return true
				}
				s := w.Init
				for _, id := range lin {
					_, s = pf.Ctx.XSpec.Apply(w.Actions[id].Op, s)
				}
				ret, _ := pf.Ctx.XSpec.Apply(op, s)
				rets[ret.String()] = ret
				return true
			})
			for _, ret := range rets {
				nw := w.Clone()
				for id := range arrivedNow {
					nw.Arrived[id] = true
				}
				if !query {
					nw.AddAction(alpha, true)
					nw.SetSeen(alpha.ID, arrivedNow)
				}
				if call.X != "" {
					nw.Env[call.X] = ret
				}
				out = append(out, nw)
			}
			return true
		})
	}
	return pf.stabilize(dedup(out), tp.R), nil
}

// Sat decides the lifted state assertion judgment over explicit worlds in
// X-wins mode: every causally-closed arrival superset and every ◀/▷-valid
// linearization of every world must satisfy P.
func (c XCtx) Sat(worlds []World, P lang.Expr) error {
	for _, w := range worlds {
		if err := c.satWorld(w, P, false); err != nil {
			return err
		}
	}
	return nil
}

// DeliverSat is Sat under ⇛: every issued action is delivered first.
func (c XCtx) DeliverSat(worlds []World, P lang.Expr) error {
	for _, w := range worlds {
		if err := c.satWorld(w, P, true); err != nil {
			return err
		}
	}
	return nil
}
