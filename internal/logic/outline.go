package logic

import (
	"fmt"

	"repro/internal/lang"
	"repro/internal/model"
)

// ThreadProof is one thread's side of a rely-guarantee proof: the client
// code, the thread's rely and guarantee conditions, and its postcondition
// Q_t (checked under ⇛, i.e. after all actions have arrived — the par rule's
// q_t ⇛ Q_t premise).
type ThreadProof struct {
	Thread lang.Thread
	R, G   RG
	Post   lang.Expr
	// Invariant, when non-nil, is the object invariant I of the
	// invariant-based extension at the end of Sec 7: it is checked (as a
	// lifted state assertion) at the thread's precondition and after every
	// statement.
	Invariant lang.Expr
}

// Proof is a whole-program proof: ⊢ {s = Init ∧ emp} with (Γ, ⊲⊳) do C1 ∥ …
// ∥ Cn {∧_t Q_t}. Threads must use disjoint variable names.
type Proof struct {
	Ctx     Ctx
	Init    model.Value
	Threads []ThreadProof
}

// Check validates the proof following Fig 11: the par rule's interference
// side conditions ((∨_{t'≠t} G_t') ⇒ R_t), then each thread via symbolic
// execution with the call, call-r, csq and local rules (assertions are
// stabilized under R_t after every step), and finally each thread's q_t ⇛
// Q_t.
func (pf Proof) Check() error {
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

// checkThread symbolically executes one thread from the stabilized
// precondition (s = Init ∧ emp) and checks its postcondition under ⇛.
func (pf Proof) checkThread(tp ThreadProof) error {
	cur := pf.Ctx.Stabilize(Base{Init: pf.Init}, tp.R)
	if err := checkInvariant(pf.Ctx.satWorld, tp, cur.Worlds(pf.Ctx.Conflict())); err != nil {
		return fmt.Errorf("invariant at precondition: %w", err)
	}
	final, err := pf.execStmts(tp, cur.Worlds(pf.Ctx.Conflict()), tp.Thread.Body)
	if err != nil {
		return err
	}
	if tp.Post == nil {
		return nil
	}
	return pf.Ctx.DeliverSat(Lit{Ws: final}, tp.Post)
}

// checkInvariant validates the thread's object invariant over a world set
// (no-op when the thread declares none) under sat, the world semantics of
// the logic in use: Ctx.satWorld for Proof, XCtx.satWorld for XProof.
func checkInvariant(sat func(World, lang.Expr, bool) error, tp ThreadProof, worlds []World) error {
	if tp.Invariant == nil {
		return nil
	}
	for _, w := range worlds {
		if err := sat(w, tp.Invariant, false); err != nil {
			return err
		}
	}
	return nil
}

// execStmts executes a statement list over a world set, re-checking the
// object invariant after every statement.
func (pf Proof) execStmts(tp ThreadProof, worlds []World, stmts []lang.Stmt) ([]World, error) {
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

func (pf Proof) execStmt(tp ThreadProof, worlds []World, s lang.Stmt) ([]World, error) {
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
		return nil, fmt.Errorf("the logic checker handles loop-free clients only")
	case lang.Call:
		return pf.execCall(tp, worlds, st)
	default:
		return nil, fmt.Errorf("unknown statement %T", s)
	}
}

// execCall implements the call rule (Fig 11) combined with csq and call-r:
// the argument is evaluated per world; the issued action must be covered by
// the thread's guarantee with its prerequisite arrived; each world is split
// by which bracketed actions have arrived and by the possible return values;
// the new action is appended via (q, ⊲⊳) ⋉ ⌈α⌉; and the result is stabilized
// under the rely.
func (pf Proof) execCall(tp ThreadProof, worlds []World, call lang.Call) ([]World, error) {
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
				return nil, fmt.Errorf("action %s issued twice (one guarantee rule per call site is required)", alpha)
			}
		}
		// Split by arrival supersets; within each, collect possible returns.
		w.arrivalSupersets(func(ids []string) bool {
			arrivedNow := map[string]bool{}
			for _, id := range ids {
				arrivedNow[id] = true
			}
			rets := map[string]model.Value{}
			w.linearize(ids, func(lin []string) bool {
				s := w.Init
				ret := model.Nil()
				for _, id := range lin {
					_, s = pf.Ctx.Spec.Apply(w.Actions[id].Op, s)
				}
				ret, _ = pf.Ctx.Spec.Apply(op, s)
				rets[ret.String()] = ret
				return true
			})
			for _, ret := range rets {
				nw := w.Clone()
				for id := range arrivedNow {
					nw.Arrived[id] = true
				}
				ok := true
				if !query {
					// (q, ⊲⊳) ⋉ ⌈α⌉: order α after conflicting arrived
					// actions.
					prior := nw.sortedIDs()
					nw.AddAction(alpha, true)
					for _, id := range prior {
						if nw.Arrived[id] && id != alpha.ID && pf.Ctx.Spec.Conflict(nw.Actions[id].Op, alpha.Op) {
							if !nw.Order(id, alpha.ID) {
								ok = false
								break
							}
						}
					}
				}
				if !ok {
					continue
				}
				if call.X != "" {
					nw.Env[call.X] = ret
				}
				out = append(out, nw)
			}
			return true
		})
	}
	stabilized := pf.Ctx.Stabilize(Lit{Ws: dedup(out)}, tp.R)
	return stabilized.Worlds(pf.Ctx.Conflict()), nil
}

// callOp evaluates a call's arguments under env into a model.Op.
func callOp(call lang.Call, env lang.Env) (model.Op, error) {
	var arg model.Value
	switch len(call.Args) {
	case 0:
		arg = model.Nil()
	case 1:
		v, err := lang.Eval(call.Args[0], env)
		if err != nil {
			return model.Op{}, err
		}
		arg = v
	case 2:
		a, err := lang.Eval(call.Args[0], env)
		if err != nil {
			return model.Op{}, err
		}
		b, err := lang.Eval(call.Args[1], env)
		if err != nil {
			return model.Op{}, err
		}
		arg = model.Pair(a, b)
	default:
		return model.Op{}, fmt.Errorf("operation %s called with %d arguments (max 2)", call.F, len(call.Args))
	}
	return model.Op{Name: call.F, Arg: arg}, nil
}

// guaranteeRule finds the guarantee rule covering op for this thread.
// Queries (whose actions are identities) need no guarantee: a synthetic
// unconditional rule is created for them — their effects are invisible to
// other threads, matching the paper's treatment of read-only operations.
func guaranteeRule(tp ThreadProof, op model.Op) (Rule, error) {
	for _, r := range tp.G {
		if r.Issues.Node == tp.Thread.Node && r.Issues.Op.Equal(op) {
			return r, nil
		}
	}
	return Rule{}, fmt.Errorf("call %s at node %s is not covered by the guarantee %v", op, tp.Thread.Node, tp.G)
}
