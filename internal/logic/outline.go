package logic

import (
	"fmt"

	"repro/internal/lang"
	"repro/internal/model"
	"repro/internal/spec"
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
func (pf Proof) Check() error { return check(pf.Ctx, pf.Init, pf.Threads) }

// semantics is what sets one logic's reading of Fig 11's rules apart from
// another's: Ctx gives the UCR semantics of Sec 7, XCtx the X-wins semantics
// over Sec 9's relaxed machine. The proof-outline checker below runs over
// either.
type semantics interface {
	// spec is the abstract specification worlds are executed against. Its
	// queries' identity actions need no guarantee and are not recorded.
	spec() spec.Spec
	// admitsArrivals filters the arrival sets of a world that the semantics
	// can reach, and admitsLin returns the world's filter on their
	// linearizations, nil if it admits every one.
	admitsArrivals(w World, ids []string) bool
	admitsLin(w World) func(lin []string) bool
	// newWorld is the empty-knowledge world over init.
	newWorld(init model.Value) World
	// issue records the thread's own action α in w, whose Arrived set is the
	// arrival set the call was split on.
	issue(w *World, alpha Action)
	// stabilize closes a world set under the rely rules R, deduplicated and
	// in Key order.
	stabilize(worlds []World, R RG) []World
}

// check validates a proof outline under sem: the par rule's interference
// side conditions, then each thread by symbolic execution.
func check(sem semantics, init model.Value, threads []ThreadProof) error {
	for i, tp := range threads {
		var othersG RG
		for j, other := range threads {
			if i != j {
				othersG = append(othersG, other.G...)
			}
		}
		if !tp.R.Includes(othersG) {
			return fmt.Errorf("logic: thread %s: rely does not include some other thread's guarantee", tp.Thread.Name)
		}
		if err := (walker{sem, tp}).run(init); err != nil {
			return fmt.Errorf("logic: thread %s: %w", tp.Thread.Name, err)
		}
	}
	return nil
}

// walker symbolically executes one thread of a proof outline.
type walker struct {
	sem semantics
	tp  ThreadProof
}

// run executes the thread from the stabilized precondition (s = Init ∧ emp)
// and checks its postcondition under ⇛.
func (wk walker) run(init model.Value) error {
	worlds := wk.sem.stabilize([]World{wk.sem.newWorld(init)}, wk.tp.R)
	if err := wk.invariant(worlds); err != nil {
		return fmt.Errorf("invariant at precondition: %w", err)
	}
	final, err := wk.execStmts(worlds, wk.tp.Thread.Body)
	if err != nil {
		return err
	}
	if wk.tp.Post == nil {
		return nil
	}
	return satAll(wk.sem, final, wk.tp.Post, true)
}

// invariant validates the thread's object invariant over a world set (no-op
// when the thread declares none).
func (wk walker) invariant(worlds []World) error {
	if wk.tp.Invariant == nil {
		return nil
	}
	return satAll(wk.sem, worlds, wk.tp.Invariant, false)
}

// execStmts executes a statement list over a world set, re-checking the
// object invariant after every statement.
func (wk walker) execStmts(worlds []World, stmts []lang.Stmt) ([]World, error) {
	var err error
	for _, s := range stmts {
		worlds, err = wk.execStmt(worlds, s)
		if err != nil {
			return nil, fmt.Errorf("at %s: %w", s, err)
		}
		if err := wk.invariant(worlds); err != nil {
			return nil, fmt.Errorf("invariant after %s: %w", s, err)
		}
	}
	return worlds, nil
}

func (wk walker) execStmt(worlds []World, s lang.Stmt) ([]World, error) {
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
		return worlds, satAll(wk.sem, worlds, st.E, false)
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
			res, err := wk.execStmts(thenW, st.Then)
			if err != nil {
				return nil, err
			}
			out = append(out, res...)
		}
		if len(elseW) > 0 {
			res, err := wk.execStmts(elseW, st.Else)
			if err != nil {
				return nil, err
			}
			out = append(out, res...)
		}
		return dedup(out), nil
	case lang.While:
		return nil, fmt.Errorf("the logic checker handles loop-free clients only")
	case lang.Call:
		return wk.execCall(worlds, st)
	default:
		return nil, fmt.Errorf("unknown statement %T", s)
	}
}

// execCall implements the call rule (Fig 11) combined with csq and call-r:
// the argument is evaluated per world; the issued action must be covered by
// the thread's guarantee with its prerequisite arrived; each world is split
// by which bracketed actions have arrived and by the possible return values;
// the semantics records the new action; and the result is stabilized under
// the rely.
func (wk walker) execCall(worlds []World, call lang.Call) ([]World, error) {
	sp := wk.sem.spec()
	var out []World
	for _, w := range worlds {
		op, err := callOp(call, w.Env)
		if err != nil {
			return nil, err
		}
		query := sp.IsQuery(op.Name)
		var alpha Action
		if !query {
			rule, err := guaranteeRule(wk.tp, op)
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
		admit := wk.sem.admitsLin(w)
		w.arrivalSupersets(func(ids []string) bool {
			if !wk.sem.admitsArrivals(w, ids) {
				return true
			}
			rets := map[string]model.Value{}
			spec.LinearExtensions(ids, w.Before, func(lin []string) bool {
				if admit == nil || admit(lin) {
					ret, _ := sp.Apply(op, w.run(sp, lin))
					rets[ret.String()] = ret
				}
				return true
			})
			for _, ret := range rets {
				nw := w.Clone()
				for _, id := range ids {
					nw.Arrived[id] = true
				}
				if !query {
					wk.sem.issue(&nw, alpha)
				}
				if call.X != "" {
					nw.Env[call.X] = ret
				}
				out = append(out, nw)
			}
			return true
		})
	}
	return wk.sem.stabilize(dedup(out), wk.tp.R), nil
}

// satAll decides the lifted state assertion P over every world of a set:
// satWorld for each, stopping at the first failure.
func satAll(sem semantics, worlds []World, P lang.Expr, deliverAll bool) error {
	for _, w := range worlds {
		if err := satWorld(sem, w, P, deliverAll); err != nil {
			return err
		}
	}
	return nil
}

// stateVar is the variable bound to the abstract object state when lifted
// state assertions are evaluated.
const stateVar = "s"

// satWorld decides P on one world: for every arrival superset and every
// linearization consistent with the known order that sem admits, the
// resulting object state (bound to stateVar) together with the world's
// pinned client variables satisfies P. With deliverAll, every issued action
// is considered arrived first (⇛).
func satWorld(sem semantics, w World, P lang.Expr, deliverAll bool) error {
	if deliverAll {
		w = w.Clone()
		for id := range w.Actions {
			w.Arrived[id] = true
		}
	}
	sp := sem.spec()
	var firstErr error
	admit := sem.admitsLin(w)
	ok := w.arrivalSupersets(func(ids []string) bool {
		if !sem.admitsArrivals(w, ids) {
			return true
		}
		return spec.LinearExtensions(ids, w.Before, func(lin []string) bool {
			if admit != nil && !admit(lin) {
				return true
			}
			s := w.run(sp, lin)
			env := w.Env.Clone()
			env[stateVar] = s
			v, err := lang.Eval(P, env)
			if err != nil {
				firstErr = fmt.Errorf("logic: evaluating %s under %s: %w", P, env.Key(), err)
				return false
			}
			if !v.Equal(model.True) {
				firstErr = fmt.Errorf("logic: %s fails at world %s with %s=%s (order %v)",
					P, w.Key(), stateVar, s, lin)
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
// Queries (whose actions are identities) need no guarantee, and execCall
// does not look one up for them: their effects are invisible to other
// threads, matching the paper's treatment of read-only operations.
func guaranteeRule(tp ThreadProof, op model.Op) (Rule, error) {
	for _, r := range tp.G {
		if r.Issues.Node == tp.Thread.Node && r.Issues.Op.Equal(op) {
			return r, nil
		}
	}
	return Rule{}, fmt.Errorf("call %s at node %s is not covered by the guarantee %v", op, tp.Thread.Node, tp.G)
}
