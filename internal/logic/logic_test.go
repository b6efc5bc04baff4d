package logic

import (
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/model"
	"repro/internal/spec"
)

func v(s string) model.Value { return model.Str(s) }

func listCtx() Ctx {
	return Ctx{Spec: spec.ListSpec{}}
}

func addAfterAct(node model.NodeID, a, b string) Action {
	return Act(node, spec.OpAddAfter, model.Pair(v(a), v(b)))
}

// expr parses a boolean expression for use as a state assertion.
func expr(t *testing.T, src string) lang.Expr {
	t.Helper()
	prog := lang.MustParse("node t { p := " + src + "; }")
	return prog.Threads[0].Body[0].(lang.Assign).E
}

// TestLiftedStateAssertionExamples reproduces the two lifted-assertion
// examples of Sec 7:
//
//	(s = a ∧ emp) ⊔ (⌈addAfter(a,b)⌉t1 ⋉ ⌈addAfter(a,c)⌉t2) ⇒ s = acb
//	(s = a ∧ emp) ⊔ ([addAfter(a,b)]t1 ⋉ ⌈addAfter(a,c)⌉t2) ⇒ s = ac ∨ s = acb
func TestLiftedStateAssertionExamples(t *testing.T) {
	ctx := listCtx()
	ab := addAfterAct(1, "a", "b")
	ac := addAfterAct(2, "a", "c")
	base := Base{Init: model.List(v("a"))}

	both := After{P: Join{P: base, Q: Arrived{A: ab}}, Q: Arrived{A: ac}}
	if err := ctx.Sat(both, expr(t, `s == ["a", "c", "b"]`)); err != nil {
		t.Errorf("boxed case: %v", err)
	}
	if err := ctx.Sat(both, expr(t, `s == ["a", "b", "c"]`)); err == nil {
		t.Error("boxed case: wrong state accepted")
	}

	half := After{P: Join{P: base, Q: Issued{A: ab}}, Q: Arrived{A: ac}}
	if err := ctx.Sat(half, expr(t, `s == ["a", "c"] || s == ["a", "c", "b"]`)); err != nil {
		t.Errorf("bracketed case: %v", err)
	}
	if err := ctx.Sat(half, expr(t, `s == ["a", "c", "b"]`)); err == nil {
		t.Error("bracketed case: must not pin the bracketed action as arrived")
	}
	// Under ⇛ everything arrives: s = acb uniquely.
	if err := ctx.DeliverSat(half, expr(t, `s == ["a", "c", "b"]`)); err != nil {
		t.Errorf("⇛ case: %v", err)
	}
}

// TestEntailWeakenings: discarding order and downgrading arrivals are safe;
// inventing them is not.
func TestEntailWeakenings(t *testing.T) {
	ctx := listCtx()
	ab := addAfterAct(1, "a", "b")
	ac := addAfterAct(2, "a", "c")
	base := Base{Init: model.List(v("a"))}
	ordered := After{P: Join{P: base, Q: Issued{A: ab}}, Q: Issued{A: ac}}
	unordered := Join{P: Join{P: base, Q: Issued{A: ab}}, Q: Issued{A: ac}}
	if err := ctx.Entail(ordered, unordered); err != nil {
		t.Errorf("(p ⋉ [α]) ⇒ (p ⊔ [α]) should hold: %v", err)
	}
	if err := ctx.Entail(unordered, ordered); err == nil {
		t.Error("(p ⊔ [α]) ⇒ (p ⋉ [α]) must fail")
	}
	boxed := Join{P: Join{P: base, Q: Issued{A: ab}}, Q: Arrived{A: ac}}
	bracketed := Join{P: Join{P: base, Q: Issued{A: ab}}, Q: Issued{A: ac}}
	if err := ctx.Entail(boxed, bracketed); err != nil {
		t.Errorf("⌈α⌉ ⇒ [α] should hold: %v", err)
	}
	if err := ctx.Entail(bracketed, boxed); err == nil {
		t.Error("[α] ⇒ ⌈α⌉ must fail")
	}
	// Branching on order: p ⊔ q ⇒ (p ⋉ q) ∨ (q before p variants).
	branch := Or{Disjuncts: []Assn{
		ordered,
		After{P: Join{P: base, Q: Issued{A: ac}}, Q: Issued{A: ab}},
	}}
	if err := ctx.Entail(unordered, branch); err == nil {
		t.Error("unordered has a genuinely unordered world; the branch disjunction lacks it")
	}
}

// TestStabilization reproduces the stabilization example (7.1): p =
// [addAfter(a,b)] under R1 = ⌈addAfter(a,b)⌉ ; [addAfter(a,c)] stabilizes to
// p ∨ (p ⋉ [addAfter(a,c)]).
func TestStabilization(t *testing.T) {
	ctx := listCtx()
	ab := addAfterAct(1, "a", "b")
	ac := addAfterAct(2, "a", "c")
	base := Base{Init: model.List(v("a"))}
	p := Join{P: base, Q: Issued{A: ab}}
	R := RG{{Requires: []Action{ab}, Issues: ac}}
	if err := ctx.Sta(p, R); err == nil {
		t.Error("p alone must not be stable under R1")
	}
	p1 := Or{Disjuncts: []Assn{p, After{P: p, Q: Issued{A: ac}}}}
	if err := ctx.Sta(p1, R); err != nil {
		t.Errorf("p1 must be stable: %v", err)
	}
	// Stabilize computes an equivalent closure.
	closed := ctx.Stabilize(p, R)
	if err := ctx.Sta(closed, R); err != nil {
		t.Errorf("Stabilize result unstable: %v", err)
	}
	if err := ctx.Entail(closed, p1); err != nil {
		t.Errorf("closure should be covered by the paper's p1: %v", err)
	}
}

// TestCmtClosed: receiving an issued action must stay within the assertion.
// Under this package's may-arrive reading of brackets ([α] covers both the
// arrived and the in-flight situation), every assertion is automatically
// cmt-closed — the check exists for rule parity with Fig 11 and must accept
// all of these.
func TestCmtClosed(t *testing.T) {
	ctx := listCtx()
	ab := addAfterAct(1, "a", "b")
	base := Base{Init: model.List(v("a"))}
	p := Join{P: base, Q: Issued{A: ab}}
	if err := ctx.CmtClosed(p); err != nil {
		t.Errorf("bracketed assertions are cmt-closed under may-arrive semantics: %v", err)
	}
	closed := ctx.CmtClose(p)
	if err := ctx.CmtClosed(closed); err != nil {
		t.Errorf("CmtClose result not closed: %v", err)
	}
	// The closure adds the arrived variant as an explicit world.
	boxed := Join{P: base, Q: Arrived{A: ab}}
	if err := ctx.Entail(boxed, closed); err != nil {
		t.Errorf("closure should cover the arrived variant: %v", err)
	}
}

// fig12Proof builds the Fig 9 / Fig 12 proof for RGA's abstract list spec.
func fig12Proof(t *testing.T, t1Post, t3Post string) Proof {
	t.Helper()
	prog := lang.MustParse(`
		node t1 { addAfter("a", "b"); x := read(); }
		node t2 { u := read(); if ("b" in u) { addAfter("a", "c"); } }
		node t3 { v := read(); if ("c" in v) { addAfter("c", "d"); } y := read(); }`)
	alphaB := addAfterAct(0, "a", "b")
	alphaC := addAfterAct(1, "a", "c")
	alphaD := addAfterAct(2, "c", "d")
	g1 := RG{{Issues: alphaB}}
	g2 := RG{{Requires: []Action{alphaB}, Issues: alphaC}}
	g3 := RG{{Requires: []Action{alphaC}, Issues: alphaD}}
	var post1, post3 lang.Expr
	if t1Post != "" {
		post1 = expr(t, t1Post)
	}
	if t3Post != "" {
		post3 = expr(t, t3Post)
	}
	return Proof{
		Ctx:  listCtx(),
		Init: model.List(v("a")),
		Threads: []ThreadProof{
			{Thread: prog.Threads[0], R: append(append(RG{}, g2...), g3...), G: g1, Post: post1},
			{Thread: prog.Threads[1], R: append(append(RG{}, g1...), g3...), G: g2},
			{Thread: prog.Threads[2], R: append(append(RG{}, g1...), g2...), G: g3, Post: post3},
		},
	}
}

// TestFig12Proof machine-checks the paper's motivating client proof
// (Figs 9 and 12): with the rely/guarantee conditions of Fig 12, thread t3
// establishes s = acdb ⇒ (y = s ∨ y = acd) and thread t1 establishes
// d ∈ x ⇒ s = x = acdb.
func TestFig12Proof(t *testing.T) {
	pf := fig12Proof(t,
		`!("d" in x) || (s == x && x == ["a", "c", "d", "b"])`,
		`!(s == ["a", "c", "d", "b"]) || (y == s || y == ["a", "c", "d"])`)
	if err := pf.Check(); err != nil {
		t.Fatalf("Fig 12 proof rejected: %v", err)
	}
}

// TestFig12WrongPostRejected: strengthening t3's postcondition to y = s
// (ruling out the acd read permitted by missing causal delivery) must fail —
// the paper explicitly notes y may read acd.
func TestFig12WrongPostRejected(t *testing.T) {
	pf := fig12Proof(t, "", `!(s == ["a", "c", "d", "b"]) || y == s`)
	err := pf.Check()
	if err == nil {
		t.Fatal("overly strong postcondition accepted")
	}
	if !strings.Contains(err.Error(), "t3") {
		t.Errorf("failure should implicate t3: %v", err)
	}
}

// TestGuaranteeViolationRejected: if t2's guarantee claims it issues
// addAfter(a,c) unconditionally, t2's own call may fire before seeing
// addAfter(a,b) — but the proof breaks differently: t3's reasoning (which
// relies on ⌈α_b⌉ preceding α_c) no longer goes through, and t2's call
// prerequisite check fails for the conditional rule. Both directions are
// exercised.
func TestGuaranteeViolationRejected(t *testing.T) {
	pf := fig12Proof(t, "", "")
	// Make t2's rule unconditional in its own guarantee but keep the other
	// threads' relies unchanged: now (∨ G') ⇒ R fails for t1 and t3.
	pf.Threads[1].G = RG{{Issues: pf.Threads[1].G[0].Issues}}
	if err := pf.Check(); err == nil {
		t.Fatal("mismatched rely/guarantee accepted")
	}
}

// TestCallNotCoveredByGuarantee: calls without a matching guarantee rule are
// rejected.
func TestCallNotCoveredByGuarantee(t *testing.T) {
	prog := lang.MustParse(`node t1 { addAfter("a", "b"); }`)
	pf := Proof{
		Ctx:  listCtx(),
		Init: model.List(v("a")),
		Threads: []ThreadProof{
			{Thread: prog.Threads[0], G: RG{}},
		},
	}
	err := pf.Check()
	if err == nil || !strings.Contains(err.Error(), "not covered") {
		t.Fatalf("err = %v", err)
	}
}

// TestPrerequisiteNotArrived: t2 calling addAfter(a,c) before reading b must
// violate its own guarantee prerequisite.
func TestPrerequisiteNotArrived(t *testing.T) {
	prog := lang.MustParse(`node t2 { addAfter("a", "c"); }`)
	alphaB := addAfterAct(9, "a", "b")
	alphaC := addAfterAct(0, "a", "c")
	pf := Proof{
		Ctx:  listCtx(),
		Init: model.List(v("a")),
		Threads: []ThreadProof{
			{Thread: prog.Threads[0], R: RG{{Issues: alphaB}}, G: RG{{Requires: []Action{alphaB}, Issues: alphaC}}},
		},
	}
	err := pf.Check()
	if err == nil || !strings.Contains(err.Error(), "prerequisite") {
		t.Fatalf("err = %v", err)
	}
}

// TestCounterClientProof: a simple counter client — no conflicts, so all
// interleavings agree on the final sum.
func TestCounterClientProof(t *testing.T) {
	prog := lang.MustParse(`
		node t1 { inc(2); }
		node t2 { dec(1); }`)
	incAct := Act(0, spec.OpInc, model.Int(2))
	decAct := Act(1, spec.OpDec, model.Int(1))
	ctx := Ctx{Spec: spec.CounterSpec{}}
	// A thread cannot know whether the other's operation was ever issued
	// (no communication), so its strongest sound postcondition covers both
	// cases — exactly what rely-guarantee reasoning forces.
	pf := Proof{
		Ctx:  ctx,
		Init: model.Int(0),
		Threads: []ThreadProof{
			{Thread: prog.Threads[0], R: RG{{Issues: decAct}}, G: RG{{Issues: incAct}}, Post: expr(t, "s == 1 || s == 2")},
			{Thread: prog.Threads[1], R: RG{{Issues: incAct}}, G: RG{{Issues: decAct}}, Post: expr(t, "s == 1 || s == -1")},
		},
	}
	if err := pf.Check(); err != nil {
		t.Fatalf("counter proof rejected: %v", err)
	}
	pf.Threads[0].Post = expr(t, "s == 2")
	if err := pf.Check(); err == nil {
		t.Fatal("wrong counter postcondition accepted")
	}
}

// TestWorldOrderCycleRejected: ordering constraints that form a cycle make
// the world inconsistent.
func TestWorldOrderCycleRejected(t *testing.T) {
	w := NewWorld(model.List())
	a := addAfterAct(0, "a", "b")
	b := addAfterAct(1, "a", "c")
	w.AddAction(a, true)
	w.AddAction(b, true)
	if !w.Order(a.ID, b.ID) {
		t.Fatal("first order rejected")
	}
	if w.Order(b.ID, a.ID) {
		t.Fatal("cycle accepted")
	}
}

// TestFinalStates enumerates reachable states of a partially ordered world.
func TestFinalStates(t *testing.T) {
	ctx := listCtx()
	_ = ctx
	w := NewWorld(model.List(v("a")))
	ab := addAfterAct(1, "a", "b")
	ac := addAfterAct(2, "a", "c")
	w.AddAction(ab, true)
	w.AddAction(ac, false)
	states := w.FinalStates(spec.ListSpec{})
	// Arrival subsets: {ab} → ab; {ab, ac} in both orders → acb / abc.
	want := map[string]bool{
		model.List(v("a"), v("b")).String():         true,
		model.List(v("a"), v("c"), v("b")).String(): true,
		model.List(v("a"), v("b"), v("c")).String(): true,
	}
	if len(states) != len(want) {
		t.Fatalf("states = %v", states)
	}
	for _, s := range states {
		if !want[s.String()] {
			t.Errorf("unexpected state %s", s)
		}
	}
}

// TestInvariantBasedReasoning exercises the invariant extension at the end
// of Sec 7: the counter stays non-negative when threads only increment, and
// a decrementing thread violates the same invariant.
func TestInvariantBasedReasoning(t *testing.T) {
	ctx := Ctx{Spec: spec.CounterSpec{}}
	inc1 := Act(0, spec.OpInc, model.Int(2))
	inc2 := Act(1, spec.OpInc, model.Int(3))
	prog := lang.MustParse(`
		node t1 { inc(2); }
		node t2 { inc(3); }`)
	inv := expr(t, "s >= 0")
	pf := Proof{
		Ctx:  ctx,
		Init: model.Int(0),
		Threads: []ThreadProof{
			{Thread: prog.Threads[0], R: RG{{Issues: inc2}}, G: RG{{Issues: inc1}}, Invariant: inv},
			{Thread: prog.Threads[1], R: RG{{Issues: inc1}}, G: RG{{Issues: inc2}}, Invariant: inv},
		},
	}
	if err := pf.Check(); err != nil {
		t.Fatalf("non-negativity invariant rejected: %v", err)
	}
	// A decrement below zero breaks the invariant mid-execution.
	dec := Act(1, spec.OpDec, model.Int(5))
	bad := lang.MustParse(`
		node t1 { inc(2); }
		node t2 { dec(5); }`)
	pf2 := Proof{
		Ctx:  ctx,
		Init: model.Int(0),
		Threads: []ThreadProof{
			{Thread: bad.Threads[0], R: RG{{Issues: dec}}, G: RG{{Issues: inc1}}, Invariant: inv},
			{Thread: bad.Threads[1], R: RG{{Issues: inc1}}, G: RG{{Issues: dec}}, Invariant: inv},
		},
	}
	err := pf2.Check()
	if err == nil || !strings.Contains(err.Error(), "invariant") {
		t.Fatalf("err = %v, want invariant violation", err)
	}
}

// TestRegisterMonotonicReadsProof: an original client proof in the paper's
// style — the LWW register's abstract specification guarantees that once a
// reader observes the newest write, later reads cannot regress. Writes from
// one node conflict and are ordered by issue order (stabilization step 3),
// so the reader's post holds in every world.
func TestRegisterMonotonicReadsProof(t *testing.T) {
	ctx := Ctx{Spec: spec.RegisterSpec{}}
	w1 := Act(0, spec.OpWrite, model.Int(1))
	w2 := Act(0, spec.OpWrite, model.Int(2))
	prog := lang.MustParse(`
		node t1 { write(1); write(2); }
		node t2 { x := read(); y := read(); }`)
	gWriter := RG{{Issues: w1}, {Requires: []Action{w1}, Issues: w2}}
	pf := Proof{
		Ctx:  ctx,
		Init: model.Nil(),
		Threads: []ThreadProof{
			{Thread: prog.Threads[0], R: RG{}, G: gWriter},
			{Thread: prog.Threads[1], R: gWriter, G: RG{},
				// once x reads 2, y cannot read anything older
				Post: expr(t, `!(x == 2) || y == 2`)},
		},
	}
	if err := pf.Check(); err != nil {
		t.Fatalf("monotonic-reads proof rejected: %v", err)
	}
	// The converse direction must fail: y == 2 does not force x == 2.
	pf.Threads[1].Post = expr(t, `!(y == 2) || x == 2`)
	if err := pf.Check(); err == nil {
		t.Fatal("invalid converse accepted")
	}
}

// TestGSetStabilityProof: grow-only sets have an empty conflict relation, so
// everything commutes and the only facts a reader can establish are
// monotone: once an element is observed, it stays observed.
func TestGSetStabilityProof(t *testing.T) {
	ctx := Ctx{Spec: spec.GSetSpec{}}
	addA := Act(0, spec.OpAdd, model.Str("a"))
	prog := lang.MustParse(`
		node t1 { add("a"); }
		node t2 { x := lookup("a"); y := lookup("a"); }`)
	pf := Proof{
		Ctx:  ctx,
		Init: model.List(),
		Threads: []ThreadProof{
			{Thread: prog.Threads[0], R: RG{}, G: RG{{Issues: addA}}},
			{Thread: prog.Threads[1], R: RG{{Issues: addA}}, G: RG{},
				Post: expr(t, `!(x == true) || y == true`)},
		},
	}
	if err := pf.Check(); err != nil {
		t.Fatalf("g-set stability proof rejected: %v", err)
	}
	// y may be true while x was false (the add arrived in between).
	pf.Threads[1].Post = expr(t, `x == y`)
	if err := pf.Check(); err == nil {
		t.Fatal("x == y is not guaranteed and must be rejected")
	}
}

// TestWithEnvAndOrAssertions covers the assertion constructors not exercised
// by the proofs: WithEnv pins variables, Or unions worlds, and bare
// singletons panic.
func TestWithEnvAndOrAssertions(t *testing.T) {
	ctx := listCtx()
	base := Base{Init: model.List(v("a"))}
	p := WithEnv{P: base, Env: lang.Env{"k": model.Int(7)}}
	if err := ctx.Sat(p, expr(t, `k == 7 && s == ["a"]`)); err != nil {
		t.Errorf("WithEnv: %v", err)
	}
	or := Or{Disjuncts: []Assn{base, WithEnv{P: base, Env: lang.Env{"k": model.Int(1)}}}}
	worlds := or.Worlds(ctx.Conflict())
	if len(worlds) != 2 {
		t.Errorf("Or worlds = %d", len(worlds))
	}
	defer func() {
		if recover() == nil {
			t.Error("bare Issued must panic")
		}
	}()
	Issued{A: addAfterAct(0, "a", "b")}.Worlds(ctx.Conflict())
}

// TestAssertStatementInProof: assert statements inside threads become proof
// obligations checked in every world.
func TestAssertStatementInProof(t *testing.T) {
	ctx := Ctx{Spec: spec.CounterSpec{}}
	inc := Act(0, spec.OpInc, model.Int(1))
	good := lang.MustParse(`node t1 { inc(1); x := read(); assert(x >= 0); }`)
	pf := Proof{
		Ctx:  ctx,
		Init: model.Int(0),
		Threads: []ThreadProof{
			{Thread: good.Threads[0], R: RG{}, G: RG{{Issues: inc}}},
		},
	}
	if err := pf.Check(); err != nil {
		t.Fatalf("valid assert rejected: %v", err)
	}
	bad := lang.MustParse(`node t1 { inc(1); x := read(); assert(x == 0); }`)
	pf.Threads[0].Thread = bad.Threads[0]
	if err := pf.Check(); err == nil {
		t.Fatal("false assert accepted")
	}
}

// TestSetRemoveObservedProof: a thread that observes an element and removes
// it reads it as absent afterwards — the remove is ordered after the add it
// observed ((q,⊲⊳)⋉ in the call rule), and no other add exists.
func TestSetRemoveObservedProof(t *testing.T) {
	ctx := Ctx{Spec: spec.SetSpec{}}
	addA := Act(0, spec.OpAdd, model.Str("a"))
	rmvA := Act(1, spec.OpRemove, model.Str("a"))
	prog := lang.MustParse(`
		node t1 { add("a"); }
		node t2 { u := lookup("a"); if (u == true) { remove("a"); y := lookup("a"); assert(y == false); } }`)
	pf := Proof{
		Ctx:  ctx,
		Init: model.List(),
		Threads: []ThreadProof{
			{Thread: prog.Threads[0], R: RG{{Requires: []Action{addA}, Issues: rmvA}}, G: RG{{Issues: addA}}},
			{Thread: prog.Threads[1], R: RG{{Issues: addA}}, G: RG{{Requires: []Action{addA}, Issues: rmvA}}},
		},
	}
	if err := pf.Check(); err != nil {
		t.Fatalf("observed-remove proof rejected: %v", err)
	}
	// The inverse assert must fail.
	bad := lang.MustParse(`
		node t1 { add("a"); }
		node t2 { u := lookup("a"); if (u == true) { remove("a"); y := lookup("a"); assert(y == true); } }`)
	pf.Threads[0].Thread = bad.Threads[0]
	pf.Threads[1].Thread = bad.Threads[1]
	if err := pf.Check(); err == nil {
		t.Fatal("false assert accepted")
	}
}

// TestListHandoffProof: a three-stage editing pipeline on the list spec —
// each editor appends only after observing the previous section, so the
// final document order is fully determined.
func TestListHandoffProof(t *testing.T) {
	ctx := listCtx()
	secA := addAfterAct(0, "◦", "intro")
	secB := Act(1, spec.OpAddAfter, model.Pair(v("intro"), v("body")))
	secC := Act(2, spec.OpAddAfter, model.Pair(v("body"), v("end")))
	g1 := RG{{Issues: secA}}
	g2 := RG{{Requires: []Action{secA}, Issues: secB}}
	g3 := RG{{Requires: []Action{secB}, Issues: secC}}
	prog := lang.MustParse(`
		node t1 { addAfter(sentinel, "intro"); }
		node t2 { u := read(); if ("intro" in u) { addAfter("intro", "body"); } }
		node t3 { v := read(); if ("body" in v) { addAfter("body", "end"); } }`)
	post := expr(t, `s == [] || s == ["intro"] || s == ["intro", "body"] || s == ["intro", "body", "end"]`)
	pf := Proof{
		Ctx:  ctx,
		Init: model.List(),
		Threads: []ThreadProof{
			{Thread: prog.Threads[0], R: append(append(RG{}, g2...), g3...), G: g1, Post: post},
			{Thread: prog.Threads[1], R: append(append(RG{}, g1...), g3...), G: g2, Post: post},
			{Thread: prog.Threads[2], R: append(append(RG{}, g1...), g2...), G: g3, Post: post},
		},
	}
	if err := pf.Check(); err != nil {
		t.Fatalf("handoff proof rejected: %v", err)
	}
	// Sections can never interleave out of order.
	pf.Threads[0].Post = expr(t, `!("end" in s) || ("body" in s)`)
	if err := pf.Check(); err != nil {
		t.Fatalf("prefix-closure corollary rejected: %v", err)
	}
	pf.Threads[0].Post = expr(t, `s == ["intro", "end"] || true == false`)
	if err := pf.Check(); err == nil {
		t.Fatal("impossible document accepted")
	}
}

// strayStmt is a statement type the checker does not know: it borrows
// lang.Skip's marker method but is not lang.Skip.
type strayStmt struct{ lang.Skip }

// TestCheckerErrorPaths runs every rejection of the proof-outline checker
// through both logics, Proof over the UCR set spec and XProof over the
// add-wins set spec: each must fail, and both errors must carry the same
// text (world renderings aside, which differ between the logics).
func TestCheckerErrorPaths(t *testing.T) {
	add0 := Act(0, spec.OpAdd, model.Int(0))
	add1 := Act(1, spec.OpAdd, model.Int(1))
	issues0 := RG{{Issues: add0}}
	cases := []struct {
		name, src string
		g, r      []RG        // per thread, in program order
		body      []lang.Stmt // when set, replaces the first thread's body
		want      string
	}{
		{"while loop", `node t { while (true) { skip; } }`, nil, nil, nil,
			"at while (true) { skip; }: the logic checker handles loop-free clients only"},
		{"three arguments", `node t { add(0, 1, 2); }`, nil, nil, nil,
			"operation add called with 3 arguments (max 2)"},
		{"argument does not evaluate", `node t { add(z); }`, nil, nil, nil,
			`at add(z);: lang: unbound variable "z"`},
		{"first of two arguments does not evaluate", `node t { add(z, 0); }`, nil, nil, nil,
			`at add(z, 0);: lang: unbound variable "z"`},
		{"second of two arguments does not evaluate", `node t { add(0, z); }`, nil, nil, nil,
			`at add(0, z);: lang: unbound variable "z"`},
		{"assignment does not evaluate", `node t { x := z; }`, nil, nil, nil,
			`at x := z;: lang: unbound variable "z"`},
		{"branch condition does not evaluate", `node t { if (z) { skip; } }`, nil, nil, nil,
			`branch condition z undecided: lang: unbound variable "z"`},
		{"else branch fails", `node t { skip; x := 1; if (x == 2) { skip; } else { y := z; } }`, nil, nil, nil,
			`at y := z;: lang: unbound variable "z"`},
		{"assertion does not evaluate", `node t { assert(z); }`, nil, nil, nil,
			`at assert(z);: logic: evaluating z under`},
		{"unknown statement", `node t { skip; }`, nil, nil, []lang.Stmt{strayStmt{}},
			"unknown statement logic.strayStmt"},
		{"action issued twice", `node t { add(0); add(0); }`, []RG{issues0}, nil, nil,
			"at add(0);: action add(0)@t0#add(0)@t0 issued twice (one guarantee rule per call site is required)"},
		{"call no guarantee covers", `node t { add(1); }`, []RG{issues0}, nil, nil,
			"call add(1) at node t0 is not covered by the guarantee"},
		{"prerequisite not arrived", `node t { add(0); }`,
			[]RG{{{Requires: []Action{add1}, Issues: add0}}}, []RG{{{Issues: add1}}}, nil,
			"guarantee prerequisite ⌈add(1)@t1#add(1)@t1⌉ not arrived in world init=[];;{}"},
		{"rely omits another thread's guarantee", `node t1 { add(0); } node t2 { add(1); }`,
			[]RG{issues0, {{Issues: add1}}}, []RG{nil, issues0}, nil,
			"logic: thread t1: rely does not include some other thread's guarantee"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog := lang.MustParse(c.src)
			if c.body != nil {
				prog.Threads[0].Body = c.body
			}
			threads := make([]ThreadProof, len(prog.Threads))
			for i, th := range prog.Threads {
				threads[i] = ThreadProof{Thread: th}
				if i < len(c.g) {
					threads[i].G = c.g[i]
				}
				if i < len(c.r) {
					threads[i].R = c.r[i]
				}
			}
			for name, check := range map[string]func() error{
				"Proof": Proof{Ctx: Ctx{Spec: spec.SetSpec{}},
					Init: model.List(), Threads: threads}.Check,
				"XProof": XProof{Ctx: XCtx{XSpec: spec.AWSetSpec{}},
					Init: model.List(), Threads: threads}.Check,
			} {
				if err := check(); err == nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("%s: err = %v, want it to contain %q", name, err, c.want)
				}
			}
		})
	}
}
