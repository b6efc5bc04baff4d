package logic

import (
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/model"
	"repro/internal/spec"
)

func awCtx() XCtx {
	return XCtx{XSpec: spec.AWSetSpec{}}
}

func rwCtx() XCtx {
	return XCtx{XSpec: spec.RWSetSpec{}}
}

// concurrentAddRemoveWorld builds the world with one add(1) and one
// remove(1), both arrived, mutually unseen — the genuinely concurrent case
// the ◀ relation arbitrates.
func concurrentAddRemoveWorld() (World, Action, Action) {
	add := Act(0, spec.OpAdd, model.Int(1))
	rmv := Act(1, spec.OpRemove, model.Int(1))
	w := NewWorld(model.List())
	w.Seen = map[string]map[string]bool{}
	w.AddAction(add, true)
	w.AddAction(rmv, true)
	w.SetSeen(add.ID, nil)
	w.SetSeen(rmv.ID, nil)
	return w, add, rmv
}

// TestXWonByArbitratesConcurrentPairs is the direct semantic contrast the
// extended specifications exist for: the SAME world — a concurrent add(1)
// and remove(1) — yields 1 ∈ s under the add-wins ◀ and 1 ∉ s under the
// remove-wins ◀.
func TestXWonByArbitratesConcurrentPairs(t *testing.T) {
	w, _, _ := concurrentAddRemoveWorld()
	one := expr(t, `s == [1]`)
	empty := expr(t, `s == []`)
	if err := satWorld(awCtx(), w, one, true); err != nil {
		t.Errorf("aw-set: add must win: %v", err)
	}
	if err := satWorld(awCtx(), w, empty, true); err == nil {
		t.Error("aw-set: empty state accepted for a concurrent pair")
	}
	if err := satWorld(rwCtx(), w, empty, true); err != nil {
		t.Errorf("rw-set: remove must win: %v", err)
	}
	if err := satWorld(rwCtx(), w, one, true); err == nil {
		t.Error("rw-set: non-empty state accepted for a concurrent pair")
	}
}

// TestXVisibilityOverridesWonBy: when the remove has SEEN the add the pair
// is causal, not concurrent — the add is canceled (aw-set) and the element
// is absent under both strategies.
func TestXVisibilityOverridesWonBy(t *testing.T) {
	w, add, rmv := concurrentAddRemoveWorld()
	w.SetSeen(rmv.ID, map[string]bool{add.ID: true})
	empty := expr(t, `s == []`)
	if err := satWorld(awCtx(), w, empty, true); err != nil {
		t.Errorf("aw-set: a remove that saw the add cancels it: %v", err)
	}
	if err := satWorld(rwCtx(), w, empty, true); err != nil {
		t.Errorf("rw-set: %v", err)
	}
	// And the reverse causality: the add saw the remove — the element is
	// present under both (the add is the newest causal word on it).
	w2, add2, rmv2 := concurrentAddRemoveWorld()
	w2.SetSeen(add2.ID, map[string]bool{rmv2.ID: true})
	one := expr(t, `s == [1]`)
	if err := satWorld(awCtx(), w2, one, true); err != nil {
		t.Errorf("aw-set: %v", err)
	}
	if err := satWorld(rwCtx(), w2, one, true); err != nil {
		t.Errorf("rw-set: a canceled remove no longer wins: %v", err)
	}
}

// TestXCausalArrivals: causal delivery excludes arrival sets missing a seen
// dependency, so a lookup can never observe an effect without its causes.
func TestXCausalArrivals(t *testing.T) {
	add := Act(0, spec.OpAdd, model.Int(1))
	rmv := Act(0, spec.OpRemove, model.Int(1))
	w := NewWorld(model.List())
	w.Seen = map[string]map[string]bool{}
	w.AddAction(add, false) // neither has arrived yet
	w.AddAction(rmv, false)
	w.SetSeen(add.ID, nil)
	w.SetSeen(rmv.ID, map[string]bool{add.ID: true})
	// Without causal closure s=[1] would be reachable by the remove never
	// arriving... it still is ({add} alone is causally closed). But the
	// arrival set {rmv} alone is NOT, so "s==[] || s==[1]" covers everything
	// and notably the remove-only state (which equals [] here anyway for a
	// set) arises only through the empty set of arrivals.
	if err := satWorld(rwCtx(), w, expr(t, `s == [] || s == [1]`), false); err != nil {
		t.Errorf("%v", err)
	}
	// Under ⇛ both arrive: causally ordered add < rmv ⇒ empty.
	if err := satWorld(rwCtx(), w, expr(t, `s == []`), true); err != nil {
		t.Errorf("⇛: %v", err)
	}
}

// xSec25Proof builds the Sec 2.5 client proof for an X-wins set: both
// threads run add(0); remove(0) and then publish a causal "done" flag. A
// thread cannot know whether the OTHER thread has finished, so its
// postcondition is conditional on observing the flag: once t1 sees "d2"
// (which causally carries t2's add and remove), the fully delivered state
// cannot contain 0.
func xSec25Proof(t *testing.T, ctx XCtx) XProof {
	t.Helper()
	prog := lang.MustParse(`
		node t1 { add(0); remove(0); add("d1"); x := read(); }
		node t2 { add(0); remove(0); add("d2"); y := read(); }`)
	add1 := Action{ID: "add1", Node: 0, Op: model.Op{Name: spec.OpAdd, Arg: model.Int(0)}}
	rmv1 := Action{ID: "rmv1", Node: 0, Op: model.Op{Name: spec.OpRemove, Arg: model.Int(0)}}
	d1 := Action{ID: "d1", Node: 0, Op: model.Op{Name: spec.OpAdd, Arg: model.Str("d1")}}
	add2 := Action{ID: "add2", Node: 1, Op: model.Op{Name: spec.OpAdd, Arg: model.Int(0)}}
	rmv2 := Action{ID: "rmv2", Node: 1, Op: model.Op{Name: spec.OpRemove, Arg: model.Int(0)}}
	d2 := Action{ID: "d2", Node: 1, Op: model.Op{Name: spec.OpAdd, Arg: model.Str("d2")}}
	g1 := RG{{Issues: add1}, {Requires: []Action{add1}, Issues: rmv1}, {Requires: []Action{rmv1}, Issues: d1}}
	g2 := RG{{Issues: add2}, {Requires: []Action{add2}, Issues: rmv2}, {Requires: []Action{rmv2}, Issues: d2}}
	return XProof{
		Ctx:  ctx,
		Init: model.List(),
		Threads: []ThreadProof{
			{Thread: prog.Threads[0], R: g2, G: g1, Post: expr(t, `!("d2" in s) || !(0 in s)`)},
			{Thread: prog.Threads[1], R: g1, G: g2, Post: expr(t, `!("d1" in s) || !(0 in s)`)},
		},
	}
}

// TestXLogicSec25FinalStateEmpty: the prototype X-wins logic proves that once
// both threads of the Sec 2.5 client have finished (observed via the causal
// done-flags), element 0 is gone — for BOTH strategies. The proof is not
// trivial: for the remove-wins set it needs the causal-cycle pruning (the
// world where each thread's remove is canceled by the other thread's add
// closes a visibility cycle and cannot occur), and for the add-wins set it
// needs every add to sit causally below its own remove.
func TestXLogicSec25FinalStateEmpty(t *testing.T) {
	for name, ctx := range map[string]XCtx{"aw-set": awCtx(), "rw-set": rwCtx()} {
		if err := xSec25Proof(t, ctx).Check(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestXLogicRejectsWrongPost: claiming the element survives the other
// thread's completion must fail.
func TestXLogicRejectsWrongPost(t *testing.T) {
	pf := xSec25Proof(t, awCtx())
	pf.Threads[0].Post = expr(t, `!("d2" in s) || (0 in s)`)
	err := pf.Check()
	if err == nil || !strings.Contains(err.Error(), "t1") {
		t.Fatalf("err = %v", err)
	}
}

// TestXLogicChecksInvariant: an object invariant is checked under the X-wins
// world semantics at the precondition and after every statement, as Proof
// checks it. A false invariant fails at the precondition, one that the
// thread's own add("d1") breaks fails after that statement, and one that
// every reachable state satisfies passes.
func TestXLogicChecksInvariant(t *testing.T) {
	for _, c := range []struct {
		inv, want string // want: the error's invariant clause, "" to pass
	}{
		{`false`, "invariant at precondition"},
		{`!("d1" in s)`, `invariant after add("d1")`},
		{`!(1 in s)`, ""},
	} {
		pf := xSec25Proof(t, awCtx())
		pf.Threads[0].Invariant = expr(t, c.inv)
		err := pf.Check()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("invariant %s: %v", c.inv, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("invariant %s: err = %v, want %q", c.inv, err, c.want)
		}
	}
}

// TestXLogicConcurrentLookupUnconstrained: mid-execution, t1's read may or
// may not contain 0 (Fig 5's add-wins survivals), so a post pinning x must
// be rejected while the disjunction passes.
func TestXLogicConcurrentLookupUnconstrained(t *testing.T) {
	pf := xSec25Proof(t, awCtx())
	pf.Threads[0].Post = nil
	pf.Threads[1].Post = nil
	prog := lang.MustParse(`
		node t1 { add(0); remove(0); x := lookup(0); assert(x == true || x == false); }
		node t2 { add(0); remove(0); y := read(); }`)
	pf.Threads[0].Thread = prog.Threads[0]
	pf.Threads[1].Thread = prog.Threads[1]
	if err := pf.Check(); err != nil {
		t.Fatalf("tautological assert rejected: %v", err)
	}
	bad := lang.MustParse(`
		node t1 { add(0); remove(0); x := lookup(0); assert(x == false); }
		node t2 { add(0); remove(0); y := read(); }`)
	pf.Threads[0].Thread = bad.Threads[0]
	if err := pf.Check(); err == nil {
		t.Fatal("add-wins: x may be true (Fig 5a); pinning x == false must fail")
	}
}

// TestXStabilizationPrunesCycles: no stabilized world carries cyclic
// visibility.
func TestXStabilizationPrunesCycles(t *testing.T) {
	pf := xSec25Proof(t, rwCtx())
	init := NewWorld(model.List())
	init.Seen = map[string]map[string]bool{}
	worlds := pf.Ctx.stabilize([]World{init}, append(append(RG{}, pf.Threads[0].G...), pf.Threads[1].G...))
	if len(worlds) == 0 {
		t.Fatal("no worlds")
	}
	for _, w := range worlds {
		if !seenAcyclic(w) {
			t.Fatalf("cyclic world survived: %s", w.Key())
		}
		// Transitive closure: anything that saw rmv1 also saw add1.
		for a, saw := range w.Seen {
			if saw["rmv1"] && !saw["add1"] {
				t.Fatalf("visibility not transitively closed at %s: %s", a, w.Key())
			}
		}
	}
}

// TestXCtxExportedJudgments covers the exported Sat/DeliverSat wrappers.
func TestXCtxExportedJudgments(t *testing.T) {
	w, _, _ := concurrentAddRemoveWorld()
	if err := awCtx().DeliverSat([]World{w}, expr(t, `s == [1]`)); err != nil {
		t.Errorf("DeliverSat: %v", err)
	}
	if err := rwCtx().DeliverSat([]World{w}, expr(t, `s == []`)); err != nil {
		t.Errorf("DeliverSat: %v", err)
	}
	// Sat (without forced delivery) also admits partial arrivals.
	w2 := w.Clone()
	for id := range w2.Arrived {
		delete(w2.Arrived, id)
	}
	if err := awCtx().Sat([]World{w2}, expr(t, `s == [] || s == [1]`)); err != nil {
		t.Errorf("Sat: %v", err)
	}
	if err := awCtx().Sat([]World{w2}, expr(t, `s == [1]`)); err == nil {
		t.Error("Sat must admit the nothing-arrived state")
	}
}
