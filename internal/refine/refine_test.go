package refine

import (
	"fmt"
	"testing"

	"repro/internal/codec"
	"repro/internal/crdt"
	"repro/internal/crdts/registry"
	"repro/internal/lang"
	"repro/internal/model"
	"repro/internal/spec"
)

// setup drains a runtime after invoking the given ops at node 0, giving all
// replicas a common initial object state.
func setup(rt Runtime, ops []model.Op) error {
	for _, op := range ops {
		if _, err := rt.Invoke(0, op); err != nil {
			return err
		}
	}
	for {
		chs := rt.Choices()
		if len(chs) == 0 {
			return nil
		}
		if err := rt.Apply(chs[0]); err != nil {
			return err
		}
	}
}

func clientFor(alg registry.Algorithm) lang.Program {
	switch alg.Spec.Name() {
	case "counter":
		return lang.MustParse(`
			node t1 { inc(1); x := read(); }
			node t2 { dec(2); y := read(); }`)
	case "register":
		return lang.MustParse(`
			node t1 { write(1); x := read(); }
			node t2 { write(2); y := read(); }`)
	case "g-set":
		return lang.MustParse(`
			node t1 { add("a"); x := lookup("b"); }
			node t2 { add("b"); y := lookup("a"); }`)
	case "set", "aw-set", "rw-set":
		return lang.MustParse(`
			node t1 { add("a"); x := lookup("a"); }
			node t2 { remove("a"); y := lookup("a"); }`)
	case "list":
		return lang.MustParse(`
			node t1 { addAfter(sentinel, "a"); x := read(); }
			node t2 { u := read(); if ("a" in u) { addAfter("a", "b"); } y := read(); }`)
	default:
		panic("no client for " + alg.Spec.Name())
	}
}

// TestRefinementHolds_AllAlgorithms is the ⇒ direction of the Abstraction
// Theorem in action: for every implemented algorithm (all of which satisfy
// ACC/XACC), every concrete behaviour of a small client is also an abstract
// behaviour.
func TestRefinementHolds_AllAlgorithms(t *testing.T) {
	for _, alg := range registry.All() {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			res, err := Check(alg, clientFor(alg), Explorer{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK {
				t.Fatalf("refinement violated; %d concrete vs %d abstract behaviours; extra:\n%s",
					res.ConcreteCount, res.AbstractCount, res.Extra)
			}
			if res.ConcreteCount == 0 {
				t.Fatal("no concrete behaviours explored")
			}
		})
	}
}

// TestAbstractionIsProper: the abstract side may have strictly more
// behaviours (the register client distinguishes implementations less than
// the spec allows) — abstraction never removes behaviours.
func TestAbstractionIsProper(t *testing.T) {
	alg := registry.LWWRegister()
	res, err := Check(alg, clientFor(alg), Explorer{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("refinement violated: %v", res.Extra)
	}
	if res.AbstractCount < res.ConcreteCount {
		t.Fatalf("abstract side has fewer behaviours (%d) than concrete (%d)",
			res.AbstractCount, res.ConcreteCount)
	}
}

// brokenSet is the negative control for the ⇐ direction: an implementation
// that violates ACC must leak behaviours the abstract machine cannot
// produce.
type brokenState struct{ E *model.ValueSet }

func (s brokenState) AppendBinary(b []byte) []byte { return codec.AppendValueSet(b, s.E) }

type brokenAdd struct{ E model.Value }

func (d brokenAdd) Apply(s crdt.State) crdt.State {
	out := s.(brokenState).E.Clone()
	out.Add(d.E)
	return brokenState{E: out}
}
func (d brokenAdd) String() string { return "BkAdd(" + d.E.String() + ")" }

func (d brokenAdd) AppendBinary(b []byte) []byte { return append(b, d.String()...) }

type brokenRmv struct{ E model.Value }

func (d brokenRmv) Apply(s crdt.State) crdt.State {
	out := s.(brokenState).E.Clone()
	out.Remove(d.E)
	return brokenState{E: out}
}
func (d brokenRmv) String() string { return "BkRmv(" + d.E.String() + ")" }

func (d brokenRmv) AppendBinary(b []byte) []byte { return append(b, d.String()...) }

type brokenObj struct{}

func (brokenObj) Name() string     { return "broken-set" }
func (brokenObj) Init() crdt.State { return brokenState{E: model.NewValueSet()} }
func (brokenObj) Ops() []model.OpName {
	return []model.OpName{spec.OpAdd, spec.OpRemove, spec.OpLookup}
}

func (brokenObj) Prepare(op model.Op, s crdt.State, origin model.NodeID, mid model.MsgID) (model.Value, crdt.Effector, error) {
	switch op.Name {
	case spec.OpAdd:
		return model.Nil(), brokenAdd{E: op.Arg}, nil
	case spec.OpRemove:
		return model.Nil(), brokenRmv{E: op.Arg}, nil
	case spec.OpLookup:
		return model.Bool(s.(brokenState).E.Has(op.Arg)), crdt.IdEff{}, nil
	default:
		return model.Nil(), nil, crdt.ErrUnknownOp
	}
}

func brokenAlg() registry.Algorithm {
	base := registry.LWWSet()
	return registry.Algorithm{
		Name:     "broken-set",
		New:      func() crdt.Object { return brokenObj{} },
		Abs:      func(s crdt.State) model.Value { return model.List(s.(brokenState).E.Elems()...) },
		Spec:     spec.SetSpec{},
		Universe: base.Universe,
	}
}

// TestBrokenSetViolatesRefinement: with a concurrent add(a) ∥ remove(a) and
// late lookups, the broken set lets the two replicas answer differently
// forever — a behaviour the coherent abstract machine cannot exhibit.
func TestBrokenSetViolatesRefinement(t *testing.T) {
	prog := lang.MustParse(`
		node t1 { add("a"); x := lookup("a"); x2 := lookup("a"); }
		node t2 { remove("a"); y := lookup("a"); y2 := lookup("a"); }`)
	res, err := Check(brokenAlg(), prog, Explorer{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("broken set passed refinement")
	}
}

// TestSec25Distinguish reproduces the Sec 2.5 client: both threads run
// add(0); remove(0); read(). Under the add-wins set the postcondition
// 0 ∈ x ⇒ 0 ∉ y can be violated (both reads may contain 0); under the
// remove-wins and LWW-element sets it always holds.
func TestSec25Distinguish(t *testing.T) {
	prog := lang.MustParse(`
		node t1 { add(0); remove(0); x := read(); }
		node t2 { add(0); remove(0); y := read(); }`)
	violations := func(alg registry.Algorithm) int {
		behaviors, err := Explorer{}.Behaviors(prog, func() Runtime { return NewConcrete(alg, 2) })
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		for _, b := range behaviors {
			x := b.Envs[0]["x"]
			y := b.Envs[1]["y"]
			if x.Contains(model.Int(0)) && y.Contains(model.Int(0)) {
				count++
			}
		}
		return count
	}
	if n := violations(registry.AWSet()); n == 0 {
		t.Error("aw-set: expected an execution with 0 ∈ x and 0 ∈ y")
	}
	if n := violations(registry.RWSet()); n != 0 {
		t.Errorf("rw-set: %d executions violate 0∈x ⇒ 0∉y", n)
	}
	if n := violations(registry.LWWSet()); n != 0 {
		t.Errorf("lww-set: %d executions violate 0∈x ⇒ 0∉y", n)
	}
}

// TestFig9Postcondition model-checks the Fig 9 client of RGA: from the
// initial list a, with threads addAfter(a,b);x:=read() ∥
// u:=read(); if b∈u addAfter(a,c) ∥ v:=read(); if c∈v addAfter(c,d);
// y:=read(), every execution satisfies
// d ∈ x ⇒ (x = acdb) ∧ (y = x ∨ y = acd).
func TestFig9Postcondition(t *testing.T) {
	alg := registry.RGA()
	prog := lang.MustParse(`
		node t1 { addAfter("a", "b"); x := read(); }
		node t2 { u := read(); if ("b" in u) { addAfter("a", "c"); } }
		node t3 { v := read(); if ("c" in v) { addAfter("c", "d"); } y := read(); }`)
	init := []model.Op{{Name: spec.OpAddAfter, Arg: model.Pair(spec.Sentinel, model.Str("a"))}}
	newRT := func() Runtime {
		rt := NewConcrete(alg, 3)
		if err := setup(rt, init); err != nil {
			panic(err)
		}
		return rt
	}
	behaviors, err := Explorer{MaxStates: 500000}.Behaviors(prog, newRT)
	if err != nil {
		t.Fatal(err)
	}
	if len(behaviors) == 0 {
		t.Fatal("no behaviours explored")
	}
	acdb := model.List(model.Str("a"), model.Str("c"), model.Str("d"), model.Str("b"))
	acd := model.List(model.Str("a"), model.Str("c"), model.Str("d"))
	sawConclusion := false
	for _, b := range behaviors {
		x := b.Envs[0]["x"]
		y := b.Envs[2]["y"]
		if !x.Contains(model.Str("d")) {
			continue
		}
		sawConclusion = true
		if !x.Equal(acdb) {
			t.Fatalf("d ∈ x but x = %s, want acdb", x)
		}
		if !y.Equal(x) && !y.Equal(acd) {
			t.Fatalf("d ∈ x but y = %s, want %s or %s", y, x, acd)
		}
	}
	if !sawConclusion {
		t.Error("no execution had d ∈ x; the postcondition was never exercised")
	}
}

// TestExplorerBudget: the state budget aborts runaway explorations.
func TestExplorerBudget(t *testing.T) {
	alg := registry.Counter()
	prog := lang.MustParse(`
		node t1 { inc(1); inc(1); inc(1); x := read(); }
		node t2 { dec(1); dec(1); dec(1); y := read(); }`)
	_, err := Explorer{MaxStates: 5}.Behaviors(prog, func() Runtime { return NewConcrete(alg, 2) })
	if err == nil {
		t.Fatal("expected budget error")
	}
}

// TestBehaviorKeyStable: behaviour keys are deterministic renderings.
func TestBehaviorKeyStable(t *testing.T) {
	b := Behavior{
		Names:     []string{"t1"},
		Histories: [][]string{{"inc(1) => nil"}},
		Envs:      []lang.Env{{"x": model.Int(1)}},
		Errs:      []string{""},
	}
	want := "t1: [inc(1) => nil] env{x=1}"
	if b.Key() != want {
		t.Errorf("Key = %q, want %q", b.Key(), want)
	}
	b.Errs[0] = "boom"
	if b.Key() == want {
		t.Error("failure marker missing from key")
	}
	_ = fmt.Sprintf("%v", b)
}

// TestRunRandom: a random schedule yields a behaviour contained in the
// exhaustive behaviour set, on both runtimes.
func TestRunRandom(t *testing.T) {
	alg := registry.LWWSet()
	prog := clientFor(alg)
	all, err := Explorer{}.Behaviors(prog, func() Runtime { return NewConcrete(alg, 2) })
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 20; seed++ {
		b, err := RunRandom(prog, NewConcrete(alg, 2), seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, ok := all[b.Key()]; !ok {
			t.Fatalf("seed %d: random behaviour %s not in the exhaustive set", seed, b.Key())
		}
	}
	// Abstract runtime too.
	allAbs, err := Explorer{}.Behaviors(prog, func() Runtime { return NewAbstract(alg, 2) })
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 10; seed++ {
		b, err := RunRandom(prog, NewAbstract(alg, 2), seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, ok := allAbs[b.Key()]; !ok {
			t.Fatalf("seed %d: abstract random behaviour %s not in the exhaustive set", seed, b.Key())
		}
	}
}

// TestRunRandomBlockedThread: a permanently blocked assume surfaces as a
// thread failure rather than a hang.
func TestRunRandomBlockedThread(t *testing.T) {
	alg := registry.RGA()
	prog := lang.MustParse(`node t1 { remove("ghost"); x := read(); }`)
	b, err := RunRandom(prog, NewConcrete(alg, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if b.Errs[0] == "" {
		t.Fatal("blocked thread not reported")
	}
}

// TestXLogicCrossValidation model-checks the property the prototype X-wins
// logic proves (see logic.TestXLogicSec25FinalStateEmpty): in the Sec 2.5
// client with causal done-flags, any read that contains the other thread's
// flag cannot contain 0 — on the concrete add-wins AND remove-wins sets.
func TestXLogicCrossValidation(t *testing.T) {
	prog := lang.MustParse(`
		node t1 { add(0); remove(0); add("d1"); x := read(); }
		node t2 { add(0); remove(0); add("d2"); y := read(); }`)
	for _, alg := range []registry.Algorithm{registry.AWSet(), registry.RWSet()} {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			behaviors, err := Explorer{MaxStates: 500000}.Behaviors(prog, func() Runtime { return NewConcrete(alg, 2) })
			if err != nil {
				t.Fatal(err)
			}
			if len(behaviors) == 0 {
				t.Fatal("no behaviours")
			}
			for _, b := range behaviors {
				x := b.Envs[0]["x"]
				y := b.Envs[1]["y"]
				if x.Contains(model.Str("d2")) && x.Contains(model.Int(0)) {
					t.Fatalf("t1 observed d2 yet 0 survives: x = %s", x)
				}
				if y.Contains(model.Str("d1")) && y.Contains(model.Int(0)) {
					t.Fatalf("t2 observed d1 yet 0 survives: y = %s", y)
				}
			}
		})
	}
}
