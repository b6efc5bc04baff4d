package lwwset

import (
	"bytes"
	"testing"

	"repro/internal/crdt"
	"repro/internal/model"
	"repro/internal/spec"
)

func op(name model.OpName, e string) model.Op {
	return model.Op{Name: name, Arg: model.Str(e)}
}

func step(t *testing.T, o Object, s crdt.State, theOp model.Op, node model.NodeID, mid model.MsgID) (crdt.State, crdt.Effector) {
	t.Helper()
	_, eff, err := o.Prepare(theOp, s, node, mid)
	if err != nil {
		t.Fatalf("Prepare(%s): %v", theOp, err)
	}
	return eff.Apply(s), eff
}

func TestAddRemoveLookup(t *testing.T) {
	o := New()
	s := o.Init()
	s, _ = step(t, o, s, op(spec.OpAdd, "x"), 0, 1)
	ret, _, _ := o.Prepare(op(spec.OpLookup, "x"), s, 0, 2)
	if !ret.Equal(model.True) {
		t.Error("x should be present after add")
	}
	s, _ = step(t, o, s, op(spec.OpRemove, "x"), 0, 3)
	ret, _, _ = o.Prepare(op(spec.OpLookup, "x"), s, 0, 4)
	if !ret.Equal(model.False) {
		t.Error("x should be absent after remove")
	}
	s, _ = step(t, o, s, op(spec.OpAdd, "x"), 0, 5)
	if !Abs(s).Equal(model.List(model.Str("x"))) {
		t.Errorf("re-add failed: %s", Abs(s))
	}
}

// TestConcurrentAddRemoveResolvedByStamp shows the uniform resolution: for
// concurrent add(x) at t1 and remove(x) at t2 from the same initial state,
// the higher node ID's stamp wins regardless of operation kind.
func TestConcurrentAddRemoveResolvedByStamp(t *testing.T) {
	o := New()
	base := o.Init()
	_, addEff, _ := o.Prepare(op(spec.OpAdd, "x"), base, 1, 1)
	_, rmvEff, _ := o.Prepare(op(spec.OpRemove, "x"), base, 2, 2)
	// Stamps: (1,t1) for add, (1,t2) for remove → remove wins on every node.
	s1 := rmvEff.Apply(addEff.Apply(base))
	s2 := addEff.Apply(rmvEff.Apply(base))
	if !bytes.Equal(s1.AppendBinary(nil), s2.AppendBinary(nil)) {
		t.Fatal("effectors do not commute")
	}
	if !Abs(s1).Equal(model.List()) {
		t.Errorf("remove should win by stamp: %s", Abs(s1))
	}
}

func TestStaleEffectorLoses(t *testing.T) {
	o := New()
	s := o.Init()
	s, _ = step(t, o, s, op(spec.OpAdd, "x"), 0, 1) // stamp (1,t0)
	s, _ = step(t, o, s, op(spec.OpAdd, "y"), 0, 2) // stamp (2,t0)
	stale := OpEff{E: model.Str("x"), I: model.Stamp{N: 1, Node: -1}, Present: false}
	s2 := stale.Apply(s)
	if !Abs(s2).Equal(Abs(s)) {
		t.Errorf("stale remove changed state: %s vs %s", Abs(s2), Abs(s))
	}
}

func TestTSOrderOnlySameElement(t *testing.T) {
	ax := OpEff{E: model.Str("x"), I: model.Stamp{N: 1, Node: 0}, Present: true}
	rx := OpEff{E: model.Str("x"), I: model.Stamp{N: 2, Node: 0}, Present: false}
	ay := OpEff{E: model.Str("y"), I: model.Stamp{N: 3, Node: 0}, Present: true}
	if !TSOrder(ax, rx) || TSOrder(rx, ax) {
		t.Error("same-element stamps must order ↣")
	}
	if TSOrder(ax, ay) {
		t.Error("different elements are ↣-unrelated")
	}
}

func TestViewReconstructsWinners(t *testing.T) {
	o := New()
	s := o.Init()
	s, _ = step(t, o, s, op(spec.OpAdd, "x"), 0, 1)
	s, addY := step(t, o, s, op(spec.OpAdd, "y"), 0, 2)
	s, rmvX := step(t, o, s, op(spec.OpRemove, "x"), 0, 3)
	view := View(s)
	got := map[string]bool{}
	for _, d := range view {
		got[d.String()] = true
	}
	if len(view) != 2 || !got[addY.String()] || !got[rmvX.String()] {
		t.Errorf("view = %v", view)
	}
}

func TestStateKeyAndClone(t *testing.T) {
	o := New()
	s := o.Init()
	s1, eff := step(t, o, s, op(spec.OpAdd, "x"), 0, 1)
	if bytes.Equal(s.AppendBinary(nil), s1.AppendBinary(nil)) {
		t.Error("add must change the encoding")
	}
	// Apply must not mutate the input state.
	_ = eff.Apply(s)
	if len(s.(State).Entries) != 0 {
		t.Error("Apply mutated its argument")
	}
}
