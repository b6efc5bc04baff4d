package awset

import (
	"bytes"
	"testing"

	"repro/internal/crdt"
	"repro/internal/model"
	"repro/internal/spec"
)

func op(name model.OpName, e int64) model.Op {
	return model.Op{Name: name, Arg: model.Int(e)}
}

func step(t *testing.T, o Object, s crdt.State, theOp model.Op, node model.NodeID, mid model.MsgID) (crdt.State, crdt.Effector) {
	t.Helper()
	_, eff, err := o.Prepare(theOp, s, node, mid)
	if err != nil {
		t.Fatalf("Prepare(%s): %v", theOp, err)
	}
	return eff.Apply(s), eff
}

func lookup(t *testing.T, o Object, s crdt.State, e int64) bool {
	t.Helper()
	ret, _, err := o.Prepare(op(spec.OpLookup, e), s, 0, 999)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ret.AsBool()
	return b
}

// TestAddWins replays the add-wins resolution of Fig 5(a), element 1:
// t2 adds 1 (tag b), t1 concurrently adds 1 (tag c); t2 removes 1 seeing
// only (1,b); when the remove reaches t1, only (1,b) dies and lookup(1)
// still returns true.
func TestAddWins(t *testing.T) {
	o := New()
	base := o.Init()
	// t2: Add(1,b), replicated to t1.
	s2, addB := step(t, o, base, op(spec.OpAdd, 1), 2, 1)
	s1 := addB.Apply(base)
	// t1: Add(1,c) concurrently with t2's remove.
	s1, addC := step(t, o, s1, op(spec.OpAdd, 1), 1, 2)
	s2, rmvB := step(t, o, s2, op(spec.OpRemove, 1), 2, 3)
	// Cross delivery.
	s1 = rmvB.Apply(s1)
	s2 = addC.Apply(s2)
	if !lookup(t, o, s1, 1) || !lookup(t, o, s2, 1) {
		t.Fatal("add must win over the concurrent remove")
	}
	if Abs(s1).String() != Abs(s2).String() {
		t.Fatalf("replicas diverge: %s vs %s", Abs(s1), Abs(s2))
	}
}

// TestRemoveWinsSequentially: a remove that saw the add kills it.
func TestRemoveSeesAdd(t *testing.T) {
	o := New()
	s := o.Init()
	s, _ = step(t, o, s, op(spec.OpAdd, 0), 0, 1)
	s, _ = step(t, o, s, op(spec.OpRemove, 0), 0, 2)
	if lookup(t, o, s, 0) {
		t.Fatal("sequential remove must erase the element")
	}
	if !Abs(s).Equal(model.List()) {
		t.Errorf("Abs = %s", Abs(s))
	}
}

// TestRemoveCollectsOnlyVisibleInstances checks the effector carries the
// element-tag pairs removed locally (Fig 5's Rmv((1,b))).
func TestRemoveCollectsOnlyVisibleInstances(t *testing.T) {
	o := New()
	s := o.Init()
	s, _ = step(t, o, s, op(spec.OpAdd, 7), 0, 1)
	s, _ = step(t, o, s, op(spec.OpAdd, 7), 0, 2) // second instance
	_, eff, err := o.Prepare(op(spec.OpRemove, 7), s, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(eff.(RmvEff).Insts); got != 2 {
		t.Fatalf("remove collected %d instances, want 2", got)
	}
	// Remove of an absent element carries no instances (and is harmless).
	_, eff2, _ := o.Prepare(op(spec.OpRemove, 9), s, 0, 4)
	if len(eff2.(RmvEff).Insts) != 0 {
		t.Error("remove of absent element must collect nothing")
	}
	if Abs(eff2.Apply(s)).String() != Abs(s).String() {
		t.Error("empty remove must not change the state")
	}
}

// TestEffectorsCommute: tombstoning makes add/remove effectors commute even
// out of causal order.
func TestEffectorsCommute(t *testing.T) {
	o := New()
	base := o.Init()
	add := AddEff{E: model.Int(1), T: Tag{Node: 1, Seq: 10}}
	rmv := RmvEff{E: model.Int(1), Insts: []inst{{E: model.Int(1), T: Tag{Node: 1, Seq: 10}}}}
	s1 := rmv.Apply(add.Apply(base))
	s2 := add.Apply(rmv.Apply(base))
	if !bytes.Equal(s1.AppendBinary(nil), s2.AppendBinary(nil)) {
		t.Fatal("effectors do not commute")
	}
	if !Abs(s1).Equal(model.List()) {
		t.Errorf("instance should be dead: %s", Abs(s1))
	}
}

func TestReadReturnsDistinctElements(t *testing.T) {
	o := New()
	s := o.Init()
	s, _ = step(t, o, s, op(spec.OpAdd, 3), 0, 1)
	s, _ = step(t, o, s, op(spec.OpAdd, 3), 0, 2)
	s, _ = step(t, o, s, op(spec.OpAdd, 1), 0, 3)
	ret, _, _ := o.Prepare(model.Op{Name: spec.OpRead}, s, 0, 4)
	if !ret.Equal(model.List(model.Int(1), model.Int(3))) {
		t.Errorf("read = %s", ret)
	}
}
