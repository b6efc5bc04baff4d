package rwset

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

// TestRemoveWins: for a concurrent add(0) and remove(0), the element is
// absent on every node after both effectors arrive — the dual of Fig 5(a).
func TestRemoveWins(t *testing.T) {
	o := New()
	base := o.Init()
	_, add, err := o.Prepare(op(spec.OpAdd, 0), base, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, rmv, err := o.Prepare(op(spec.OpRemove, 0), base, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	s1 := rmv.Apply(add.Apply(base))
	s2 := add.Apply(rmv.Apply(base))
	if !bytes.Equal(s1.AppendBinary(nil), s2.AppendBinary(nil)) {
		t.Fatal("effectors do not commute")
	}
	if lookup(t, o, s1, 0) {
		t.Fatal("remove must win over the concurrent add")
	}
}

// TestAddAfterRemoveCancels: a causally later add cancels the removal
// instances it saw and re-establishes the element.
func TestAddAfterRemoveCancels(t *testing.T) {
	o := New()
	s := o.Init()
	s, _ = step(t, o, s, op(spec.OpAdd, 5), 0, 1)
	s, _ = step(t, o, s, op(spec.OpRemove, 5), 0, 2)
	if lookup(t, o, s, 5) {
		t.Fatal("element should be absent after remove")
	}
	s, addEff := step(t, o, s, op(spec.OpAdd, 5), 0, 3)
	if got := len(addEff.(AddEff).Cancels); got != 1 {
		t.Fatalf("add cancels %d removal instances, want 1", got)
	}
	if !lookup(t, o, s, 5) {
		t.Fatal("element should be present after the re-add")
	}
}

// TestSec25Client checks the Sec 2.5 distinguishing client on one node pair:
// both threads run add(0); remove(0); the postcondition 0∈x ⇒ 0∉y holds for
// remove-wins (indeed 0 is absent everywhere once any remove is live).
func TestSec25Client(t *testing.T) {
	o := New()
	base := o.Init()
	// Thread 1 on node 1.
	s1, a1 := step(t, o, base, op(spec.OpAdd, 0), 1, 1)
	s1, r1 := step(t, o, s1, op(spec.OpRemove, 0), 1, 2)
	// Thread 2 on node 2, concurrent.
	s2, a2 := step(t, o, base, op(spec.OpAdd, 0), 2, 3)
	s2, r2 := step(t, o, s2, op(spec.OpRemove, 0), 2, 4)
	// Full exchange (causal order: each node's add before its remove).
	s1 = r2.Apply(a2.Apply(s1))
	s2 = r1.Apply(a1.Apply(s2))
	if lookup(t, o, s1, 0) || lookup(t, o, s2, 0) {
		t.Fatal("remove-wins: 0 must be absent after both add;remove pairs")
	}
}

func TestAbsAndRead(t *testing.T) {
	o := New()
	s := o.Init()
	s, _ = step(t, o, s, op(spec.OpAdd, 2), 0, 1)
	s, _ = step(t, o, s, op(spec.OpAdd, 1), 0, 2)
	ret, _, _ := o.Prepare(model.Op{Name: spec.OpRead}, s, 0, 3)
	if !ret.Equal(model.List(model.Int(1), model.Int(2))) {
		t.Errorf("read = %s", ret)
	}
	s, _ = step(t, o, s, op(spec.OpRemove, 1), 0, 4)
	if !Abs(s).Equal(model.List(model.Int(2))) {
		t.Errorf("Abs = %s", Abs(s))
	}
}

// TestCommutativityTriple: an add cancelling a removal instance commutes
// with that removal's effector (the cancellation is recorded in a separate
// tombstone set).
func TestCommutativityTriple(t *testing.T) {
	o := New()
	base := o.Init()
	rmv := RmvEff{E: model.Int(1), T: Tag{Node: 2, Seq: 7}}
	add := AddEff{E: model.Int(1), T: Tag{Node: 1, Seq: 9}, Cancels: []inst{{E: model.Int(1), T: Tag{Node: 2, Seq: 7}}}}
	s1 := add.Apply(rmv.Apply(base))
	s2 := rmv.Apply(add.Apply(base))
	if !bytes.Equal(s1.AppendBinary(nil), s2.AppendBinary(nil)) {
		t.Fatal("cancelling add does not commute with the removal")
	}
	if !Abs(s1).Equal(model.List(model.Int(1))) {
		t.Errorf("Abs = %s, want [1]", Abs(s1))
	}
}
