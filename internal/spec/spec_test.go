package spec

import (
	"testing"

	"repro/internal/model"
)

func allSpecs() []struct {
	sp Spec
	u  Universe
} {
	return []struct {
		sp Spec
		u  Universe
	}{
		{CounterSpec{}, CounterUniverse()},
		{RegisterSpec{}, RegisterUniverse()},
		{GSetSpec{}, SetUniverse(false)},
		{SetSpec{}, SetUniverse(true)},
		{AWSetSpec{}, SetUniverse(true)},
		{RWSetSpec{}, SetUniverse(true)},
		{ListSpec{}, ListUniverse()},
	}
}

// TestNonCommAllSpecs verifies Def 1 for every canonical specification: all
// operation pairs unrelated by ⊲⊳ commute on all sampled states.
func TestNonCommAllSpecs(t *testing.T) {
	for _, c := range allSpecs() {
		if err := CheckNonComm(c.sp, c.u.Ops, c.u.States); err != nil {
			t.Errorf("%v", err)
		}
	}
}

// TestConflictSymmetric verifies ⊲⊳ is symmetric for every specification.
func TestConflictSymmetric(t *testing.T) {
	for _, c := range allSpecs() {
		if err := CheckSymmetric(c.sp, c.u.Ops); err != nil {
			t.Errorf("%v", err)
		}
	}
}

// TestXWellFormed verifies ◀ ⊆ ⊲⊳, ▷ ⊆ ⊲⊳ and the validity of ▷ for the two
// X-wins specifications (Sec 9).
func TestXWellFormed(t *testing.T) {
	u := SetUniverse(true)
	for _, sp := range []XSpec{AWSetSpec{}, RWSetSpec{}} {
		if err := CheckXWellFormed(sp, u.Ops, u.States); err != nil {
			t.Errorf("%v", err)
		}
	}
}

// TestXWellFormedRejectsInvalidCancel checks the negative direction of the
// ▷-validity check: remove(e) is NOT canceled by add(e) in the add-wins
// spec, and a spec claiming so must be rejected.
func TestXWellFormedRejectsInvalidCancel(t *testing.T) {
	u := SetUniverse(true)
	if err := CheckXWellFormed(invalidCancelSpec{}, u.Ops, u.States); err == nil {
		t.Error("expected ▷-validity violation, got none")
	}
}

// invalidCancelSpec wrongly claims remove(e) ▷ add(e) while keeping the
// add-wins ◀ (which would violate the first requirement of Sec 2.4 because
// remove never "wins" under add-wins — and also fails the effect-cancellation
// test: remove then add leaves e present, while add alone also leaves e
// present only if e was absent before).
type invalidCancelSpec struct{ AWSetSpec }

func (invalidCancelSpec) CanceledBy(f, fp model.Op) bool {
	return f.Name == OpRemove && fp.Name == OpAdd && f.Arg.Equal(fp.Arg)
}

func TestCounterSpec(t *testing.T) {
	sp := CounterSpec{}
	s := model.Int(0)
	_, s = sp.Apply(model.Op{Name: OpInc, Arg: model.Int(5)}, s)
	_, s = sp.Apply(model.Op{Name: OpDec, Arg: model.Int(2)}, s)
	_, s = sp.Apply(model.Op{Name: OpInc}, s) // default delta 1
	ret, s2 := sp.Apply(model.Op{Name: OpRead}, s)
	if !ret.Equal(model.Int(4)) || !s2.Equal(s) {
		t.Fatalf("counter read = %s (state %s)", ret, s2)
	}
	if _, out := sp.Apply(model.Op{Name: "nope"}, s); !out.Equal(s) {
		t.Error("unknown op must be a no-op")
	}
}

func TestRegisterSpec(t *testing.T) {
	sp := RegisterSpec{}
	s := model.Nil()
	ret, _ := sp.Apply(model.Op{Name: OpRead}, s)
	if !ret.IsNil() {
		t.Error("initial read should be nil")
	}
	_, s = sp.Apply(model.Op{Name: OpWrite, Arg: model.Int(7)}, s)
	ret, _ = sp.Apply(model.Op{Name: OpRead}, s)
	if !ret.Equal(model.Int(7)) {
		t.Errorf("read = %s, want 7", ret)
	}
	w1 := model.Op{Name: OpWrite, Arg: model.Int(1)}
	w2 := model.Op{Name: OpWrite, Arg: model.Int(2)}
	if !sp.Conflict(w1, w2) || sp.Conflict(w1, w1) {
		t.Error("register conflict relation wrong")
	}
}

func TestSetSpec(t *testing.T) {
	sp := SetSpec{}
	s := model.List()
	_, s = sp.Apply(model.Op{Name: OpAdd, Arg: model.Str("b")}, s)
	_, s = sp.Apply(model.Op{Name: OpAdd, Arg: model.Str("a")}, s)
	_, s = sp.Apply(model.Op{Name: OpAdd, Arg: model.Str("a")}, s) // idempotent
	if !s.Equal(model.List(model.Str("a"), model.Str("b"))) {
		t.Fatalf("set state = %s", s)
	}
	ret, _ := sp.Apply(model.Op{Name: OpLookup, Arg: model.Str("a")}, s)
	if !ret.Equal(model.True) {
		t.Error("lookup(a) should be true")
	}
	_, s = sp.Apply(model.Op{Name: OpRemove, Arg: model.Str("a")}, s)
	ret, _ = sp.Apply(model.Op{Name: OpLookup, Arg: model.Str("a")}, s)
	if !ret.Equal(model.False) {
		t.Error("lookup(a) should be false after remove")
	}
	add := model.Op{Name: OpAdd, Arg: model.Str("x")}
	rmv := model.Op{Name: OpRemove, Arg: model.Str("x")}
	rmvY := model.Op{Name: OpRemove, Arg: model.Str("y")}
	if !sp.Conflict(add, rmv) || sp.Conflict(add, rmvY) || sp.Conflict(add, add) {
		t.Error("set conflict relation wrong")
	}
}

func TestXSetWonByAndCanceledBy(t *testing.T) {
	add := model.Op{Name: OpAdd, Arg: model.Str("x")}
	rmv := model.Op{Name: OpRemove, Arg: model.Str("x")}
	aw := AWSetSpec{}
	if !aw.WonBy(rmv, add) || aw.WonBy(add, rmv) {
		t.Error("aw-set ◀ wrong")
	}
	if !aw.CanceledBy(add, rmv) || aw.CanceledBy(rmv, add) {
		t.Error("aw-set ▷ wrong")
	}
	rw := RWSetSpec{}
	if !rw.WonBy(add, rmv) || rw.WonBy(rmv, add) {
		t.Error("rw-set ◀ wrong")
	}
	if !rw.CanceledBy(rmv, add) || rw.CanceledBy(add, rmv) {
		t.Error("rw-set ▷ wrong")
	}
}

func addAfter(a, b model.Value) model.Op {
	return model.Op{Name: OpAddAfter, Arg: model.Pair(a, b)}
}

func TestListSpecInsertions(t *testing.T) {
	sp := ListSpec{}
	s := model.List()
	_, s = sp.Apply(addAfter(Sentinel, model.Str("a")), s)
	_, s = sp.Apply(addAfter(model.Str("a"), model.Str("c")), s)
	_, s = sp.Apply(addAfter(model.Str("a"), model.Str("b")), s)
	want := model.List(model.Str("a"), model.Str("b"), model.Str("c"))
	if !s.Equal(want) {
		t.Fatalf("list = %s, want %s", s, want)
	}
	// Head insert.
	_, s = sp.Apply(addAfter(Sentinel, model.Str("z")), s)
	if !s.At(0).Equal(model.Str("z")) {
		t.Errorf("head insert failed: %s", s)
	}
	// Anchor absent: no-op.
	_, s2 := sp.Apply(addAfter(model.Str("q"), model.Str("w")), s)
	if !s2.Equal(s) {
		t.Error("absent anchor should be a no-op")
	}
	// Duplicate element: no-op.
	_, s3 := sp.Apply(addAfter(Sentinel, model.Str("a")), s)
	if !s3.Equal(s) {
		t.Error("duplicate insert should be a no-op")
	}
	// Remove.
	_, s4 := sp.Apply(model.Op{Name: OpRemove, Arg: model.Str("b")}, s)
	if s4.Contains(model.Str("b")) {
		t.Error("remove failed")
	}
	// Removing the sentinel is a no-op.
	_, s5 := sp.Apply(model.Op{Name: OpRemove, Arg: Sentinel}, s)
	if !s5.Equal(s) {
		t.Error("removing sentinel should be a no-op")
	}
	ret, _ := sp.Apply(model.Op{Name: OpRead}, s)
	if !ret.Equal(s) {
		t.Error("read should return the list")
	}
}

func TestListSpecConflict(t *testing.T) {
	sp := ListSpec{}
	ab := addAfter(model.Str("a"), model.Str("b"))
	cd := addAfter(model.Str("c"), model.Str("d"))
	ad := addAfter(model.Str("a"), model.Str("d"))
	bc := addAfter(model.Str("b"), model.Str("c"))
	if sp.Conflict(ab, cd) {
		t.Error("disjoint addAfters must not conflict")
	}
	if !sp.Conflict(ab, ad) || !sp.Conflict(ab, bc) {
		t.Error("overlapping addAfters must conflict")
	}
	rb := model.Op{Name: OpRemove, Arg: model.Str("b")}
	rz := model.Op{Name: OpRemove, Arg: model.Str("z")}
	if !sp.Conflict(ab, rb) || !sp.Conflict(rb, ab) {
		t.Error("addAfter ⊲⊳ remove of involved element")
	}
	if sp.Conflict(ab, rz) {
		t.Error("remove of uninvolved element must not conflict")
	}
	if sp.Conflict(rb, rz) {
		t.Error("removes must not conflict")
	}
}

func TestExecReturnsLastValue(t *testing.T) {
	sp := SetSpec{}
	ops := []model.Op{
		{Name: OpAdd, Arg: model.Str("a")},
		{Name: OpLookup, Arg: model.Str("a")},
	}
	final, ret := Exec(sp, model.List(), ops)
	if !ret.Equal(model.True) {
		t.Errorf("last return = %s", ret)
	}
	if !final.Equal(model.List(model.Str("a"))) {
		t.Errorf("final = %s", final)
	}
	if _, ret := Exec(sp, model.List(), nil); !ret.IsNil() {
		t.Error("empty exec should return nil")
	}
}

// TestNonCommCatchesMissingConflict is a negative control: a set spec with
// an empty conflict relation must fail Def 1.
func TestNonCommCatchesMissingConflict(t *testing.T) {
	u := SetUniverse(true)
	if err := CheckNonComm(noConflictSet{}, u.Ops, u.States); err == nil {
		t.Error("expected nonComm violation for set spec without conflicts")
	}
}

type noConflictSet struct{ SetSpec }

func (noConflictSet) Conflict(a, b model.Op) bool { return false }
