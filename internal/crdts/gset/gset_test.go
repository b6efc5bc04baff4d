package gset

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/crdt"
	"repro/internal/model"
	"repro/internal/spec"
)

func TestAddLookupRead(t *testing.T) {
	o := New()
	s := o.Init()
	_, eff, err := o.Prepare(model.Op{Name: spec.OpAdd, Arg: model.Str("b")}, s, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s = eff.Apply(s)
	_, eff, _ = o.Prepare(model.Op{Name: spec.OpAdd, Arg: model.Str("a")}, s, 0, 2)
	s = eff.Apply(s)
	ret, _, _ := o.Prepare(model.Op{Name: spec.OpLookup, Arg: model.Str("a")}, s, 0, 3)
	if !ret.Equal(model.True) {
		t.Error("lookup(a) should be true")
	}
	ret, _, _ = o.Prepare(model.Op{Name: spec.OpLookup, Arg: model.Str("z")}, s, 0, 4)
	if !ret.Equal(model.False) {
		t.Error("lookup(z) should be false")
	}
	ret, _, _ = o.Prepare(model.Op{Name: spec.OpRead}, s, 0, 5)
	want := model.List(model.Str("a"), model.Str("b"))
	if !ret.Equal(want) || !Abs(s).Equal(want) {
		t.Errorf("read = %s, Abs = %s, want %s", ret, Abs(s), want)
	}
}

// TestAddsCommuteAndIdempotent property-checks commutativity and idempotence
// of add effectors.
func TestAddsCommuteAndIdempotent(t *testing.T) {
	f := func(a, b int8) bool {
		s := crdt.State(State{Elems: model.NewValueSet()})
		d1, d2 := AddEff{E: model.Int(int64(a))}, AddEff{E: model.Int(int64(b))}
		if !bytes.Equal(d2.Apply(d1.Apply(s)).AppendBinary(nil), d1.Apply(d2.Apply(s)).AppendBinary(nil)) {
			return false
		}
		return bytes.Equal(d1.Apply(d1.Apply(s)).AppendBinary(nil), d1.Apply(s).AppendBinary(nil))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestApplyDoesNotMutate(t *testing.T) {
	s := State{Elems: model.NewValueSet()}
	s2 := AddEff{E: model.Str("x")}.Apply(s)
	if s.Elems.Has(model.Str("x")) {
		t.Error("Apply mutated its argument")
	}
	if !s2.(State).Elems.Has(model.Str("x")) {
		t.Error("Apply lost the element")
	}
}

func TestObjectMetadata(t *testing.T) {
	o := New()
	if o.Name() != "g-set" || len(o.Ops()) != 3 {
		t.Errorf("metadata: %s %v", o.Name(), o.Ops())
	}
	if _, _, err := o.Prepare(model.Op{Name: "mystery"}, o.Init(), 0, 1); err == nil {
		t.Error("unknown op accepted")
	}
	if TSOrder(AddEff{E: model.Str("a")}, AddEff{E: model.Str("b")}) {
		t.Error("g-set ↣ must be empty")
	}
	if View(o.Init()) != nil {
		t.Error("g-set V must be empty")
	}
	s := AddEff{E: model.Str("a")}.Apply(o.Init())
	if bytes.Equal(s.AppendBinary(nil), o.Init().AppendBinary(nil)) {
		t.Error("the encoding must distinguish states")
	}
}
