package counter

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/crdt"
	"repro/internal/model"
	"repro/internal/spec"
)

func TestIncDecRead(t *testing.T) {
	o := New()
	s := o.Init()
	_, eff, err := o.Prepare(model.Op{Name: spec.OpInc, Arg: model.Int(5)}, s, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s = eff.Apply(s)
	_, eff, _ = o.Prepare(model.Op{Name: spec.OpDec, Arg: model.Int(2)}, s, 0, 2)
	s = eff.Apply(s)
	_, eff, _ = o.Prepare(model.Op{Name: spec.OpInc}, s, 0, 3) // default 1
	s = eff.Apply(s)
	ret, eff, _ := o.Prepare(model.Op{Name: spec.OpRead}, s, 0, 4)
	if !ret.Equal(model.Int(4)) {
		t.Fatalf("read = %s, want 4", ret)
	}
	if !crdt.IsIdentity(eff) {
		t.Error("read must produce the identity effector")
	}
	if !Abs(s).Equal(model.Int(4)) {
		t.Errorf("Abs = %s", Abs(s))
	}
}

func TestUnknownOp(t *testing.T) {
	if _, _, err := New().Prepare(model.Op{Name: "pop"}, New().Init(), 0, 1); !errors.Is(err, crdt.ErrUnknownOp) {
		t.Errorf("err = %v", err)
	}
}

// TestAddEffectorsCommute property-checks that any two counter effectors
// commute from any state (the commutativity obligation of Sec 8 holds
// unconditionally here).
func TestAddEffectorsCommute(t *testing.T) {
	f := func(a, b, start int64) bool {
		s := crdt.State(State{V: start})
		d1, d2 := AddEff{N: a}, AddEff{N: b}
		return bytes.Equal(d2.Apply(d1.Apply(s)).AppendBinary(nil), d1.Apply(d2.Apply(s)).AppendBinary(nil))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProofMethodParamsEmpty(t *testing.T) {
	if TSOrder(AddEff{N: 1}, AddEff{N: 2}) {
		t.Error("counter ↣ must be empty")
	}
	if View(State{V: 3}) != nil {
		t.Error("counter V must be λS.∅")
	}
}
