package twopset

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/crdt"
	"repro/internal/model"
	"repro/internal/spec"
)

func op(name model.OpName, e string) model.Op {
	return model.Op{Name: name, Arg: model.Str(e)}
}

func TestLifecycle(t *testing.T) {
	o := New()
	s := o.Init()
	_, eff, err := o.Prepare(op(spec.OpAdd, "x"), s, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s = eff.Apply(s)
	ret, _, _ := o.Prepare(op(spec.OpLookup, "x"), s, 0, 2)
	if !ret.Equal(model.True) {
		t.Error("x should be present")
	}
	_, eff, err = o.Prepare(op(spec.OpRemove, "x"), s, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	s = eff.Apply(s)
	ret, _, _ = o.Prepare(op(spec.OpLookup, "x"), s, 0, 4)
	if !ret.Equal(model.False) {
		t.Error("x should be absent after remove")
	}
	if !Abs(s).Equal(model.List()) {
		t.Errorf("Abs = %s", Abs(s))
	}
}

func TestAddRemoveOnceDiscipline(t *testing.T) {
	o := New()
	s := o.Init()
	_, eff, _ := o.Prepare(op(spec.OpAdd, "x"), s, 0, 1)
	s = eff.Apply(s)
	if _, _, err := o.Prepare(op(spec.OpAdd, "x"), s, 0, 2); !errors.Is(err, crdt.ErrAssume) {
		t.Error("double add must fail")
	}
	if _, _, err := o.Prepare(op(spec.OpRemove, "y"), s, 0, 3); !errors.Is(err, crdt.ErrAssume) {
		t.Error("removing an absent element must fail")
	}
	_, eff, _ = o.Prepare(op(spec.OpRemove, "x"), s, 0, 4)
	s = eff.Apply(s)
	if _, _, err := o.Prepare(op(spec.OpAdd, "x"), s, 0, 5); !errors.Is(err, crdt.ErrAssume) {
		t.Error("re-adding a removed element must fail")
	}
	if _, _, err := o.Prepare(op(spec.OpRemove, "x"), s, 0, 6); !errors.Is(err, crdt.ErrAssume) {
		t.Error("double remove must fail")
	}
}

// TestOutOfOrderDelivery shows the tombstone makes Add/Rmv commute: even if
// Rmv2(x) arrives before Add2(x), x ends up absent.
func TestOutOfOrderDelivery(t *testing.T) {
	o := New()
	s := o.Init()
	add := AddEff{E: model.Str("x")}
	rmv := RmvEff{E: model.Str("x")}
	s1 := rmv.Apply(add.Apply(s))
	s2 := add.Apply(rmv.Apply(s))
	if !bytes.Equal(s1.AppendBinary(nil), s2.AppendBinary(nil)) {
		t.Fatal("effectors do not commute")
	}
	if !Abs(s1).Equal(model.List()) {
		t.Errorf("x should be absent: %s", Abs(s1))
	}
}

func TestTSOrderAndView(t *testing.T) {
	add := AddEff{E: model.Str("x")}
	rmv := RmvEff{E: model.Str("x")}
	rmvY := RmvEff{E: model.Str("y")}
	if !TSOrder(add, rmv) || TSOrder(rmv, add) || TSOrder(add, rmvY) {
		t.Error("↣ must order Add2(x) before Rmv2(x) only")
	}
	o := New()
	s := add.Apply(o.Init())
	s = rmv.Apply(s)
	view := View(s)
	if len(view) != 2 {
		t.Fatalf("view = %v", view)
	}
}
