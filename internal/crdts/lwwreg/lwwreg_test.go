package lwwreg

import (
	"bytes"
	"testing"

	"repro/internal/model"
	"repro/internal/spec"
)

func write(v model.Value) model.Op { return model.Op{Name: spec.OpWrite, Arg: v} }

func TestLastWriterWins(t *testing.T) {
	o := New()
	s1 := o.Init() // replica of node 1
	s2 := o.Init() // replica of node 2
	// Concurrent writes from both nodes.
	_, e1, err := o.Prepare(write(model.Int(10)), s1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, e2, err := o.Prepare(write(model.Int(20)), s2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Both stamps have counter 1; node 2 breaks the tie.
	s1 = e1.Apply(s1)
	s2 = e2.Apply(s2)
	s1 = e2.Apply(s1)
	s2 = e1.Apply(s2)
	if !Abs(s1).Equal(model.Int(20)) || !Abs(s2).Equal(model.Int(20)) {
		t.Fatalf("states diverge or wrong winner: %s / %s", Abs(s1), Abs(s2))
	}
}

func TestSequentialWritesGrowStamps(t *testing.T) {
	o := New()
	s := o.Init()
	_, e1, _ := o.Prepare(write(model.Str("x")), s, 0, 1)
	s = e1.Apply(s)
	_, e2, _ := o.Prepare(write(model.Str("y")), s, 0, 2)
	s = e2.Apply(s)
	if !e1.(WrEff).I.Less(e2.(WrEff).I) {
		t.Error("second write must have a larger stamp")
	}
	ret, _, _ := o.Prepare(model.Op{Name: spec.OpRead}, s, 0, 3)
	if !ret.Equal(model.Str("y")) {
		t.Errorf("read = %s", ret)
	}
}

func TestEffectorsCommute(t *testing.T) {
	o := New()
	s := o.Init()
	e1 := WrEff{V: model.Int(1), I: model.Stamp{N: 3, Node: 1}}
	e2 := WrEff{V: model.Int(2), I: model.Stamp{N: 3, Node: 2}}
	a := e2.Apply(e1.Apply(s))
	b := e1.Apply(e2.Apply(s))
	if !bytes.Equal(a.AppendBinary(nil), b.AppendBinary(nil)) {
		t.Fatalf("writes do not commute: %v vs %v", a, b)
	}
}

func TestTSOrderAndView(t *testing.T) {
	e1 := WrEff{V: model.Int(1), I: model.Stamp{N: 1, Node: 1}}
	e2 := WrEff{V: model.Int(2), I: model.Stamp{N: 2, Node: 1}}
	if !TSOrder(e1, e2) || TSOrder(e2, e1) {
		t.Error("↣ must follow stamps")
	}
	o := New()
	if View(o.Init()) != nil {
		t.Error("initial view must be empty")
	}
	s := e2.Apply(o.Init())
	view := View(s)
	if len(view) != 1 || view[0].String() != e2.String() {
		t.Errorf("view = %v", view)
	}
}
