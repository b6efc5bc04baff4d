package maxreg

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/crdt"
	"repro/internal/model"
	"repro/internal/spec"
)

func TestWriteAndRead(t *testing.T) {
	o := New()
	s := o.Init()
	for _, n := range []int64{3, 7, 5} {
		_, eff, err := o.Prepare(model.Op{Name: spec.OpWrite, Arg: model.Int(n)}, s, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		s = eff.Apply(s)
	}
	ret, eff, err := o.Prepare(model.Op{Name: spec.OpRead}, s, 0, 2)
	if err != nil || !crdt.IsIdentity(eff) {
		t.Fatalf("read: %v %v", err, eff)
	}
	if !ret.Equal(model.Int(7)) {
		t.Fatalf("read = %s, want 7", ret)
	}
	if !Abs(s).Equal(model.Int(7)) {
		t.Fatalf("Abs = %s", Abs(s))
	}
}

func TestPreconditions(t *testing.T) {
	o := New()
	if _, _, err := o.Prepare(model.Op{Name: spec.OpWrite, Arg: model.Int(-1)}, o.Init(), 0, 1); !errors.Is(err, crdt.ErrAssume) {
		t.Errorf("negative write: %v", err)
	}
	if _, _, err := o.Prepare(model.Op{Name: spec.OpWrite, Arg: model.Str("x")}, o.Init(), 0, 1); !errors.Is(err, crdt.ErrAssume) {
		t.Errorf("non-integer write: %v", err)
	}
	if _, _, err := o.Prepare(model.Op{Name: "pop"}, o.Init(), 0, 1); !errors.Is(err, crdt.ErrUnknownOp) {
		t.Errorf("unknown op: %v", err)
	}
}

// TestEffectorsCommuteAndIdempotent property-checks the join laws of the
// max effector, which are what make ⊲⊳ = ∅ valid (Def 1).
func TestEffectorsCommuteAndIdempotent(t *testing.T) {
	f := func(a, b uint8, start uint8) bool {
		s := crdt.State(State{V: int64(start)})
		d1, d2 := WriteEff{N: int64(a)}, WriteEff{N: int64(b)}
		if !bytes.Equal(d2.Apply(d1.Apply(s)).AppendBinary(nil), d1.Apply(d2.Apply(s)).AppendBinary(nil)) {
			return false
		}
		return bytes.Equal(d1.Apply(d1.Apply(s)).AppendBinary(nil), d1.Apply(s).AppendBinary(nil))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpecMatchesImplementation(t *testing.T) {
	sp := Spec{}
	if sp.Name() != "max-register" || len(sp.Ops()) != 2 {
		t.Error("spec metadata")
	}
	s := sp.Init()
	_, s = sp.Apply(model.Op{Name: spec.OpWrite, Arg: model.Int(9)}, s)
	_, s = sp.Apply(model.Op{Name: spec.OpWrite, Arg: model.Int(4)}, s)
	ret, _ := sp.Apply(model.Op{Name: spec.OpRead}, s)
	if !ret.Equal(model.Int(9)) {
		t.Fatalf("spec read = %s", ret)
	}
	if _, out := sp.Apply(model.Op{Name: "nope"}, s); !out.Equal(s) {
		t.Error("unknown op must be a no-op")
	}
	if sp.Conflict(model.Op{Name: spec.OpWrite, Arg: model.Int(1)}, model.Op{Name: spec.OpWrite, Arg: model.Int(2)}) {
		t.Error("⊲⊳ must be empty")
	}
	if TSOrder(WriteEff{N: 1}, WriteEff{N: 2}) || View(State{V: 3}) != nil {
		t.Error("↣ and V must be empty")
	}
}
