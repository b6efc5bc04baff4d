package crdt

import (
	"errors"
	"testing"

	"repro/internal/model"
)

// stubState and stubEff exercise the package helpers without a full CRDT.
type stubState struct{ n int }

func (s stubState) Key() string { return string(rune('0' + s.n)) }

func (s stubState) AppendBinary(b []byte) []byte { return append(b, s.Key()...) }

type stubEff struct{ d int }

func (e stubEff) Apply(s State) State { return stubState{n: s.(stubState).n + e.d} }
func (e stubEff) String() string      { return "Stub" }

func (e stubEff) AppendBinary(b []byte) []byte { return append(b, e.String()...) }

type stubObject struct{}

func (stubObject) Name() string        { return "stub" }
func (stubObject) Init() State         { return stubState{} }
func (stubObject) Ops() []model.OpName { return []model.OpName{"bump", "peek"} }

func (stubObject) Prepare(op model.Op, s State, origin model.NodeID, mid model.MsgID) (model.Value, Effector, error) {
	switch op.Name {
	case "bump":
		return model.Nil(), stubEff{d: 1}, nil
	case "peek":
		return model.Int(int64(s.(stubState).n)), IdEff{}, nil
	case "blocked":
		return model.Nil(), nil, ErrAssume
	default:
		return model.Nil(), nil, ErrUnknownOp
	}
}

func TestIdentityEffector(t *testing.T) {
	s := stubState{n: 3}
	if got := (IdEff{}).Apply(s); got.Key() != s.Key() {
		t.Error("IdEff changed the state")
	}
	if IdEff.String(IdEff{}) != "IdEff" {
		t.Error("IdEff rendering")
	}
	if !IsIdentity(IdEff{}) || IsIdentity(stubEff{}) {
		t.Error("IsIdentity misclassifies")
	}
}

func TestQueryHelper(t *testing.T) {
	o := stubObject{}
	isQ, err := Query(o, model.Op{Name: "peek"}, o.Init(), 0, 1)
	if err != nil || !isQ {
		t.Errorf("peek: %v %v", isQ, err)
	}
	isQ, err = Query(o, model.Op{Name: "bump"}, o.Init(), 0, 1)
	if err != nil || isQ {
		t.Errorf("bump: %v %v", isQ, err)
	}
	if _, err := Query(o, model.Op{Name: "nope"}, o.Init(), 0, 1); !errors.Is(err, ErrUnknownOp) {
		t.Errorf("unknown op: %v", err)
	}
}

func TestApplyAll(t *testing.T) {
	s := ApplyAll(stubState{}, []Effector{stubEff{d: 1}, stubEff{d: 2}, IdEff{}})
	if s.(stubState).n != 3 {
		t.Errorf("n = %d", s.(stubState).n)
	}
	if got := ApplyAll(stubState{n: 7}, nil); got.(stubState).n != 7 {
		t.Error("empty ApplyAll changed the state")
	}
}

// inPlaceEff counts the calls ApplyOwned routes to its in-place form.
type inPlaceEff struct {
	stubEff
	calls *int
}

func (e inPlaceEff) ApplyInPlace(s State) State {
	*e.calls++
	return e.stubEff.Apply(s)
}

func TestApplyOwned(t *testing.T) {
	calls := 0
	if got := ApplyOwned(inPlaceEff{stubEff{d: 2}, &calls}, stubState{n: 1}); got.(stubState).n != 3 || calls != 1 {
		t.Errorf("in-place effector: n = %d after %d in-place calls, want 3 after 1", got.(stubState).n, calls)
	}
	if got := ApplyOwned(stubEff{d: 2}, stubState{n: 1}); got.(stubState).n != 3 {
		t.Errorf("pure effector: n = %d, want 3", got.(stubState).n)
	}
}

func TestMustPrepare(t *testing.T) {
	o := stubObject{}
	ret, eff := MustPrepare(o, model.Op{Name: "peek"}, stubState{n: 5}, 0, 1)
	if !ret.Equal(model.Int(5)) || !IsIdentity(eff) {
		t.Errorf("ret = %s", ret)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustPrepare did not panic on error")
		}
	}()
	MustPrepare(o, model.Op{Name: "blocked"}, stubState{}, 0, 1)
}
