package crdt

import (
	"bytes"
	"testing"
)

// stubState and stubEff exercise the package helpers without a full CRDT.
type stubState struct{ n int }

func (s stubState) AppendBinary(b []byte) []byte { return append(b, byte(s.n)) }

type stubEff struct{ d int }

func (e stubEff) Apply(s State) State { return stubState{n: s.(stubState).n + e.d} }
func (e stubEff) String() string      { return "Stub" }

func (e stubEff) AppendBinary(b []byte) []byte { return append(b, e.String()...) }

func TestIdentityEffector(t *testing.T) {
	s := stubState{n: 3}
	if got := (IdEff{}).Apply(s); !bytes.Equal(got.AppendBinary(nil), s.AppendBinary(nil)) {
		t.Error("IdEff changed the state")
	}
	if IdEff.String(IdEff{}) != "IdEff" {
		t.Error("IdEff rendering")
	}
	if !IsIdentity(IdEff{}) || IsIdentity(stubEff{}) {
		t.Error("IsIdentity misclassifies")
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
