// Package lwwreg implements the last-writer-wins register (Sec 1, Sec 8):
// concurrent writes are resolved by a global total order on timestamps — the
// write with the larger timestamp wins. Timestamps are the (counter, node)
// stamps of Sec 2.1; each replica remembers the largest stamp it has seen and
// each write is stamped strictly above it.
package lwwreg

import (
	"fmt"

	"repro/internal/crdt"
	"repro/internal/model"
	"repro/internal/spec"
)

// State is the replica state: the current value and the stamp of the write
// that produced it (the zero stamp for the initial state), which is also the
// largest stamp the replica has observed.
type State struct {
	Cur model.Value
	TS  model.Stamp
}

// WrEff is the effector of write(v) with stamp I: install v if I is newer
// than the replica's current stamp.
type WrEff struct {
	V model.Value
	I model.Stamp
}

// Apply implements crdt.Effector.
func (d WrEff) Apply(s crdt.State) crdt.State {
	st := s.(State)
	if st.TS.Less(d.I) {
		return State{Cur: d.V, TS: d.I}
	}
	return st
}

// String implements crdt.Effector.
func (d WrEff) String() string { return fmt.Sprintf("Wr(%s,%s)", d.V, d.I) }

// Object is the LWW register implementation Π.
type Object struct{}

// New returns the LWW register object.
func New() Object { return Object{} }

// Name implements crdt.Object.
func (Object) Name() string { return "lww-register" }

// Init implements crdt.Object.
func (Object) Init() crdt.State { return State{Cur: model.Nil()} }

// Ops implements crdt.Object.
func (Object) Ops() []model.OpName { return []model.OpName{spec.OpWrite, spec.OpRead} }

// Prepare implements crdt.Object.
func (Object) Prepare(op model.Op, s crdt.State, origin model.NodeID, mid model.MsgID) (model.Value, crdt.Effector, error) {
	st := s.(State)
	switch op.Name {
	case spec.OpWrite:
		return model.Nil(), WrEff{V: op.Arg, I: st.TS.Next(origin)}, nil
	case spec.OpRead:
		return st.Cur, crdt.IdEff{}, nil
	default:
		return model.Nil(), nil, crdt.ErrUnknownOp
	}
}

// Abs is the abstraction function φ: the stored value (timestamps are hidden).
func Abs(s crdt.State) model.Value { return s.(State).Cur }

// Spec returns the abstract register specification.
func Spec() spec.Spec { return spec.RegisterSpec{} }

// TSOrder is the timestamp order ↣ of the proof method: writes are ordered
// by their stamps — the larger stamp wins.
func TSOrder(d1, d2 crdt.Effector) bool {
	w1, ok1 := d1.(WrEff)
	w2, ok2 := d2.(WrEff)
	return ok1 && ok2 && w1.I.Less(w2.I)
}

// View is the view function V of the proof method: the winning write
// recorded in the state (nothing for the initial state).
func View(s crdt.State) []crdt.Effector {
	st := s.(State)
	if (st.TS == model.Stamp{}) {
		return nil
	}
	return []crdt.Effector{WrEff{V: st.Cur, I: st.TS}}
}
