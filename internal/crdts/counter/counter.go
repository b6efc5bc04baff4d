// Package counter implements the replicated (op-based) counter of Shapiro et
// al., one of the seven UCR-CRDT algorithms verified in Sec 8 of the paper.
// It supports both increment and decrement. All effectors are additions of
// (possibly negative) integers and therefore commute, so the conflict
// relation of its specification is empty; the proof method instantiates
// ↣ = ∅ and V = λS.∅ (Sec 8, Examples).
package counter

import (
	"fmt"

	"repro/internal/crdt"
	"repro/internal/model"
	"repro/internal/spec"
)

// State is the replica state: the current counter value.
type State struct {
	V int64
}

// AddEff is the effector of inc/dec: add N (negative for dec).
type AddEff struct {
	N int64
}

// Apply implements crdt.Effector.
func (d AddEff) Apply(s crdt.State) crdt.State {
	st := s.(State)
	return State{V: st.V + d.N}
}

// String implements crdt.Effector.
func (d AddEff) String() string { return fmt.Sprintf("Add(%d)", d.N) }

// Object is the counter implementation Π.
type Object struct{}

// New returns the counter object.
func New() Object { return Object{} }

// Init implements crdt.Object.
func (Object) Init() crdt.State { return State{} }

// Prepare implements crdt.Object.
func (Object) Prepare(op model.Op, s crdt.State, origin model.NodeID, mid model.MsgID) (model.Value, crdt.Effector, error) {
	st := s.(State)
	delta := int64(1)
	if n, ok := op.Arg.AsInt(); ok {
		delta = n
	}
	switch op.Name {
	case spec.OpInc:
		return model.Nil(), AddEff{N: delta}, nil
	case spec.OpDec:
		return model.Nil(), AddEff{N: -delta}, nil
	case spec.OpRead:
		return model.Int(st.V), crdt.IdEff{}, nil
	default:
		return model.Nil(), nil, crdt.ErrUnknownOp
	}
}

// Abs is the abstraction function φ: the counter value as an integer.
func Abs(s crdt.State) model.Value { return model.Int(s.(State).V) }

// Spec returns the abstract specification the counter refines.
func Spec() spec.Spec { return spec.CounterSpec{} }

// TSOrder is the timestamp order ↣ of the proof method: empty, since the
// counter's conflict relation is empty (Sec 8, Examples).
func TSOrder(d1, d2 crdt.Effector) bool { return false }

// View is the view function V of the proof method: λS.∅.
func View(s crdt.State) []crdt.Effector { return nil }
