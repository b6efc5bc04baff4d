// Package gset implements the grow-only set, one of the seven UCR-CRDT
// algorithms verified in Sec 8 of the paper. Elements can only be added;
// adds are idempotent set unions and commute, so the conflict relation of
// its specification is empty and the proof method instantiates ↣ = ∅ and
// V = λS.∅.
package gset

import (
	"fmt"

	"repro/internal/crdt"
	"repro/internal/model"
	"repro/internal/spec"
)

// State is the replica state: the set of elements added so far.
type State struct {
	Elems *model.ValueSet
}

// AddEff is the effector of add(e): E := E ∪ {e}.
type AddEff struct {
	E model.Value
}

// Apply implements crdt.Effector.
func (d AddEff) Apply(s crdt.State) crdt.State {
	return d.ApplyInPlace(State{Elems: s.(State).Elems.Clone()})
}

// ApplyInPlace implements crdt.InPlace.
func (d AddEff) ApplyInPlace(s crdt.State) crdt.State {
	s.(State).Elems.Add(d.E)
	return s
}

// String implements crdt.Effector.
func (d AddEff) String() string { return fmt.Sprintf("Add(%s)", d.E) }

// Object is the grow-only set implementation Π.
type Object struct{}

// New returns the grow-only set object.
func New() Object { return Object{} }

// Name implements crdt.Object.
func (Object) Name() string { return "g-set" }

// Init implements crdt.Object.
func (Object) Init() crdt.State { return State{Elems: model.NewValueSet()} }

// Ops implements crdt.Object.
func (Object) Ops() []model.OpName {
	return []model.OpName{spec.OpAdd, spec.OpLookup, spec.OpRead}
}

// Prepare implements crdt.Object.
func (Object) Prepare(op model.Op, s crdt.State, origin model.NodeID, mid model.MsgID) (model.Value, crdt.Effector, error) {
	st := s.(State)
	switch op.Name {
	case spec.OpAdd:
		return model.Nil(), AddEff{E: op.Arg}, nil
	case spec.OpLookup:
		return model.Bool(st.Elems.Has(op.Arg)), crdt.IdEff{}, nil
	case spec.OpRead:
		return model.List(st.Elems.Elems()...), crdt.IdEff{}, nil
	default:
		return model.Nil(), nil, crdt.ErrUnknownOp
	}
}

// Abs is the abstraction function φ: the sorted element list.
func Abs(s crdt.State) model.Value {
	return model.List(s.(State).Elems.Elems()...)
}

// Spec returns the abstract specification the grow-only set refines.
func Spec() spec.Spec { return spec.GSetSpec{} }

// TSOrder is the timestamp order ↣ of the proof method: empty.
func TSOrder(d1, d2 crdt.Effector) bool { return false }

// View is the view function V of the proof method: λS.∅.
func View(s crdt.State) []crdt.Effector { return nil }
