// Package twopset implements the two-phase set (2P-set), one of the seven
// UCR-CRDT algorithms verified in Sec 8. The replica keeps an add-set A and
// a tombstone set R; an element is present iff it is in A and not in R. Once
// removed, an element can never be re-added, so the algorithm is only exposed
// to clients under the paper's standing assumption that each element is added
// at most once and removed at most once (Sec 2.1); the operations enforce
// this with `assume` preconditions, like RGA does.
//
// Its specification is the plain set specification: the 2P-set and the
// LWW-element set refine the same (Γ, ⊲⊳), one of the paper's headline
// observations.
package twopset

import (
	"fmt"

	"repro/internal/crdt"
	"repro/internal/model"
	"repro/internal/spec"
)

// State is the replica state: the added elements A and the tombstones R.
type State struct {
	A *model.ValueSet
	R *model.ValueSet
}

func (s State) has(e model.Value) bool { return s.A.Has(e) && !s.R.Has(e) }

// AddEff is the effector of add(e): A := A ∪ {e}.
type AddEff struct {
	E model.Value
}

// Apply implements crdt.Effector: a copy of both sets, so the result shares
// nothing with s (see crdt.State).
func (d AddEff) Apply(s crdt.State) crdt.State {
	st := s.(State)
	return d.ApplyInPlace(State{A: st.A.Clone(), R: st.R.Clone()})
}

// ApplyInPlace implements crdt.InPlace.
func (d AddEff) ApplyInPlace(s crdt.State) crdt.State {
	s.(State).A.Add(d.E)
	return s
}

// String implements crdt.Effector.
func (d AddEff) String() string { return fmt.Sprintf("Add2(%s)", d.E) }

// RmvEff is the effector of remove(e): R := R ∪ {e}.
type RmvEff struct {
	E model.Value
}

// Apply implements crdt.Effector: a copy of both sets, so the result shares
// nothing with s (see crdt.State).
func (d RmvEff) Apply(s crdt.State) crdt.State {
	st := s.(State)
	return d.ApplyInPlace(State{A: st.A.Clone(), R: st.R.Clone()})
}

// ApplyInPlace implements crdt.InPlace.
func (d RmvEff) ApplyInPlace(s crdt.State) crdt.State {
	s.(State).R.Add(d.E)
	return s
}

// String implements crdt.Effector.
func (d RmvEff) String() string { return fmt.Sprintf("Rmv2(%s)", d.E) }

// Object is the 2P-set implementation Π.
type Object struct{}

// New returns the 2P-set object.
func New() Object { return Object{} }

// Init implements crdt.Object.
func (Object) Init() crdt.State {
	return State{A: model.NewValueSet(), R: model.NewValueSet()}
}

// Prepare implements crdt.Object.
func (Object) Prepare(op model.Op, s crdt.State, origin model.NodeID, mid model.MsgID) (model.Value, crdt.Effector, error) {
	st := s.(State)
	switch op.Name {
	case spec.OpAdd:
		// assume: e has never been added or removed here.
		if st.A.Has(op.Arg) || st.R.Has(op.Arg) {
			return model.Nil(), nil, crdt.ErrAssume
		}
		return model.Nil(), AddEff{E: op.Arg}, nil
	case spec.OpRemove:
		// assume: e is present and not yet removed.
		if !st.has(op.Arg) {
			return model.Nil(), nil, crdt.ErrAssume
		}
		return model.Nil(), RmvEff{E: op.Arg}, nil
	case spec.OpLookup:
		return model.Bool(st.has(op.Arg)), crdt.IdEff{}, nil
	case spec.OpRead:
		return Abs(st), crdt.IdEff{}, nil
	default:
		return model.Nil(), nil, crdt.ErrUnknownOp
	}
}

// Abs is the abstraction function φ: the sorted list of present elements.
func Abs(s crdt.State) model.Value {
	st := s.(State)
	var out []model.Value
	for _, e := range st.A.Elems() {
		if !st.R.Has(e) {
			out = append(out, e)
		}
	}
	return model.List(out...)
}

// Spec returns the abstract set specification.
func Spec() spec.Spec { return spec.SetSpec{} }

// TSOrder is the timestamp order ↣ of the proof method: an add is resolved
// before the conflicting remove of the same element (the remove wins once
// both are applied, matching A \ R).
func TSOrder(d1, d2 crdt.Effector) bool {
	a, ok1 := d1.(AddEff)
	r, ok2 := d2.(RmvEff)
	return ok1 && ok2 && a.E.Equal(r.E)
}

// View is the view function V of the proof method: the adds recorded in A
// and the removes recorded in R.
func View(s crdt.State) []crdt.Effector {
	st := s.(State)
	var out []crdt.Effector
	for _, e := range st.A.Elems() {
		out = append(out, AddEff{E: e})
	}
	for _, e := range st.R.Elems() {
		out = append(out, RmvEff{E: e})
	}
	return out
}
