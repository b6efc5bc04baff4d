// Package lwwset implements the last-writer-wins element set (LWW-element
// set), one of the seven UCR-CRDT algorithms verified in Sec 8. Every add and
// remove is stamped; for each element only the operation with the largest
// stamp counts, so conflicts between concurrent add(e) and remove(e) are
// resolved uniformly by the global stamp order. It refines the same set
// specification as the 2P-set.
package lwwset

import (
	"fmt"
	"maps"
	"sort"

	"repro/internal/crdt"
	"repro/internal/model"
	"repro/internal/spec"
)

// entry is the latest stamped operation recorded for one element.
type entry struct {
	E       model.Value
	TS      model.Stamp
	Present bool // true if the latest operation was an add
}

// State is the replica state: for each element, the winning (latest-stamped)
// add/remove, plus the largest stamp observed (used to stamp new operations).
type State struct {
	Entries map[string]entry // keyed by element rendering
	TS      model.Stamp
}

func (s State) clone() State { return State{Entries: maps.Clone(s.Entries), TS: s.TS} }

func (s State) has(e model.Value) bool {
	en, ok := s.Entries[e.String()]
	return ok && en.Present
}

// OpEff is the effector of a stamped add (Present) or remove (!Present) of
// element E: it wins iff its stamp exceeds the element's current entry.
type OpEff struct {
	E       model.Value
	I       model.Stamp
	Present bool
}

// Apply implements crdt.Effector.
func (d OpEff) Apply(s crdt.State) crdt.State { return d.ApplyInPlace(s.(State).clone()) }

// ApplyInPlace implements crdt.InPlace.
func (d OpEff) ApplyInPlace(s crdt.State) crdt.State {
	st := s.(State)
	k := d.E.String()
	if cur, ok := st.Entries[k]; !ok || cur.TS.Less(d.I) {
		st.Entries[k] = entry{E: d.E, TS: d.I, Present: d.Present}
	}
	st.TS = st.TS.Max(d.I)
	return st
}

// String implements crdt.Effector.
func (d OpEff) String() string {
	if d.Present {
		return fmt.Sprintf("AddL(%s,%s)", d.E, d.I)
	}
	return fmt.Sprintf("RmvL(%s,%s)", d.E, d.I)
}

// Object is the LWW-element set implementation Π.
type Object struct{}

// New returns the LWW-element set object.
func New() Object { return Object{} }

// Init implements crdt.Object.
func (Object) Init() crdt.State {
	return State{Entries: map[string]entry{}}
}

// Prepare implements crdt.Object.
func (Object) Prepare(op model.Op, s crdt.State, origin model.NodeID, mid model.MsgID) (model.Value, crdt.Effector, error) {
	st := s.(State)
	switch op.Name {
	case spec.OpAdd:
		return model.Nil(), OpEff{E: op.Arg, I: st.TS.Next(origin), Present: true}, nil
	case spec.OpRemove:
		return model.Nil(), OpEff{E: op.Arg, I: st.TS.Next(origin), Present: false}, nil
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
	for _, en := range st.Entries {
		if en.Present {
			out = append(out, en.E)
		}
	}
	model.SortValues(out)
	return model.List(out...)
}

// Spec returns the abstract set specification.
func Spec() spec.Spec { return spec.SetSpec{} }

// TSOrder is the timestamp order ↣ of the proof method: operations on the
// same element are ordered by stamp — the larger stamp wins.
func TSOrder(d1, d2 crdt.Effector) bool {
	a, ok1 := d1.(OpEff)
	b, ok2 := d2.(OpEff)
	return ok1 && ok2 && a.E.Equal(b.E) && a.I.Less(b.I)
}

// View is the view function V of the proof method: the winning stamped
// operation per element, as recorded in the state.
func View(s crdt.State) []crdt.Effector {
	st := s.(State)
	keys := make([]string, 0, len(st.Entries))
	for k := range st.Entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]crdt.Effector, 0, len(keys))
	for _, k := range keys {
		en := st.Entries[k]
		out = append(out, OpEff{E: en.E, I: en.TS, Present: en.Present})
	}
	return out
}
