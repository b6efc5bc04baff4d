// Package rwset implements the remove-wins set, the dual of the add-wins set
// (Sec 2.4, Sec 9). Every remove(e) creates a tagged removal instance that
// suppresses e; an add(e) collects the removal instances of e visible at its
// origin and its effector cancels exactly those, while recording a tagged add
// instance. An element is present iff it has at least one add instance and no
// uncancelled removal instance — so a removal concurrent with an add (which
// therefore could not cancel it) makes the element absent: the remove wins.
//
// All effector updates are monotone set unions, so effectors commute even
// under out-of-order delivery; like the add-wins set the algorithm assumes
// causal delivery (Sec 2.4) and is verified against XACC.
package rwset

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/crdt"
	"repro/internal/crdts/tagged"
	"repro/internal/model"
	"repro/internal/spec"
)

// Tag uniquely identifies one add or removal instance.
type Tag = tagged.Tag

// inst is a tagged instance of an element.
type inst = tagged.Inst

// State is the replica state: add instances, removal instances, and the keys
// of removal instances that have been cancelled by later adds.
type State struct {
	Adds      map[string]inst
	Rmvs      map[string]inst
	Cancelled map[string]bool // keys of cancelled removal instances
}

func (s State) clone() State {
	a := make(map[string]inst, len(s.Adds))
	r := make(map[string]inst, len(s.Rmvs))
	c := make(map[string]bool, len(s.Cancelled))
	for k, v := range s.Adds {
		a[k] = v
	}
	for k, v := range s.Rmvs {
		r[k] = v
	}
	for k := range s.Cancelled {
		c[k] = true
	}
	return State{Adds: a, Rmvs: r, Cancelled: c}
}

// liveRmvs returns the uncancelled removal instances of e, sorted.
func (s State) liveRmvs(e model.Value) []inst {
	var out []inst
	for k, in := range s.Rmvs {
		if !s.Cancelled[k] && in.E.Equal(e) {
			out = append(out, in)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

func (s State) hasAdd(e model.Value) bool {
	for _, in := range s.Adds {
		if in.E.Equal(e) {
			return true
		}
	}
	return false
}

func (s State) has(e model.Value) bool {
	return s.hasAdd(e) && len(s.liveRmvs(e)) == 0
}

// AddEff is the effector of add(e): record the tagged add instance and
// cancel exactly the removal instances visible at the origin.
type AddEff struct {
	E       model.Value
	T       Tag
	Cancels []inst
}

// Apply implements crdt.Effector.
func (d AddEff) Apply(s crdt.State) crdt.State { return d.ApplyInPlace(s.(State).clone()) }

// ApplyInPlace implements crdt.InPlace.
func (d AddEff) ApplyInPlace(s crdt.State) crdt.State {
	st := s.(State)
	in := inst{E: d.E, T: d.T}
	st.Adds[in.Key()] = in
	for _, r := range d.Cancels {
		st.Cancelled[r.Key()] = true
	}
	return st
}

// String implements crdt.Effector.
func (d AddEff) String() string {
	parts := make([]string, len(d.Cancels))
	for i, r := range d.Cancels {
		parts[i] = r.Key()
	}
	return fmt.Sprintf("AddR(%s,%s,cancel{%s})", d.E, d.T, strings.Join(parts, " "))
}

// RmvEff is the effector of remove(e): record the tagged removal instance.
type RmvEff struct {
	E model.Value
	T Tag
}

// Apply implements crdt.Effector.
func (d RmvEff) Apply(s crdt.State) crdt.State { return d.ApplyInPlace(s.(State).clone()) }

// ApplyInPlace implements crdt.InPlace.
func (d RmvEff) ApplyInPlace(s crdt.State) crdt.State {
	st := s.(State)
	in := inst{E: d.E, T: d.T}
	st.Rmvs[in.Key()] = in
	return st
}

// String implements crdt.Effector.
func (d RmvEff) String() string { return fmt.Sprintf("RmvR(%s,%s)", d.E, d.T) }

// Object is the remove-wins set implementation Π.
type Object struct{}

// New returns the remove-wins set object.
func New() Object { return Object{} }

// Init implements crdt.Object.
func (Object) Init() crdt.State {
	return State{Adds: map[string]inst{}, Rmvs: map[string]inst{}, Cancelled: map[string]bool{}}
}

// Prepare implements crdt.Object.
func (Object) Prepare(op model.Op, s crdt.State, origin model.NodeID, mid model.MsgID) (model.Value, crdt.Effector, error) {
	st := s.(State)
	switch op.Name {
	case spec.OpAdd:
		e := op.Arg
		return model.Nil(), AddEff{E: e, T: Tag{Node: origin, Seq: int64(mid)}, Cancels: st.liveRmvs(e)}, nil
	case spec.OpRemove:
		return model.Nil(), RmvEff{E: op.Arg, T: Tag{Node: origin, Seq: int64(mid)}}, nil
	case spec.OpLookup:
		return model.Bool(st.has(op.Arg)), crdt.IdEff{}, nil
	case spec.OpRead:
		return Abs(st), crdt.IdEff{}, nil
	default:
		return model.Nil(), nil, crdt.ErrUnknownOp
	}
}

// Abs is the abstraction function φ: the sorted distinct present elements.
func Abs(s crdt.State) model.Value {
	st := s.(State)
	set := model.NewValueSet()
	for _, in := range st.Adds {
		if st.has(in.E) {
			set.Add(in.E)
		}
	}
	return model.List(set.Elems()...)
}

// Spec returns the extended specification (Γ, ⊲⊳, ◀, ▷) with the remove-wins
// strategy: add(e) ◀ remove(e), remove(e) ▷ add(e).
func Spec() spec.XSpec { return spec.RWSetSpec{} }
