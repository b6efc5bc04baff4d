// Package awset implements the add-wins (observed-remove) set of Sec 2.4 and
// Sec 9. Every add(e) creates an instance of e with a fresh unique tag; a
// remove(e) collects the instance tags of e visible in the local replica and
// its effector deletes exactly those instances on every node. An instance
// created concurrently with the remove is not in the collected set and
// survives — the add wins.
//
// Deleted instances are tracked in a tombstone set rather than being erased,
// so all effectors commute even under out-of-order delivery; the algorithm
// nevertheless assumes causal delivery (Sec 2.4), and it is verified against
// XACC, not plain ACC.
package awset

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/crdt"
	"repro/internal/crdts/tagged"
	"repro/internal/model"
	"repro/internal/spec"
)

// Tag uniquely identifies one add instance: the origin node plus the unique
// request ID of the add.
type Tag = tagged.Tag

// inst is one tagged instance of an element.
type inst = tagged.Inst

// State is the replica state: all add instances ever seen and the tombstoned
// (deleted) instances. An instance is live iff added and not tombstoned.
type State struct {
	Adds map[string]inst // every instance ever added, keyed by inst.Key
	Dead map[string]bool // tombstoned instance keys
}

func (s State) clone() State {
	a := make(map[string]inst, len(s.Adds))
	d := make(map[string]bool, len(s.Dead))
	for k, v := range s.Adds {
		a[k] = v
	}
	for k := range s.Dead {
		d[k] = true
	}
	return State{Adds: a, Dead: d}
}

// liveInsts returns the live instances of element e (all live instances when
// e is nil), sorted by tag for determinism.
func (s State) liveInsts(e *model.Value) []inst {
	var out []inst
	for k, in := range s.Adds {
		if s.Dead[k] {
			continue
		}
		if e != nil && !in.E.Equal(*e) {
			continue
		}
		out = append(out, in)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].E.Equal(out[j].E) {
			return out[i].E.Less(out[j].E)
		}
		return out[i].T.Less(out[j].T)
	})
	return out
}

// AddEff is the effector Add(e, tag) of Fig 5: record the tagged instance.
type AddEff struct {
	E model.Value
	T Tag
}

// Apply implements crdt.Effector.
func (d AddEff) Apply(s crdt.State) crdt.State { return d.ApplyInPlace(s.(State).clone()) }

// ApplyInPlace implements crdt.InPlace.
func (d AddEff) ApplyInPlace(s crdt.State) crdt.State {
	st := s.(State)
	in := inst{E: d.E, T: d.T}
	st.Adds[in.Key()] = in
	return st
}

// String implements crdt.Effector.
func (d AddEff) String() string { return fmt.Sprintf("Add(%s,%s)", d.E, d.T) }

// RmvEff is the effector Rmv({(e, t), ...}) of Fig 5: tombstone exactly the
// element instances that were visible at the remove's origin.
type RmvEff struct {
	E     model.Value
	Insts []inst
}

// Apply implements crdt.Effector.
func (d RmvEff) Apply(s crdt.State) crdt.State { return d.ApplyInPlace(s.(State).clone()) }

// ApplyInPlace implements crdt.InPlace.
func (d RmvEff) ApplyInPlace(s crdt.State) crdt.State {
	st := s.(State)
	for _, in := range d.Insts {
		st.Dead[in.Key()] = true
	}
	return st
}

// String implements crdt.Effector.
func (d RmvEff) String() string {
	parts := make([]string, len(d.Insts))
	for i, in := range d.Insts {
		parts[i] = in.Key()
	}
	return fmt.Sprintf("Rmv(%s,{%s})", d.E, strings.Join(parts, " "))
}

// Object is the add-wins set implementation Π.
type Object struct{}

// New returns the add-wins set object.
func New() Object { return Object{} }

// Init implements crdt.Object.
func (Object) Init() crdt.State {
	return State{Adds: map[string]inst{}, Dead: map[string]bool{}}
}

// Prepare implements crdt.Object.
func (Object) Prepare(op model.Op, s crdt.State, origin model.NodeID, mid model.MsgID) (model.Value, crdt.Effector, error) {
	st := s.(State)
	switch op.Name {
	case spec.OpAdd:
		return model.Nil(), AddEff{E: op.Arg, T: Tag{Node: origin, Seq: int64(mid)}}, nil
	case spec.OpRemove:
		e := op.Arg
		return model.Nil(), RmvEff{E: e, Insts: st.liveInsts(&e)}, nil
	case spec.OpLookup:
		e := op.Arg
		return model.Bool(len(st.liveInsts(&e)) > 0), crdt.IdEff{}, nil
	case spec.OpRead:
		return Abs(st), crdt.IdEff{}, nil
	default:
		return model.Nil(), nil, crdt.ErrUnknownOp
	}
}

// Abs is the abstraction function φ: the sorted distinct elements with at
// least one live instance — instances and tags are hidden.
func Abs(s crdt.State) model.Value {
	st := s.(State)
	set := model.NewValueSet()
	for _, in := range st.liveInsts(nil) {
		set.Add(in.E)
	}
	return model.List(set.Elems()...)
}

// Spec returns the extended specification (Γ, ⊲⊳, ◀, ▷) with the add-wins
// strategy: remove(e) ◀ add(e), add(e) ▷ remove(e).
func Spec() spec.XSpec { return spec.AWSetSpec{} }
