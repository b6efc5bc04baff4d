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
	"repro/internal/model"
	"repro/internal/spec"
)

// Tag uniquely identifies one add instance: the origin node plus the unique
// request ID of the add.
type Tag struct {
	Node model.NodeID
	Seq  int64
}

// String renders the tag.
func (t Tag) String() string { return fmt.Sprintf("%s#%d", t.Node, t.Seq) }

func (t Tag) less(u Tag) bool {
	if t.Node != u.Node {
		return t.Node < u.Node
	}
	return t.Seq < u.Seq
}

// inst is one tagged instance of an element.
type inst struct {
	E model.Value
	T Tag
}

func (i inst) key() string { return fmt.Sprintf("%s@%s", i.E, i.T) }

// State is the replica state: all add instances ever seen and the tombstoned
// (deleted) instances. An instance is live iff added and not tombstoned.
type State struct {
	Adds map[string]inst // every instance ever added, keyed by inst.key
	Dead map[string]bool // tombstoned instance keys
}

// Key implements crdt.State.
func (s State) Key() string {
	keys := make([]string, 0, len(s.Adds))
	for k := range s.Adds {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("aw{")
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(k)
		if s.Dead[k] {
			b.WriteByte('!')
		}
	}
	b.WriteByte('}')
	return b.String()
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
		return out[i].T.less(out[j].T)
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
	st.Adds[in.key()] = in
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
		st.Dead[in.key()] = true
	}
	return st
}

// String implements crdt.Effector.
func (d RmvEff) String() string {
	parts := make([]string, len(d.Insts))
	for i, in := range d.Insts {
		parts[i] = in.key()
	}
	return fmt.Sprintf("Rmv(%s,{%s})", d.E, strings.Join(parts, " "))
}

// Object is the add-wins set implementation Π.
type Object struct{}

// New returns the add-wins set object.
func New() Object { return Object{} }

// Name implements crdt.Object.
func (Object) Name() string { return "aw-set" }

// Init implements crdt.Object.
func (Object) Init() crdt.State {
	return State{Adds: map[string]inst{}, Dead: map[string]bool{}}
}

// Ops implements crdt.Object.
func (Object) Ops() []model.OpName {
	return []model.OpName{spec.OpAdd, spec.OpRemove, spec.OpLookup, spec.OpRead}
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
