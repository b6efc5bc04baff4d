// Package rga implements the Replicated Growable Array of Fig 2 — the paper's
// motivating example and, in practice, the core algorithm behind
// collaboratively edited documents.
//
// The replica state is a timestamped tree N encoded as a set of triples
// (a, i, b): element b with stamp i whose parent is element a; a tombstone
// set T of removed elements; and ts, the newest stamp seen at the replica.
// read() traverses the tree depth-first with siblings in decreasing stamp
// order (trav), dropping tombstoned elements. addAfter(a, b) stamps b with
// (ts.fst+1, cid) and the effector inserts the triple and refreshes ts;
// remove(a)'s effector adds a to T.
//
// The paper's standing assumptions (Sec 2.1) are enforced as `assume`
// preconditions: elements are unique, and each element is added or removed
// at most once.
package rga

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/crdt"
	"repro/internal/model"
	"repro/internal/spec"
)

// Triple is one tree node (a, i, b): element B with stamp I, child of A.
type Triple struct {
	A model.Value // parent element (spec.Sentinel for roots)
	I model.Stamp // stamp of B
	B model.Value // the element
}

// String renders the triple.
func (t Triple) String() string { return fmt.Sprintf("(%s,%s,%s)", t.A, t.I, t.B) }

// State is the replica state (N, T, ts) of Fig 2.
type State struct {
	N  map[string]Triple // keyed by element rendering of B (elements are unique)
	T  *model.ValueSet   // tombstones
	TS model.Stamp       // newest stamp at the replica

	// kids is the sibling index, derived from N and never encoded: each
	// parent's rendering (sentinelKey for ◦) maps to one entry per child of
	// N, in the order the children were applied. A list is never written in
	// place once another state may read it: clone shares the lists clipped
	// to len == cap, so an append on either side copies, and unlink builds
	// a new list.
	kids map[string][]child
}

// child is one entry of the sibling index: what trav needs to order a child
// and to reach its triple, its tombstone and its own children.
type child struct {
	I   model.Stamp
	key string // the child's rendering: its key in N, in T and in kids
}

// sentinelKey is the rendering of ◦, the root of every tree.
var sentinelKey = spec.Sentinel.String()

// parentKey is a's rendering, without rendering the sentinel.
func parentKey(a model.Value) string {
	if a.Equal(spec.Sentinel) {
		return sentinelKey
	}
	return a.String()
}

// cmpChild orders siblings by stamp, and by rendering on a stamp tie (no
// Prepare issues two elements one stamp, but a tie must still read the same
// on every replica).
func cmpChild(a, b child) int {
	if c := a.I.Compare(b.I); c != 0 {
		return c
	}
	return strings.Compare(a.key, b.key)
}

// index builds the sibling index of n, each list in stamp order.
func index(n map[string]Triple) map[string][]child {
	kids := make(map[string][]child)
	for k, t := range n {
		pk := parentKey(t.A)
		kids[pk] = append(kids[pk], child{I: t.I, key: k})
	}
	for _, cs := range kids {
		slices.SortFunc(cs, cmpChild)
	}
	return kids
}

func (s State) clone() State {
	kids := make(map[string][]child, len(s.kids))
	for k, cs := range s.kids {
		kids[k] = slices.Clip(cs)
	}
	return State{N: maps.Clone(s.N), T: s.T.Clone(), TS: s.TS, kids: kids}
}

func (s State) inTree(e model.Value) bool {
	_, ok := s.N[e.String()]
	return ok
}

// Trav is the trav(N, T) function of Fig 2: depth-first traversal from the
// sentinel with siblings in decreasing stamp order, dropping tombstoned
// elements. It returns the visible list.
//
// It walks the sibling index and renders nothing. Children are usually
// applied in increasing stamp order, so each list is walked from its end; a
// list found out of order is sorted into a scratch copy, never in the
// state, which clones and concurrent readers may share.
func (s State) Trav() []model.Value {
	var scratch []child
	return s.trav(sentinelKey, make([]model.Value, 0, len(s.N)), &scratch)
}

// trav appends the visible elements of parent's subtrees to out.
func (s State) trav(parent string, out []model.Value, scratch *[]child) []model.Value {
	cs := s.kids[parent]
	lo := len(*scratch)
	if !slices.IsSortedFunc(cs, cmpChild) {
		*scratch = append(*scratch, cs...)
		cs = (*scratch)[lo:]
		slices.SortFunc(cs, cmpChild)
	}
	for i := len(cs) - 1; i >= 0; i-- {
		k := cs[i].key
		if !s.T.HasKey(k) {
			out = append(out, s.N[k].B)
		}
		out = s.trav(k, out, scratch)
	}
	*scratch = (*scratch)[:lo]
	return out
}

// AddAftEff is the effector AddAft(a, i, b) of Fig 2.
type AddAftEff struct {
	A model.Value
	I model.Stamp
	B model.Value
}

// Apply implements crdt.Effector.
func (d AddAftEff) Apply(s crdt.State) crdt.State { return d.ApplyInPlace(s.(State).clone()) }

// ApplyInPlace implements crdt.InPlace: N := N ∪ {(a,i,b)}; if ts < i then
// ts := i. N is keyed by b, so a different triple for an element already in
// N replaces the old one, and the sibling index moves the element (with its
// subtree, which hangs off its key) to its new parent. The same triple
// again leaves N as it is.
func (d AddAftEff) ApplyInPlace(s crdt.State) crdt.State {
	st := s.(State)
	st.TS = st.TS.Max(d.I)
	k := d.B.String()
	if old, ok := st.N[k]; ok {
		if old.I == d.I && old.A.Equal(d.A) {
			return st
		}
		st.unlink(old.A, k)
	}
	st.N[k] = Triple{A: d.A, I: d.I, B: d.B}
	pk := parentKey(d.A)
	st.kids[pk] = append(st.kids[pk], child{I: d.I, key: k})
	return st
}

// unlink drops child k from a's list into a new list: the old one may be
// shared with a clone.
func (s State) unlink(a model.Value, k string) {
	pk := parentKey(a)
	cs := slices.DeleteFunc(slices.Clone(s.kids[pk]), func(c child) bool { return c.key == k })
	if len(cs) == 0 {
		delete(s.kids, pk)
		return
	}
	s.kids[pk] = cs
}

// String implements crdt.Effector.
func (d AddAftEff) String() string { return fmt.Sprintf("AddAft(%s,%s,%s)", d.A, d.I, d.B) }

// RmvEff is the effector Rmv(a) of Fig 2: T := T ∪ {a}.
type RmvEff struct {
	A model.Value
}

// Apply implements crdt.Effector.
func (d RmvEff) Apply(s crdt.State) crdt.State { return d.ApplyInPlace(s.(State).clone()) }

// ApplyInPlace implements crdt.InPlace.
func (d RmvEff) ApplyInPlace(s crdt.State) crdt.State {
	st := s.(State)
	st.T.Add(d.A)
	return st
}

// String implements crdt.Effector.
func (d RmvEff) String() string { return fmt.Sprintf("Rmv(%s)", d.A) }

// Object is the RGA implementation Π of Fig 2.
type Object struct{}

// New returns the RGA object.
func New() Object { return Object{} }

// Init implements crdt.Object.
func (Object) Init() crdt.State {
	return State{N: map[string]Triple{}, T: model.NewValueSet(), kids: map[string][]child{}}
}

// Prepare implements crdt.Object.
func (Object) Prepare(op model.Op, s crdt.State, origin model.NodeID, mid model.MsgID) (model.Value, crdt.Effector, error) {
	st := s.(State)
	switch op.Name {
	case spec.OpAddAfter:
		a, b, ok := op.Arg.AsPair()
		if !ok {
			return model.Nil(), nil, fmt.Errorf("rga: addAfter expects a pair argument, got %s: %w", op.Arg, crdt.ErrUnknownOp)
		}
		// assume a = ◦ ∨ (a ≠ ◦ ∧ (_,_,a) ∈ N ∧ a ∉ T)   (Fig 2, lines 4–5)
		if !a.Equal(spec.Sentinel) && (!st.inTree(a) || st.T.Has(a)) {
			return model.Nil(), nil, crdt.ErrAssume
		}
		// elements are unique and added at most once (Sec 2.1)
		if b.Equal(spec.Sentinel) || st.inTree(b) || st.T.Has(b) {
			return model.Nil(), nil, crdt.ErrAssume
		}
		i := st.TS.Next(origin) // local i := (ts.fst+1, cid)   (line 6)
		return model.Nil(), AddAftEff{A: a, I: i, B: b}, nil
	case spec.OpRemove:
		a := op.Arg
		// assume (_,_,a) ∈ N ∧ a ∉ T ∧ a ≠ ◦   (lines 19–20)
		if !st.inTree(a) || st.T.Has(a) || a.Equal(spec.Sentinel) {
			return model.Nil(), nil, crdt.ErrAssume
		}
		return model.Nil(), RmvEff{A: a}, nil
	case spec.OpRead:
		return model.List(st.Trav()...), crdt.IdEff{}, nil
	default:
		return model.Nil(), nil, crdt.ErrUnknownOp
	}
}

// Abs is the abstraction function φ: the visible list produced by trav — the
// timestamped tree and the tombstones are hidden.
func Abs(s crdt.State) model.Value { return model.ListOf(s.(State).Trav()) }

// Spec returns the abstract list specification shared with the continuous
// sequence.
func Spec() spec.Spec { return spec.ListSpec{} }

// TSOrder is the timestamp order ↣ instantiated for RGA in Sec 8:
//
//	AddAft(a,i,b) ↣ AddAft(a',i',b')  iff i < i'
//	AddAft(a,i,b) ↣ Rmv(a) and AddAft(a,i,b) ↣ Rmv(b)
func TSOrder(d1, d2 crdt.Effector) bool {
	switch e1 := d1.(type) {
	case AddAftEff:
		switch e2 := d2.(type) {
		case AddAftEff:
			return e1.I.Less(e2.I)
		case RmvEff:
			return e2.A.Equal(e1.A) || e2.A.Equal(e1.B)
		}
	}
	return false
}

// View is the view function V instantiated for RGA in Sec 8: the AddAft
// effectors recorded in N and the Rmv effectors recorded in T.
func View(s crdt.State) []crdt.Effector {
	st := s.(State)
	keys := make([]string, 0, len(st.N))
	for k := range st.N {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []crdt.Effector
	for _, k := range keys {
		t := st.N[k]
		out = append(out, AddAftEff{A: t.A, I: t.I, B: t.B})
	}
	for _, e := range st.T.Elems() {
		out = append(out, RmvEff{A: e})
	}
	return out
}
