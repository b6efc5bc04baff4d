package spec

import (
	"repro/internal/model"
)

// Operation names shared by the canonical specifications.
const (
	OpInc      model.OpName = "inc"
	OpDec      model.OpName = "dec"
	OpRead     model.OpName = "read"
	OpWrite    model.OpName = "write"
	OpAdd      model.OpName = "add"
	OpRemove   model.OpName = "remove"
	OpLookup   model.OpName = "lookup"
	OpAddAfter model.OpName = "addAfter"
)

// Sentinel is the distinguished root element ◦ of list specifications
// (Sec 2.1). addAfter(Sentinel, b) inserts b at the head of the list; the
// sentinel itself is never part of the abstract list value and can never be
// removed.
var Sentinel = model.Str("◦")

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

// CounterSpec is the abstract replicated counter: inc(n)/dec(n) add or
// subtract n (default 1 when the argument is nil); read returns the current
// value. All actions commute, so ⊲⊳ is empty — the paper's example of a CRDT
// with a trivially uniform conflict-resolution strategy.
type CounterSpec struct{}

// Name implements Spec.
func (CounterSpec) Name() string { return "counter" }

func counterDelta(arg model.Value) int64 {
	if n, ok := arg.AsInt(); ok {
		return n
	}
	return 1
}

// Apply implements Spec.
func (CounterSpec) Apply(op model.Op, s model.Value) (model.Value, model.Value) {
	cur, _ := s.AsInt()
	switch op.Name {
	case OpInc:
		return model.Nil(), model.Int(cur + counterDelta(op.Arg))
	case OpDec:
		return model.Nil(), model.Int(cur - counterDelta(op.Arg))
	case OpRead:
		return model.Int(cur), s
	default:
		return model.Nil(), s
	}
}

// Conflict implements Spec: counters have no conflicting operations.
func (CounterSpec) Conflict(a, b model.Op) bool { return false }

// IsQuery implements Spec: read is the only query.
func (CounterSpec) IsQuery(n model.OpName) bool { return n == OpRead }

// ---------------------------------------------------------------------------
// Register
// ---------------------------------------------------------------------------

// RegisterSpec is the abstract register refined by the last-writer-wins
// register: write(v) stores v, read returns the stored value (Nil initially).
// Any two writes conflict; reads conflict with nothing.
type RegisterSpec struct{}

// Name implements Spec.
func (RegisterSpec) Name() string { return "register" }

// Apply implements Spec.
func (RegisterSpec) Apply(op model.Op, s model.Value) (model.Value, model.Value) {
	switch op.Name {
	case OpWrite:
		return model.Nil(), op.Arg
	case OpRead:
		return s, s
	default:
		return model.Nil(), s
	}
}

// Conflict implements Spec: writes conflict with writes (unless they store
// the same value, in which case they commute and need not be related).
func (RegisterSpec) Conflict(a, b model.Op) bool {
	return a.Name == OpWrite && b.Name == OpWrite && !a.Arg.Equal(b.Arg)
}

// IsQuery implements Spec: read is the only query.
func (RegisterSpec) IsQuery(n model.OpName) bool { return n == OpRead }

// ---------------------------------------------------------------------------
// Sets (grow-only and general)
// ---------------------------------------------------------------------------

// Abstract set states are canonically sorted list Values.

func setHas(s model.Value, x model.Value) bool { return s.Contains(x) }

func setAdd(s model.Value, x model.Value) model.Value {
	if s.Contains(x) {
		return s
	}
	elems, _ := s.AsList()
	out := make([]model.Value, 0, len(elems)+1)
	out = append(out, elems...)
	out = append(out, x)
	model.SortValues(out)
	return model.List(out...)
}

func setRemove(s model.Value, x model.Value) model.Value {
	elems, _ := s.AsList()
	out := make([]model.Value, 0, len(elems))
	for _, e := range elems {
		if !e.Equal(x) {
			out = append(out, e)
		}
	}
	return model.List(out...)
}

// GSetSpec is the abstract grow-only set: add(e) and the queries lookup(e)
// and read(). Adds always commute, so ⊲⊳ is empty.
type GSetSpec struct{}

// Name implements Spec.
func (GSetSpec) Name() string { return "g-set" }

// Apply implements Spec.
func (GSetSpec) Apply(op model.Op, s model.Value) (model.Value, model.Value) {
	switch op.Name {
	case OpAdd:
		return model.Nil(), setAdd(s, op.Arg)
	case OpLookup:
		return model.Bool(setHas(s, op.Arg)), s
	case OpRead:
		return s, s
	default:
		return model.Nil(), s
	}
}

// Conflict implements Spec: grow-only sets have no conflicting operations.
func (GSetSpec) Conflict(a, b model.Op) bool { return false }

// IsQuery implements Spec: lookup and read are the queries.
func (GSetSpec) IsQuery(n model.OpName) bool { return n == OpLookup || n == OpRead }

// SetSpec is the abstract set with add(e), remove(e), lookup(e) and read().
// It is the common specification of the LWW-element set, the 2P-set, the
// add-wins set, and the remove-wins set. add(x) conflicts with remove(x) for
// the same element x; everything else commutes.
type SetSpec struct{}

// Name implements Spec.
func (SetSpec) Name() string { return "set" }

// Apply implements Spec.
func (SetSpec) Apply(op model.Op, s model.Value) (model.Value, model.Value) {
	switch op.Name {
	case OpAdd:
		return model.Nil(), setAdd(s, op.Arg)
	case OpRemove:
		return model.Nil(), setRemove(s, op.Arg)
	case OpLookup:
		return model.Bool(setHas(s, op.Arg)), s
	case OpRead:
		return s, s
	default:
		return model.Nil(), s
	}
}

// Conflict implements Spec.
func (SetSpec) Conflict(a, b model.Op) bool {
	if !a.Arg.Equal(b.Arg) {
		return false
	}
	return (a.Name == OpAdd && b.Name == OpRemove) || (a.Name == OpRemove && b.Name == OpAdd)
}

// IsQuery implements Spec: lookup and read are the queries.
func (SetSpec) IsQuery(n model.OpName) bool { return n == OpLookup || n == OpRead }

// AWSetSpec is the set specification extended with the add-wins strategy
// (Sec 9): remove(e) ◀ add(e) — a concurrent add wins over a remove of the
// same element — and add(e) ▷ remove(e) — an add's effect is canceled by a
// subsequent remove.
type AWSetSpec struct{ SetSpec }

// Name implements Spec.
func (AWSetSpec) Name() string { return "aw-set" }

// WonBy implements XSpec: remove(e) ◀ add(e).
func (AWSetSpec) WonBy(loser, winner model.Op) bool {
	return loser.Name == OpRemove && winner.Name == OpAdd && loser.Arg.Equal(winner.Arg)
}

// CanceledBy implements XSpec: add(e) ▷ remove(e).
func (AWSetSpec) CanceledBy(f, fp model.Op) bool {
	return f.Name == OpAdd && fp.Name == OpRemove && f.Arg.Equal(fp.Arg)
}

// RWSetSpec is the set specification extended with the remove-wins strategy:
// add(e) ◀ remove(e) and remove(e) ▷ add(e), the dual of AWSetSpec.
type RWSetSpec struct{ SetSpec }

// Name implements Spec.
func (RWSetSpec) Name() string { return "rw-set" }

// WonBy implements XSpec: add(e) ◀ remove(e).
func (RWSetSpec) WonBy(loser, winner model.Op) bool {
	return loser.Name == OpAdd && winner.Name == OpRemove && loser.Arg.Equal(winner.Arg)
}

// CanceledBy implements XSpec: remove(e) ▷ add(e).
func (RWSetSpec) CanceledBy(f, fp model.Op) bool {
	return f.Name == OpRemove && fp.Name == OpAdd && f.Arg.Equal(fp.Arg)
}

// ---------------------------------------------------------------------------
// List (sequence)
// ---------------------------------------------------------------------------

// ListSpec is the abstract list (sequence) specification shared by RGA and
// the continuous sequence: addAfter((a, b)) inserts b immediately after a
// (or at the head when a is the Sentinel), remove(a) deletes a, and read()
// returns the whole list. Following Sec 2.1, elements are unique: an
// addAfter whose new element is already present, or whose anchor is absent,
// is a no-op, which keeps Γ total.
//
// The conflict relation is the paper's (Sec 4):
//
//	addAfter(a,b) ⊲⊳ addAfter(c,d)  iff {a,b} ∩ {c,d} ≠ ∅
//	addAfter(a,b) ⊲⊳ remove(c)      iff c ∈ {a,b}
type ListSpec struct{}

// Name implements Spec.
func (ListSpec) Name() string { return "list" }

// Apply implements Spec.
func (ListSpec) Apply(op model.Op, s model.Value) (model.Value, model.Value) {
	switch op.Name {
	case OpAddAfter:
		a, b, ok := op.Arg.AsPair()
		if !ok {
			return model.Nil(), s
		}
		return model.Nil(), listInsertAfter(s, a, b)
	case OpRemove:
		if op.Arg.Equal(Sentinel) {
			return model.Nil(), s
		}
		return model.Nil(), setRemove(s, op.Arg) // removal by element works on sequences too
	case OpRead:
		return s, s
	default:
		return model.Nil(), s
	}
}

func listInsertAfter(s model.Value, a, b model.Value) model.Value {
	if s.Contains(b) || b.Equal(Sentinel) {
		return s
	}
	elems, _ := s.AsList()
	if a.Equal(Sentinel) {
		out := make([]model.Value, 0, len(elems)+1)
		out = append(out, b)
		out = append(out, elems...)
		return model.List(out...)
	}
	for i, e := range elems {
		if e.Equal(a) {
			out := make([]model.Value, 0, len(elems)+1)
			out = append(out, elems[:i+1]...)
			out = append(out, b)
			out = append(out, elems[i+1:]...)
			return model.List(out...)
		}
	}
	return s // anchor absent: no-op
}

// Conflict implements Spec.
func (ListSpec) Conflict(a, b model.Op) bool {
	switch {
	case a.Name == OpAddAfter && b.Name == OpAddAfter:
		a1, b1, ok1 := a.Arg.AsPair()
		a2, b2, ok2 := b.Arg.AsPair()
		if !ok1 || !ok2 {
			return false
		}
		return a1.Equal(a2) || a1.Equal(b2) || b1.Equal(a2) || b1.Equal(b2)
	case a.Name == OpAddAfter && b.Name == OpRemove:
		x, y, ok := a.Arg.AsPair()
		return ok && (b.Arg.Equal(x) || b.Arg.Equal(y))
	case a.Name == OpRemove && b.Name == OpAddAfter:
		return ListSpec{}.Conflict(b, a)
	default:
		return false
	}
}

// IsQuery implements Spec: read is the only query.
func (ListSpec) IsQuery(n model.OpName) bool { return n == OpRead }

// ---------------------------------------------------------------------------
// Sampling universes for property tests and the proof method
// ---------------------------------------------------------------------------

// Universe bundles sampled operations and abstract states over which Def 1
// and the Sec 9 well-formedness conditions are checked.
type Universe struct {
	Ops    []model.Op
	States []model.Value
}

// CounterUniverse samples inc/dec/read operations and counter states.
func CounterUniverse() Universe {
	var u Universe
	for _, n := range []int64{1, 2, 5} {
		u.Ops = append(u.Ops,
			model.Op{Name: OpInc, Arg: model.Int(n)},
			model.Op{Name: OpDec, Arg: model.Int(n)})
	}
	u.Ops = append(u.Ops, model.Op{Name: OpRead})
	for _, n := range []int64{-3, 0, 1, 7} {
		u.States = append(u.States, model.Int(n))
	}
	return u
}

// RegisterUniverse samples writes of a few distinct values plus reads, and
// register states.
func RegisterUniverse() Universe {
	var u Universe
	vals := []model.Value{model.Nil(), model.Int(1), model.Int(2), model.Str("x")}
	for _, v := range vals {
		u.Ops = append(u.Ops, model.Op{Name: OpWrite, Arg: v})
	}
	u.Ops = append(u.Ops, model.Op{Name: OpRead})
	u.States = vals
	return u
}

// SetUniverse samples add/remove/lookup over the elements and a few set
// states (subsets of the elements).
func SetUniverse(withRemove bool, elems ...model.Value) Universe {
	if len(elems) == 0 {
		elems = []model.Value{model.Str("a"), model.Str("b"), model.Str("c")}
	}
	var u Universe
	for _, e := range elems {
		u.Ops = append(u.Ops, model.Op{Name: OpAdd, Arg: e})
		if withRemove {
			u.Ops = append(u.Ops, model.Op{Name: OpRemove, Arg: e})
		}
		u.Ops = append(u.Ops, model.Op{Name: OpLookup, Arg: e})
	}
	u.Ops = append(u.Ops, model.Op{Name: OpRead})
	u.States = subsetsAsSets(elems)
	return u
}

func subsetsAsSets(elems []model.Value) []model.Value {
	n := len(elems)
	if n > 4 {
		n = 4
	}
	var states []model.Value
	for mask := 0; mask < 1<<n; mask++ {
		var sub []model.Value
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				sub = append(sub, elems[i])
			}
		}
		model.SortValues(sub)
		states = append(states, model.List(sub...))
	}
	return states
}

// ListUniverse samples addAfter/remove/read over the elements and list states
// (orderings of element subsets, bounded).
func ListUniverse(elems ...model.Value) Universe {
	if len(elems) == 0 {
		elems = []model.Value{model.Str("a"), model.Str("b"), model.Str("c")}
	}
	var u Universe
	anchors := append([]model.Value{Sentinel}, elems...)
	for _, a := range anchors {
		for _, b := range elems {
			if a.Equal(b) {
				continue
			}
			u.Ops = append(u.Ops, model.Op{Name: OpAddAfter, Arg: model.Pair(a, b)})
		}
	}
	for _, e := range elems {
		u.Ops = append(u.Ops, model.Op{Name: OpRemove, Arg: e})
	}
	u.Ops = append(u.Ops, model.Op{Name: OpRead})
	// States: empty, singletons, and a few two-element orders.
	u.States = append(u.States, model.List())
	for _, e := range elems {
		u.States = append(u.States, model.List(e))
	}
	for i := 0; i < len(elems) && i < 3; i++ {
		for j := 0; j < len(elems) && j < 3; j++ {
			if i == j {
				continue
			}
			u.States = append(u.States, model.List(elems[i], elems[j]))
		}
	}
	return u
}
