// Package product implements the compositionality construction of Sec 2.4:
// clients may use several CRDTs Π1, …, Πn together and view them as one
// object satisfying ACC/XACC over the disjoint union of the operations,
// specifications, and conflict relations, provided the objects share no
// data.
//
// Operations are namespaced "name.op" (e.g. "cart.add", "clock.inc"); the
// product routes each call to its component, pairs the component states, and
// takes the union of the conflict relations — operations of different
// components never conflict, because their actions touch disjoint state and
// therefore commute.
package product

import (
	"fmt"
	"strings"

	"repro/internal/codec"
	"repro/internal/crdt"
	"repro/internal/model"
	"repro/internal/spec"
)

// Component is one named member of a product.
type Component struct {
	// Name prefixes the component's operations ("cart" → "cart.add").
	Name string
	// Object is the component implementation Π_i.
	Object crdt.Object
	// Spec is the component specification (Γ_i, ⊲⊳_i).
	Spec spec.Spec
	// Abs is the component abstraction φ_i.
	Abs crdt.Abstraction
	// TSOrder is the component's ↣ (may be nil).
	TSOrder func(d1, d2 crdt.Effector) bool
}

// splitOp separates "name.op" into the component name and the bare op.
func splitOp(op model.Op) (string, model.Op, error) {
	name := string(op.Name)
	i := strings.IndexByte(name, '.')
	if i < 0 {
		return "", model.Op{}, fmt.Errorf("product: operation %q is not namespaced component.op", name)
	}
	return name[:i], model.Op{Name: model.OpName(name[i+1:]), Arg: op.Arg}, nil
}

// State is the product replica state: one component state per member.
type State struct {
	Parts []crdt.State
}

// AppendBinary implements crdt.State: the component states in slot order,
// each length-prefixed (components are different algorithms, so their
// encodings must be framed to concatenate unambiguously).
func (s State) AppendBinary(b []byte) []byte {
	b = codec.AppendUvarint(b, uint64(len(s.Parts)))
	for _, p := range s.Parts {
		b = codec.AppendBytes(b, p.AppendBinary(nil))
	}
	return b
}

// Effector routes a component effector to its slot.
type Effector struct {
	Slot int
	Name string
	Eff  crdt.Effector
}

// Apply implements crdt.Effector.
func (d Effector) Apply(s crdt.State) crdt.State {
	st := s.(State)
	parts := append([]crdt.State(nil), st.Parts...)
	parts[d.Slot] = d.Eff.Apply(parts[d.Slot])
	return State{Parts: parts}
}

// AppendBinary implements crdt.Effector: tag 1, the slot, the component
// name, then the component effector's framed encoding. Products are not in
// the registry, so no decoder is registered; the encoding still provides
// identity for dedup and convergence checks.
func (d Effector) AppendBinary(b []byte) []byte {
	b = codec.AppendUvarint(append(b, 1), uint64(d.Slot))
	b = codec.AppendString(b, d.Name)
	return codec.AppendBytes(b, d.Eff.AppendBinary(nil))
}

// String implements crdt.Effector.
func (d Effector) String() string { return fmt.Sprintf("%s.%s", d.Name, d.Eff) }

// Object is the product implementation ⊎ Πi.
type Object struct {
	comps []Component
	slots map[string]int
}

// New builds the product of the given components. Component names must be
// unique and non-empty.
func New(comps ...Component) (*Object, error) {
	if len(comps) == 0 {
		return nil, fmt.Errorf("product: need at least one component")
	}
	o := &Object{comps: comps, slots: map[string]int{}}
	for i, c := range comps {
		if c.Name == "" || strings.ContainsRune(c.Name, '.') {
			return nil, fmt.Errorf("product: invalid component name %q", c.Name)
		}
		if _, dup := o.slots[c.Name]; dup {
			return nil, fmt.Errorf("product: duplicate component name %q", c.Name)
		}
		o.slots[c.Name] = i
	}
	return o, nil
}

// MustNew is New, panicking on error.
func MustNew(comps ...Component) *Object {
	o, err := New(comps...)
	if err != nil {
		panic(err)
	}
	return o
}

// Init implements crdt.Object.
func (o *Object) Init() crdt.State {
	parts := make([]crdt.State, len(o.comps))
	for i, c := range o.comps {
		parts[i] = c.Object.Init()
	}
	return State{Parts: parts}
}

// Prepare implements crdt.Object.
func (o *Object) Prepare(op model.Op, s crdt.State, origin model.NodeID, mid model.MsgID) (model.Value, crdt.Effector, error) {
	name, inner, err := splitOp(op)
	if err != nil {
		return model.Nil(), nil, err
	}
	slot, ok := o.slots[name]
	if !ok {
		return model.Nil(), nil, fmt.Errorf("product: unknown component %q: %w", name, crdt.ErrUnknownOp)
	}
	st := s.(State)
	ret, eff, err := o.comps[slot].Object.Prepare(inner, st.Parts[slot], origin, mid)
	if err != nil {
		return model.Nil(), nil, err
	}
	if crdt.IsIdentity(eff) {
		return ret, crdt.IdEff{}, nil
	}
	return ret, Effector{Slot: slot, Name: name, Eff: eff}, nil
}

// Abs is the product abstraction function: the list of component
// abstractions.
func (o *Object) Abs(s crdt.State) model.Value {
	st := s.(State)
	parts := make([]model.Value, len(st.Parts))
	for i, p := range st.Parts {
		parts[i] = o.comps[i].Abs(p)
	}
	return model.List(parts...)
}

// Spec is the product specification: states are lists of component abstract
// states; operations route by namespace; ⊲⊳ is the disjoint union.
type Spec struct {
	comps []Component
	slots map[string]int
}

// ProductSpec returns the (Γ, ⊲⊳) of the product object.
func (o *Object) ProductSpec() Spec { return Spec{comps: o.comps, slots: o.slots} }

// Name implements spec.Spec.
func (s Spec) Name() string {
	names := make([]string, len(s.comps))
	for i, c := range s.comps {
		names[i] = c.Spec.Name()
	}
	return "product(" + strings.Join(names, ",") + ")"
}

// Apply implements spec.Spec (total: unknown operations are no-ops).
func (s Spec) Apply(op model.Op, st model.Value) (model.Value, model.Value) {
	name, inner, err := splitOp(op)
	if err != nil {
		return model.Nil(), st
	}
	slot, ok := s.slots[name]
	if !ok {
		return model.Nil(), st
	}
	parts, _ := st.AsList()
	if slot >= len(parts) {
		return model.Nil(), st
	}
	ret, next := s.comps[slot].Spec.Apply(inner, parts[slot])
	out := make([]model.Value, len(parts))
	copy(out, parts)
	out[slot] = next
	return ret, model.List(out...)
}

// Conflict implements spec.Spec: only same-component operations may
// conflict, per their component relation.
func (s Spec) Conflict(a, b model.Op) bool {
	na, ia, errA := splitOp(a)
	nb, ib, errB := splitOp(b)
	if errA != nil || errB != nil || na != nb {
		return false
	}
	slot, ok := s.slots[na]
	if !ok {
		return false
	}
	return s.comps[slot].Spec.Conflict(ia, ib)
}

// IsQuery implements spec.Spec: an operation is a query iff its component
// declares it one.
func (s Spec) IsQuery(n model.OpName) bool {
	name, inner, err := splitOp(model.Op{Name: n})
	if err != nil {
		return false
	}
	slot, ok := s.slots[name]
	return ok && s.comps[slot].Spec.IsQuery(inner.Name)
}

// TSOrder is the product ↣: component orders, disjointly.
func (o *Object) TSOrder(d1, d2 crdt.Effector) bool {
	e1, ok1 := d1.(Effector)
	e2, ok2 := d2.(Effector)
	if !ok1 || !ok2 || e1.Slot != e2.Slot {
		return false
	}
	ts := o.comps[e1.Slot].TSOrder
	return ts != nil && ts(e1.Eff, e2.Eff)
}
