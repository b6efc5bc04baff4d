// Package maxreg implements the max-register from Shapiro et al.'s
// catalogue — an algorithm NOT verified in the paper, included to
// demonstrate extending the framework: write(n) raises the register to
// max(current, n), read returns the maximum written so far. Taking the
// maximum is a join, so all effectors commute, the conflict relation is
// empty, and — like the counter — the proof method instantiates ↣ = ∅ and
// V = λS.∅. The conformance battery validates it end to end with no changes
// to any checker.
package maxreg

import (
	"fmt"

	"repro/internal/crdt"
	"repro/internal/model"
	"repro/internal/spec"
)

// Spec is the abstract max-register Γ: integer states, write = max, read.
type Spec struct{}

// Name implements spec.Spec.
func (Spec) Name() string { return "max-register" }

// Apply implements spec.Spec.
func (Spec) Apply(op model.Op, s model.Value) (model.Value, model.Value) {
	cur, _ := s.AsInt()
	switch op.Name {
	case spec.OpWrite:
		if n, ok := op.Arg.AsInt(); ok && n > cur {
			return model.Nil(), model.Int(n)
		}
		return model.Nil(), s
	case spec.OpRead:
		return s, s
	default:
		return model.Nil(), s
	}
}

// Conflict implements spec.Spec: maxima commute, so ⊲⊳ is empty.
func (Spec) Conflict(a, b model.Op) bool { return false }

// IsQuery implements spec.Spec: read is the only query.
func (Spec) IsQuery(n model.OpName) bool { return n == spec.OpRead }

// State is the replica state: the maximum seen.
type State struct{ V int64 }

// WriteEff raises the replica to at least N.
type WriteEff struct{ N int64 }

// Apply implements crdt.Effector.
func (d WriteEff) Apply(s crdt.State) crdt.State {
	st := s.(State)
	if d.N > st.V {
		return State{V: d.N}
	}
	return st
}

// String implements crdt.Effector.
func (d WriteEff) String() string { return fmt.Sprintf("MaxWr(%d)", d.N) }

// Object is the max-register implementation Π.
type Object struct{}

// New returns the max-register object.
func New() Object { return Object{} }

// Init implements crdt.Object.
func (Object) Init() crdt.State { return State{} }

// Prepare implements crdt.Object.
func (Object) Prepare(op model.Op, s crdt.State, origin model.NodeID, mid model.MsgID) (model.Value, crdt.Effector, error) {
	switch op.Name {
	case spec.OpWrite:
		n, ok := op.Arg.AsInt()
		if !ok || n < 0 {
			return model.Nil(), nil, crdt.ErrAssume // the register holds naturals
		}
		return model.Nil(), WriteEff{N: n}, nil
	case spec.OpRead:
		return model.Int(s.(State).V), crdt.IdEff{}, nil
	default:
		return model.Nil(), nil, crdt.ErrUnknownOp
	}
}

// Abs is the abstraction function φ: the maximum as an integer.
func Abs(s crdt.State) model.Value { return model.Int(s.(State).V) }

// TSOrder is the proof method's ↣: empty.
func TSOrder(d1, d2 crdt.Effector) bool { return false }

// View is the proof method's V: λS.∅.
func View(s crdt.State) []crdt.Effector { return nil }
