package gset

import (
	"repro/internal/codec"
	"repro/internal/crdt"
)

// Effector tags (0 is crdt.IdEff).
const tagAdd byte = 1

// AppendBinary implements crdt.State: the element set in canonical order.
func (s State) AppendBinary(b []byte) []byte { return codec.AppendValueSet(b, s.Elems) }

// AppendBinary implements crdt.Effector: the added element.
func (d AddEff) AppendBinary(b []byte) []byte {
	return codec.AppendValue(append(b, tagAdd), d.E)
}

// DecodeState decodes a g-set state encoded by State.AppendBinary.
func DecodeState(b []byte) (crdt.State, error) {
	d := codec.NewDecoder(b)
	return codec.Result[crdt.State](&d, State{Elems: d.ValueSet()})
}

// DecodeEffector decodes a g-set effector encoded by AppendBinary.
func DecodeEffector(b []byte) (crdt.Effector, error) {
	d := codec.NewDecoder(b)
	var eff crdt.Effector = crdt.IdEff{}
	switch tag := d.Tag(); tag {
	case codec.TagIdentity:
	case tagAdd:
		eff = AddEff{E: d.Value()}
	default:
		d.Fail("unknown effector tag %d", tag)
	}
	return codec.Result(&d, eff)
}
