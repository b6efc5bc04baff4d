package twopset

import (
	"repro/internal/codec"
	"repro/internal/crdt"
)

// Effector tags (0 is crdt.IdEff).
const (
	tagAdd byte = 1
	tagRmv byte = 2
)

// AppendBinary implements crdt.State: the add-set A, then the tombstones R.
func (s State) AppendBinary(b []byte) []byte {
	b = codec.AppendValueSet(b, s.A)
	return codec.AppendValueSet(b, s.R)
}

// AppendBinary implements crdt.Effector.
func (d AddEff) AppendBinary(b []byte) []byte {
	return codec.AppendValue(append(b, tagAdd), d.E)
}

// AppendBinary implements crdt.Effector.
func (d RmvEff) AppendBinary(b []byte) []byte {
	return codec.AppendValue(append(b, tagRmv), d.E)
}

// DecodeState decodes a 2P-set state encoded by State.AppendBinary.
func DecodeState(b []byte) (crdt.State, error) {
	d := codec.NewDecoder(b)
	return codec.Result[crdt.State](&d, State{A: d.ValueSet(), R: d.ValueSet()})
}

// DecodeEffector decodes a 2P-set effector encoded by AppendBinary.
func DecodeEffector(b []byte) (crdt.Effector, error) {
	d := codec.NewDecoder(b)
	var eff crdt.Effector = crdt.IdEff{}
	switch tag := d.Tag(); tag {
	case codec.TagIdentity:
	case tagAdd:
		eff = AddEff{E: d.Value()}
	case tagRmv:
		eff = RmvEff{E: d.Value()}
	default:
		d.Fail("unknown effector tag %d", tag)
	}
	return codec.Result(&d, eff)
}
