package awset

import (
	"repro/internal/codec"
	"repro/internal/crdt"
	"repro/internal/crdts/tagged"
)

// Effector tags (0 is crdt.IdEff).
const (
	tagAdd byte = 1
	tagRmv byte = 2
)

// AppendBinary implements crdt.State: the add instances, then the tombstoned
// instance keys.
func (s State) AppendBinary(b []byte) []byte {
	b = tagged.AppendMap(b, s.Adds)
	return tagged.AppendKeys(b, s.Dead)
}

// AppendBinary implements crdt.Effector: the tagged instance.
func (d AddEff) AppendBinary(b []byte) []byte {
	return tagged.AppendInst(append(b, tagAdd), inst{E: d.E, T: d.T})
}

// AppendBinary implements crdt.Effector: the element, then the tombstoned
// instances in the (deterministic) order collected at the origin.
func (d RmvEff) AppendBinary(b []byte) []byte {
	return tagged.AppendInsts(codec.AppendValue(append(b, tagRmv), d.E), d.Insts)
}

// DecodeState decodes an add-wins-set state encoded by State.AppendBinary.
func DecodeState(b []byte) (crdt.State, error) {
	d := codec.NewDecoder(b)
	return codec.Result[crdt.State](&d, State{Adds: tagged.ReadMap(&d), Dead: tagged.ReadKeys(&d)})
}

// DecodeEffector decodes an add-wins-set effector encoded by AppendBinary.
func DecodeEffector(b []byte) (crdt.Effector, error) {
	d := codec.NewDecoder(b)
	var eff crdt.Effector = crdt.IdEff{}
	switch tag := d.Tag(); tag {
	case codec.TagIdentity:
	case tagAdd:
		in := tagged.ReadInst(&d)
		eff = AddEff{E: in.E, T: in.T}
	case tagRmv:
		eff = RmvEff{E: d.Value(), Insts: tagged.ReadInsts(&d)}
	default:
		d.Fail("unknown effector tag %d", tag)
	}
	return codec.Result(&d, eff)
}
