package rwset

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

// AppendBinary implements crdt.State: add instances, removal instances, then
// the cancelled removal keys.
func (s State) AppendBinary(b []byte) []byte {
	b = tagged.AppendMap(b, s.Adds)
	b = tagged.AppendMap(b, s.Rmvs)
	return tagged.AppendKeys(b, s.Cancelled)
}

// AppendBinary implements crdt.Effector: the tagged add instance, then the
// cancelled removal instances in the (deterministic) order collected at the
// origin.
func (d AddEff) AppendBinary(b []byte) []byte {
	return tagged.AppendInsts(tagged.AppendInst(append(b, tagAdd), inst{E: d.E, T: d.T}), d.Cancels)
}

// AppendBinary implements crdt.Effector: the tagged removal instance.
func (d RmvEff) AppendBinary(b []byte) []byte {
	return tagged.AppendInst(append(b, tagRmv), inst{E: d.E, T: d.T})
}

// DecodeState decodes a remove-wins-set state encoded by State.AppendBinary.
func DecodeState(b []byte) (crdt.State, error) {
	d := codec.NewDecoder(b)
	return codec.Result[crdt.State](&d, State{Adds: tagged.ReadMap(&d), Rmvs: tagged.ReadMap(&d), Cancelled: tagged.ReadKeys(&d)})
}

// DecodeEffector decodes a remove-wins-set effector encoded by AppendBinary.
func DecodeEffector(b []byte) (crdt.Effector, error) {
	d := codec.NewDecoder(b)
	var eff crdt.Effector = crdt.IdEff{}
	switch tag := d.Tag(); tag {
	case codec.TagIdentity:
	case tagAdd:
		in := tagged.ReadInst(&d)
		eff = AddEff{E: in.E, T: in.T, Cancels: tagged.ReadInsts(&d)}
	case tagRmv:
		in := tagged.ReadInst(&d)
		eff = RmvEff{E: in.E, T: in.T}
	default:
		d.Fail("unknown effector tag %d", tag)
	}
	return codec.Result(&d, eff)
}
