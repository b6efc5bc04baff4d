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
	adds, rest, err := tagged.DecodeMap(b)
	if err != nil {
		return nil, err
	}
	rmvs, rest, err := tagged.DecodeMap(rest)
	if err != nil {
		return nil, err
	}
	cancelled, rest, err := tagged.DecodeKeys(rest)
	if err != nil {
		return nil, err
	}
	if err := codec.Done(rest); err != nil {
		return nil, err
	}
	return State{Adds: adds, Rmvs: rmvs, Cancelled: cancelled}, nil
}

// DecodeEffector decodes a remove-wins-set effector encoded by AppendBinary.
func DecodeEffector(b []byte) (crdt.Effector, error) {
	tag, rest, err := codec.DecodeTag(b)
	if err != nil {
		return nil, err
	}
	switch tag {
	case codec.TagIdentity:
		if err := codec.Done(rest); err != nil {
			return nil, err
		}
		return crdt.IdEff{}, nil
	case tagAdd:
		in, rest, err := tagged.DecodeInst(rest)
		if err != nil {
			return nil, err
		}
		d := AddEff{E: in.E, T: in.T}
		d.Cancels, rest, err = tagged.DecodeInsts(rest)
		if err != nil {
			return nil, err
		}
		if err := codec.Done(rest); err != nil {
			return nil, err
		}
		return d, nil
	case tagRmv:
		in, rest, err := tagged.DecodeInst(rest)
		if err != nil {
			return nil, err
		}
		if err := codec.Done(rest); err != nil {
			return nil, err
		}
		return RmvEff{E: in.E, T: in.T}, nil
	default:
		return nil, codec.BadTag(tag)
	}
}
