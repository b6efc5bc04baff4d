package rga

import (
	"fmt"
	"sort"

	"repro/internal/codec"
	"repro/internal/crdt"
	"repro/internal/model"
	"repro/internal/spec"
)

// Effector tags (0 is crdt.IdEff).
const (
	tagAddAft byte = 1
	tagRmv    byte = 2
)

// AppendBinary implements crdt.State: the tree triples in sorted key order,
// the tombstone set, then the newest stamp.
func (s State) AppendBinary(b []byte) []byte {
	keys := make([]string, 0, len(s.N))
	for k := range s.N {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = codec.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		t := s.N[k]
		b = codec.AppendValue(b, t.A)
		b = codec.AppendStamp(b, t.I)
		b = codec.AppendValue(b, t.B)
	}
	b = codec.AppendValueSet(b, s.T)
	return codec.AppendStamp(b, s.TS)
}

// AppendBinary implements crdt.Effector: parent, stamp, element.
func (d AddAftEff) AppendBinary(b []byte) []byte {
	b = codec.AppendValue(append(b, tagAddAft), d.A)
	b = codec.AppendStamp(b, d.I)
	return codec.AppendValue(b, d.B)
}

// AppendBinary implements crdt.Effector: the removed element.
func (d RmvEff) AppendBinary(b []byte) []byte {
	return codec.AppendValue(append(b, tagRmv), d.A)
}

// notSentinel rejects an element equal to ◦. Fig 2's assume keeps ◦ out of
// N, and trav relies on it: every element has one parent, so a cycle that
// trav could reach from ◦ must pass through an element equal to ◦.
func notSentinel(b model.Value) error {
	if b.Equal(spec.Sentinel) {
		return fmt.Errorf("%w: rga element %s is the sentinel", codec.ErrCorrupt, b)
	}
	return nil
}

// DecodeState decodes an RGA state encoded by State.AppendBinary and
// rebuilds its sibling index.
func DecodeState(b []byte) (crdt.State, error) {
	n, rest, err := codec.DecodeUvarint(b)
	if err != nil {
		return nil, err
	}
	st := State{N: map[string]Triple{}}
	for i := uint64(0); i < n; i++ {
		var t Triple
		t.A, rest, err = codec.DecodeValue(rest)
		if err != nil {
			return nil, err
		}
		t.I, rest, err = codec.DecodeStamp(rest)
		if err != nil {
			return nil, err
		}
		t.B, rest, err = codec.DecodeValue(rest)
		if err != nil {
			return nil, err
		}
		if err := notSentinel(t.B); err != nil {
			return nil, err
		}
		st.N[t.B.String()] = t
	}
	st.T, rest, err = codec.DecodeValueSet(rest)
	if err != nil {
		return nil, err
	}
	st.TS, rest, err = codec.DecodeStamp(rest)
	if err != nil {
		return nil, err
	}
	if err := codec.Done(rest); err != nil {
		return nil, err
	}
	st.kids = index(st.N)
	return st, nil
}

// DecodeEffector decodes an RGA effector encoded by AppendBinary.
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
	case tagAddAft:
		var d AddAftEff
		d.A, rest, err = codec.DecodeValue(rest)
		if err != nil {
			return nil, err
		}
		d.I, rest, err = codec.DecodeStamp(rest)
		if err != nil {
			return nil, err
		}
		d.B, rest, err = codec.DecodeValue(rest)
		if err != nil {
			return nil, err
		}
		if err := notSentinel(d.B); err != nil {
			return nil, err
		}
		if err := codec.Done(rest); err != nil {
			return nil, err
		}
		return d, nil
	case tagRmv:
		var a model.Value
		a, rest, err = codec.DecodeValue(rest)
		if err != nil {
			return nil, err
		}
		if err := codec.Done(rest); err != nil {
			return nil, err
		}
		return RmvEff{A: a}, nil
	default:
		return nil, codec.BadTag(tag)
	}
}
