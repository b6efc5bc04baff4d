package cseq

import (
	"sort"

	"repro/internal/codec"
	"repro/internal/crdt"
	"repro/internal/model"
)

// Effector tags (0 is crdt.IdEff).
const (
	tagAdd byte = 1
	tagRmv byte = 2
)

// appendComp appends one tag component: rational, node, request sequence.
func appendComp(b []byte, c Comp) []byte {
	b = codec.AppendRat(b, c.R)
	b = codec.AppendVarint(b, int64(c.Node))
	return codec.AppendVarint(b, c.Seq)
}

func decodeComp(b []byte) (Comp, []byte, error) {
	r, rest, err := codec.DecodeRat(b)
	if err != nil {
		return Comp{}, nil, err
	}
	node, rest, err := codec.DecodeVarint(rest)
	if err != nil {
		return Comp{}, nil, err
	}
	seq, rest, err := codec.DecodeVarint(rest)
	if err != nil {
		return Comp{}, nil, err
	}
	return Comp{R: r, Node: model.NodeID(node), Seq: seq}, rest, nil
}

// appendTag appends a position tag: its component path, count-prefixed.
func appendTag(b []byte, t Tag) []byte {
	b = codec.AppendUvarint(b, uint64(len(t.Path)))
	for _, c := range t.Path {
		b = appendComp(b, c)
	}
	return b
}

func decodeTag(b []byte) (Tag, []byte, error) {
	n, rest, err := codec.DecodeUvarint(b)
	if err != nil {
		return Tag{}, nil, err
	}
	var t Tag
	for i := uint64(0); i < n; i++ {
		var c Comp
		c, rest, err = decodeComp(rest)
		if err != nil {
			return Tag{}, nil, err
		}
		t.Path = append(t.Path, c)
	}
	return t, rest, nil
}

// AppendBinary implements crdt.State: the added records in sorted key order
// (element, tag, anchor), then the tombstone set.
func (s State) AppendBinary(b []byte) []byte {
	keys := make([]string, 0, len(s.Added))
	for k := range s.Added {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = codec.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		r := s.Added[k]
		b = codec.AppendValue(b, r.E)
		b = appendTag(b, r.T)
		b = codec.AppendValue(b, r.Anchor)
	}
	return codec.AppendValueSet(b, s.Dead)
}

// AppendBinary implements crdt.Effector: anchor, optional anchor tag
// (absent for sentinel anchors), fresh tag, element.
func (d AddEff) AppendBinary(b []byte) []byte {
	b = codec.AppendValue(append(b, tagAdd), d.Anchor)
	b = codec.AppendBool(b, d.ATag != nil)
	if d.ATag != nil {
		b = appendTag(b, *d.ATag)
	}
	b = appendTag(b, d.T)
	return codec.AppendValue(b, d.B)
}

// AppendBinary implements crdt.Effector: the tombstoned element.
func (d RmvEff) AppendBinary(b []byte) []byte {
	return codec.AppendValue(append(b, tagRmv), d.E)
}

// DecodeState decodes a continuous-sequence state encoded by
// State.AppendBinary.
func DecodeState(b []byte) (crdt.State, error) {
	n, rest, err := codec.DecodeUvarint(b)
	if err != nil {
		return nil, err
	}
	st := State{Added: map[string]rec{}}
	var prev string
	for i := uint64(0); i < n; i++ {
		var r rec
		r.E, rest, err = codec.DecodeValue(rest)
		if err != nil {
			return nil, err
		}
		r.T, rest, err = decodeTag(rest)
		if err != nil {
			return nil, err
		}
		r.Anchor, rest, err = codec.DecodeValue(rest)
		if err != nil {
			return nil, err
		}
		k := r.E.String()
		if err := codec.Ascending(i, prev, k); err != nil {
			return nil, err
		}
		st.Added[k], prev = r, k
	}
	st.Dead, rest, err = codec.DecodeValueSet(rest)
	if err != nil {
		return nil, err
	}
	if err := codec.Done(rest); err != nil {
		return nil, err
	}
	return st, nil
}

// DecodeEffector decodes a continuous-sequence effector encoded by
// AppendBinary.
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
		var d AddEff
		d.Anchor, rest, err = codec.DecodeValue(rest)
		if err != nil {
			return nil, err
		}
		var hasATag bool
		hasATag, rest, err = codec.DecodeBool(rest)
		if err != nil {
			return nil, err
		}
		if hasATag {
			var at Tag
			at, rest, err = decodeTag(rest)
			if err != nil {
				return nil, err
			}
			d.ATag = &at
		}
		d.T, rest, err = decodeTag(rest)
		if err != nil {
			return nil, err
		}
		d.B, rest, err = codec.DecodeValue(rest)
		if err != nil {
			return nil, err
		}
		if err := codec.Done(rest); err != nil {
			return nil, err
		}
		return d, nil
	case tagRmv:
		var e model.Value
		e, rest, err = codec.DecodeValue(rest)
		if err != nil {
			return nil, err
		}
		if err := codec.Done(rest); err != nil {
			return nil, err
		}
		return RmvEff{E: e}, nil
	default:
		return nil, codec.BadTag(tag)
	}
}
