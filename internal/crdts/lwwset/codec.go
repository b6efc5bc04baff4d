package lwwset

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

// AppendBinary implements crdt.State: the per-element entries in sorted key
// order (element value, winning stamp, present flag), then the replica's
// largest observed stamp. The key order depends only on the entries, so
// equal states encode to equal bytes.
func (s State) AppendBinary(b []byte) []byte {
	keys := make([]string, 0, len(s.Entries))
	for k := range s.Entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = codec.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		e := s.Entries[k]
		b = codec.AppendValue(b, s.Elems[k])
		b = codec.AppendStamp(b, e.TS)
		b = codec.AppendBool(b, e.Present)
	}
	return codec.AppendStamp(b, s.TS)
}

// AppendBinary implements crdt.Effector: element, stamp; the tag carries the
// add/remove polarity.
func (d OpEff) AppendBinary(b []byte) []byte {
	tag := tagRmv
	if d.Present {
		tag = tagAdd
	}
	b = codec.AppendValue(append(b, tag), d.E)
	return codec.AppendStamp(b, d.I)
}

// DecodeState decodes an LWW-element-set state encoded by State.AppendBinary.
func DecodeState(b []byte) (crdt.State, error) {
	n, rest, err := codec.DecodeUvarint(b)
	if err != nil {
		return nil, err
	}
	st := State{Entries: map[string]entry{}, Elems: map[string]model.Value{}}
	var prev string
	for i := uint64(0); i < n; i++ {
		var e model.Value
		e, rest, err = codec.DecodeValue(rest)
		if err != nil {
			return nil, err
		}
		var ts model.Stamp
		ts, rest, err = codec.DecodeStamp(rest)
		if err != nil {
			return nil, err
		}
		var present bool
		present, rest, err = codec.DecodeBool(rest)
		if err != nil {
			return nil, err
		}
		k := e.String()
		if err := codec.Ascending(i, prev, k); err != nil {
			return nil, err
		}
		st.Entries[k] = entry{TS: ts, Present: present}
		st.Elems[k], prev = e, k
	}
	st.TS, rest, err = codec.DecodeStamp(rest)
	if err != nil {
		return nil, err
	}
	if err := codec.Done(rest); err != nil {
		return nil, err
	}
	return st, nil
}

// DecodeEffector decodes an LWW-element-set effector encoded by AppendBinary.
func DecodeEffector(b []byte) (crdt.Effector, error) {
	tag, rest, err := codec.DecodeTag(b)
	if err != nil {
		return nil, err
	}
	if tag == codec.TagIdentity {
		if err := codec.Done(rest); err != nil {
			return nil, err
		}
		return crdt.IdEff{}, nil
	}
	if tag != tagAdd && tag != tagRmv {
		return nil, codec.BadTag(tag)
	}
	e, rest, err := codec.DecodeValue(rest)
	if err != nil {
		return nil, err
	}
	i, rest, err := codec.DecodeStamp(rest)
	if err != nil {
		return nil, err
	}
	if err := codec.Done(rest); err != nil {
		return nil, err
	}
	return OpEff{E: e, I: i, Present: tag == tagAdd}, nil
}
