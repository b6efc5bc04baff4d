package rwset

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

func appendTag(b []byte, t Tag) []byte {
	b = codec.AppendVarint(b, int64(t.Node))
	return codec.AppendVarint(b, t.Seq)
}

func decodeTagField(b []byte) (Tag, []byte, error) {
	node, rest, err := codec.DecodeVarint(b)
	if err != nil {
		return Tag{}, nil, err
	}
	seq, rest, err := codec.DecodeVarint(rest)
	if err != nil {
		return Tag{}, nil, err
	}
	return Tag{Node: model.NodeID(node), Seq: seq}, rest, nil
}

func appendInst(b []byte, in inst) []byte {
	b = codec.AppendValue(b, in.E)
	return appendTag(b, in.T)
}

func decodeInst(b []byte) (inst, []byte, error) {
	e, rest, err := codec.DecodeValue(b)
	if err != nil {
		return inst{}, nil, err
	}
	t, rest, err := decodeTagField(rest)
	if err != nil {
		return inst{}, nil, err
	}
	return inst{E: e, T: t}, rest, nil
}

// appendInstMap appends a keyed instance map in sorted key order.
func appendInstMap(b []byte, m map[string]inst) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = codec.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendInst(b, m[k])
	}
	return b
}

func decodeInstMap(b []byte) (map[string]inst, []byte, error) {
	n, rest, err := codec.DecodeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	m := map[string]inst{}
	var prev string
	for i := uint64(0); i < n; i++ {
		var in inst
		in, rest, err = decodeInst(rest)
		if err != nil {
			return nil, nil, err
		}
		k := in.key()
		if err := codec.Ascending(i, prev, k); err != nil {
			return nil, nil, err
		}
		m[k], prev = in, k
	}
	return m, rest, nil
}

// appendKeySet appends a string key set in sorted order. Cancellation keys
// are encoded independently of Rmvs so the state stays decodable even when
// a cancellation arrives before its removal instance.
func appendKeySet(b []byte, m map[string]bool) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = codec.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = codec.AppendString(b, k)
	}
	return b
}

func decodeKeySet(b []byte) (map[string]bool, []byte, error) {
	n, rest, err := codec.DecodeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	m := map[string]bool{}
	var prev string
	for i := uint64(0); i < n; i++ {
		var k string
		k, rest, err = codec.DecodeString(rest)
		if err != nil {
			return nil, nil, err
		}
		if err := codec.Ascending(i, prev, k); err != nil {
			return nil, nil, err
		}
		m[k], prev = true, k
	}
	return m, rest, nil
}

// AppendBinary implements crdt.State: add instances, removal instances, then
// the cancelled removal keys.
func (s State) AppendBinary(b []byte) []byte {
	b = appendInstMap(b, s.Adds)
	b = appendInstMap(b, s.Rmvs)
	return appendKeySet(b, s.Cancelled)
}

// AppendBinary implements crdt.Effector: the tagged add instance, then the
// cancelled removal instances in the (deterministic) order collected at the
// origin.
func (d AddEff) AppendBinary(b []byte) []byte {
	b = appendInst(append(b, tagAdd), inst{E: d.E, T: d.T})
	b = codec.AppendUvarint(b, uint64(len(d.Cancels)))
	for _, in := range d.Cancels {
		b = appendInst(b, in)
	}
	return b
}

// AppendBinary implements crdt.Effector: the tagged removal instance.
func (d RmvEff) AppendBinary(b []byte) []byte {
	return appendInst(append(b, tagRmv), inst{E: d.E, T: d.T})
}

// DecodeState decodes a remove-wins-set state encoded by State.AppendBinary.
func DecodeState(b []byte) (crdt.State, error) {
	adds, rest, err := decodeInstMap(b)
	if err != nil {
		return nil, err
	}
	rmvs, rest, err := decodeInstMap(rest)
	if err != nil {
		return nil, err
	}
	cancelled, rest, err := decodeKeySet(rest)
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
		in, rest, err := decodeInst(rest)
		if err != nil {
			return nil, err
		}
		d := AddEff{E: in.E, T: in.T}
		var n uint64
		n, rest, err = codec.DecodeUvarint(rest)
		if err != nil {
			return nil, err
		}
		for i := uint64(0); i < n; i++ {
			var c inst
			c, rest, err = decodeInst(rest)
			if err != nil {
				return nil, err
			}
			d.Cancels = append(d.Cancels, c)
		}
		if err := codec.Done(rest); err != nil {
			return nil, err
		}
		return d, nil
	case tagRmv:
		in, rest, err := decodeInst(rest)
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
