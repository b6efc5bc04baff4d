package awset

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

// appendInstMap appends a keyed instance map in sorted key order — a pure
// function of the map's contents, so equal maps encode to equal bytes.
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

// appendKeySet appends a string key set in sorted order. The keys are
// instance renderings; encoding them as strings keeps the state decodable
// even when a tombstone precedes its add under non-causal delivery.
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

// AppendBinary implements crdt.State: the add instances, then the tombstoned
// instance keys.
func (s State) AppendBinary(b []byte) []byte {
	b = appendInstMap(b, s.Adds)
	return appendKeySet(b, s.Dead)
}

// AppendBinary implements crdt.Effector: the tagged instance.
func (d AddEff) AppendBinary(b []byte) []byte {
	return appendInst(append(b, tagAdd), inst{E: d.E, T: d.T})
}

// AppendBinary implements crdt.Effector: the element, then the tombstoned
// instances in the (deterministic) order collected at the origin.
func (d RmvEff) AppendBinary(b []byte) []byte {
	b = codec.AppendValue(append(b, tagRmv), d.E)
	b = codec.AppendUvarint(b, uint64(len(d.Insts)))
	for _, in := range d.Insts {
		b = appendInst(b, in)
	}
	return b
}

// DecodeState decodes an add-wins-set state encoded by State.AppendBinary.
func DecodeState(b []byte) (crdt.State, error) {
	adds, rest, err := decodeInstMap(b)
	if err != nil {
		return nil, err
	}
	dead, rest, err := decodeKeySet(rest)
	if err != nil {
		return nil, err
	}
	if err := codec.Done(rest); err != nil {
		return nil, err
	}
	return State{Adds: adds, Dead: dead}, nil
}

// DecodeEffector decodes an add-wins-set effector encoded by AppendBinary.
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
		if err := codec.Done(rest); err != nil {
			return nil, err
		}
		return AddEff{E: in.E, T: in.T}, nil
	case tagRmv:
		var d RmvEff
		d.E, rest, err = codec.DecodeValue(rest)
		if err != nil {
			return nil, err
		}
		var n uint64
		n, rest, err = codec.DecodeUvarint(rest)
		if err != nil {
			return nil, err
		}
		for i := uint64(0); i < n; i++ {
			var in inst
			in, rest, err = decodeInst(rest)
			if err != nil {
				return nil, err
			}
			d.Insts = append(d.Insts, in)
		}
		if err := codec.Done(rest); err != nil {
			return nil, err
		}
		return d, nil
	default:
		return nil, codec.BadTag(tag)
	}
}
