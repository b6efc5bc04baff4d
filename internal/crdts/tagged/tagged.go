// Package tagged holds what the add-wins and remove-wins sets share: element
// instances with unique tags, and their wire coders. Instance maps and key
// sets are encoded in sorted key order, a pure function of their contents,
// so equal values encode to equal bytes; the decoders reject keys out of
// order or repeated.
package tagged

import (
	"sort"
	"strconv"

	"repro/internal/codec"
	"repro/internal/model"
)

// Tag uniquely identifies one instance: the origin node plus the unique
// request ID of the operation that created it.
type Tag struct {
	Node model.NodeID
	Seq  int64
}

// String renders the tag as its node, '#' and its sequence number.
func (t Tag) String() string { return t.Node.String() + "#" + strconv.FormatInt(t.Seq, 10) }

// Less orders tags by node, then by sequence number.
func (t Tag) Less(u Tag) bool {
	if t.Node != u.Node {
		return t.Node < u.Node
	}
	return t.Seq < u.Seq
}

// Inst is one tagged instance of an element.
type Inst struct {
	E model.Value
	T Tag
}

// Key renders the instance as its element, '@' and its tag; instance maps
// are keyed by it.
func (i Inst) Key() string { return i.E.String() + "@" + i.T.String() }

// AppendInst appends the element, then the tag.
func AppendInst(b []byte, in Inst) []byte {
	b = codec.AppendValue(b, in.E)
	b = codec.AppendVarint(b, int64(in.T.Node))
	return codec.AppendVarint(b, in.T.Seq)
}

// DecodeInst decodes an instance encoded by AppendInst.
func DecodeInst(b []byte) (Inst, []byte, error) {
	e, rest, err := codec.DecodeValue(b)
	if err != nil {
		return Inst{}, nil, err
	}
	node, rest, err := codec.DecodeVarint(rest)
	if err != nil {
		return Inst{}, nil, err
	}
	seq, rest, err := codec.DecodeVarint(rest)
	if err != nil {
		return Inst{}, nil, err
	}
	return Inst{E: e, T: Tag{Node: model.NodeID(node), Seq: seq}}, rest, nil
}

// AppendInsts appends a count, then the instances in order.
func AppendInsts(b []byte, ins []Inst) []byte {
	b = codec.AppendUvarint(b, uint64(len(ins)))
	for _, in := range ins {
		b = AppendInst(b, in)
	}
	return b
}

// DecodeInsts decodes instances encoded by AppendInsts.
func DecodeInsts(b []byte) ([]Inst, []byte, error) {
	n, rest, err := codec.DecodeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	var out []Inst
	for i := uint64(0); i < n; i++ {
		var in Inst
		in, rest, err = DecodeInst(rest)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, in)
	}
	return out, rest, nil
}

// AppendMap appends an instance map keyed by Inst.Key, in key order.
func AppendMap(b []byte, m map[string]Inst) []byte {
	keys := sortedKeys(m)
	b = codec.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = AppendInst(b, m[k])
	}
	return b
}

// DecodeMap decodes an instance map encoded by AppendMap.
func DecodeMap(b []byte) (map[string]Inst, []byte, error) {
	n, rest, err := codec.DecodeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	m := map[string]Inst{}
	var prev string
	for i := uint64(0); i < n; i++ {
		var in Inst
		in, rest, err = DecodeInst(rest)
		if err != nil {
			return nil, nil, err
		}
		k := in.Key()
		if err := codec.Ascending(i, prev, k); err != nil {
			return nil, nil, err
		}
		m[k], prev = in, k
	}
	return m, rest, nil
}

// AppendKeys appends a set of instance keys, in order. The keys travel as
// strings, independently of any instance map, so a state stays decodable
// when a key arrives before its instance under non-causal delivery.
func AppendKeys(b []byte, m map[string]bool) []byte {
	keys := sortedKeys(m)
	b = codec.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = codec.AppendString(b, k)
	}
	return b
}

// DecodeKeys decodes a key set encoded by AppendKeys.
func DecodeKeys(b []byte) (map[string]bool, []byte, error) {
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

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
