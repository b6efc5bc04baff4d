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

// ReadInst reads an instance encoded by AppendInst.
func ReadInst(d *codec.Decoder) Inst {
	return Inst{E: d.Value(), T: Tag{Node: model.NodeID(d.Varint()), Seq: d.Varint()}}
}

// AppendInsts appends a count, then the instances in order.
func AppendInsts(b []byte, ins []Inst) []byte {
	b = codec.AppendUvarint(b, uint64(len(ins)))
	for _, in := range ins {
		b = AppendInst(b, in)
	}
	return b
}

// ReadInsts reads instances encoded by AppendInsts.
func ReadInsts(d *codec.Decoder) []Inst {
	var out []Inst
	for range d.Count() {
		out = append(out, ReadInst(d))
	}
	return out
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

// ReadMap reads an instance map encoded by AppendMap.
func ReadMap(d *codec.Decoder) map[string]Inst {
	m := map[string]Inst{}
	var prev string
	for i := range d.Count() {
		in := ReadInst(d)
		k := in.Key()
		d.Ascending(i, prev, k)
		m[k], prev = in, k
	}
	return m
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

// ReadKeys reads a key set encoded by AppendKeys.
func ReadKeys(d *codec.Decoder) map[string]bool {
	m := map[string]bool{}
	var prev string
	for i := range d.Count() {
		k := d.Str()
		d.Ascending(i, prev, k)
		m[k], prev = true, k
	}
	return m
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
