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

// readComp reads a component written by appendComp.
func readComp(d *codec.Decoder) Comp {
	return Comp{R: d.Rat(), Node: model.NodeID(d.Varint()), Seq: d.Varint()}
}

// appendTag appends a position tag: its component path, count-prefixed.
func appendTag(b []byte, t Tag) []byte {
	b = codec.AppendUvarint(b, uint64(len(t.Path)))
	for _, c := range t.Path {
		b = appendComp(b, c)
	}
	return b
}

// readTag reads a tag written by appendTag.
func readTag(d *codec.Decoder) Tag {
	var t Tag
	for range d.Count() {
		t.Path = append(t.Path, readComp(d))
	}
	return t
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
	d := codec.NewDecoder(b)
	st := State{Added: map[string]rec{}}
	var prev string
	for i := range d.Count() {
		r := rec{E: d.Value(), T: readTag(&d), Anchor: d.Value()}
		k := r.E.String()
		d.Ascending(i, prev, k)
		st.Added[k], prev = r, k
	}
	st.Dead = d.ValueSet()
	return codec.Result[crdt.State](&d, st)
}

// DecodeEffector decodes a continuous-sequence effector encoded by
// AppendBinary.
func DecodeEffector(b []byte) (crdt.Effector, error) {
	d := codec.NewDecoder(b)
	var eff crdt.Effector = crdt.IdEff{}
	switch tag := d.Tag(); tag {
	case codec.TagIdentity:
	case tagAdd:
		a := AddEff{Anchor: d.Value()}
		if d.Bool() {
			at := readTag(&d)
			a.ATag = &at
		}
		a.T, a.B = readTag(&d), d.Value()
		eff = a
	case tagRmv:
		eff = RmvEff{E: d.Value()}
	default:
		d.Fail("unknown effector tag %d", tag)
	}
	return codec.Result(&d, eff)
}
