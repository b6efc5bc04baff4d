package rga

import (
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
func notSentinel(d *codec.Decoder, b model.Value) {
	if b.Equal(spec.Sentinel) {
		d.Fail("rga element %s is the sentinel", b)
	}
}

// DecodeState decodes an RGA state encoded by State.AppendBinary and
// rebuilds its sibling index.
func DecodeState(b []byte) (crdt.State, error) {
	d := codec.NewDecoder(b)
	st := State{N: map[string]Triple{}}
	var prev string
	for i := range d.Count() {
		t := Triple{A: d.Value(), I: d.Stamp(), B: d.Value()}
		notSentinel(&d, t.B)
		k := t.B.String()
		d.Ascending(i, prev, k)
		st.N[k], prev = t, k
	}
	st.T, st.TS = d.ValueSet(), d.Stamp()
	if err := d.Done(); err != nil {
		return nil, err
	}
	st.kids = index(st.N)
	return st, nil
}

// DecodeEffector decodes an RGA effector encoded by AppendBinary.
func DecodeEffector(b []byte) (crdt.Effector, error) {
	d := codec.NewDecoder(b)
	var eff crdt.Effector = crdt.IdEff{}
	switch tag := d.Tag(); tag {
	case codec.TagIdentity:
	case tagAddAft:
		a := AddAftEff{A: d.Value(), I: d.Stamp(), B: d.Value()}
		notSentinel(&d, a.B)
		eff = a
	case tagRmv:
		eff = RmvEff{A: d.Value()}
	default:
		d.Fail("unknown effector tag %d", tag)
	}
	return codec.Result(&d, eff)
}
