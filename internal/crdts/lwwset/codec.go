package lwwset

import (
	"sort"

	"repro/internal/codec"
	"repro/internal/crdt"
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
		b = codec.AppendValue(b, e.E)
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
	d := codec.NewDecoder(b)
	st := State{Entries: map[string]entry{}}
	var prev string
	for i := range d.Count() {
		e := entry{E: d.Value(), TS: d.Stamp(), Present: d.Bool()}
		k := e.E.String()
		d.Ascending(i, prev, k)
		st.Entries[k], prev = e, k
	}
	st.TS = d.Stamp()
	return codec.Result[crdt.State](&d, st)
}

// DecodeEffector decodes an LWW-element-set effector encoded by AppendBinary.
func DecodeEffector(b []byte) (crdt.Effector, error) {
	d := codec.NewDecoder(b)
	var eff crdt.Effector = crdt.IdEff{}
	switch tag := d.Tag(); tag {
	case codec.TagIdentity:
	case tagAdd, tagRmv:
		eff = OpEff{E: d.Value(), I: d.Stamp(), Present: tag == tagAdd}
	default:
		d.Fail("unknown effector tag %d", tag)
	}
	return codec.Result(&d, eff)
}
