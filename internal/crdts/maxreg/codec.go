package maxreg

import (
	"repro/internal/codec"
	"repro/internal/crdt"
)

// Effector tags (0 is crdt.IdEff).
const tagWrite byte = 1

// AppendBinary implements crdt.State: the maximum seen.
func (s State) AppendBinary(b []byte) []byte { return codec.AppendVarint(b, s.V) }

// AppendBinary implements crdt.Effector: the written value.
func (d WriteEff) AppendBinary(b []byte) []byte {
	return codec.AppendVarint(append(b, tagWrite), d.N)
}

// DecodeState decodes a max-register state encoded by State.AppendBinary.
func DecodeState(b []byte) (crdt.State, error) {
	d := codec.NewDecoder(b)
	return codec.Result[crdt.State](&d, State{V: d.Varint()})
}

// DecodeEffector decodes a max-register effector encoded by AppendBinary.
func DecodeEffector(b []byte) (crdt.Effector, error) {
	d := codec.NewDecoder(b)
	var eff crdt.Effector = crdt.IdEff{}
	switch tag := d.Tag(); tag {
	case codec.TagIdentity:
	case tagWrite:
		eff = WriteEff{N: d.Varint()}
	default:
		d.Fail("unknown effector tag %d", tag)
	}
	return codec.Result(&d, eff)
}
