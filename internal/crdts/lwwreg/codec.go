package lwwreg

import (
	"repro/internal/codec"
	"repro/internal/crdt"
)

// Effector tags (0 is crdt.IdEff).
const tagWrite byte = 1

// AppendBinary implements crdt.State: current value, then its stamp.
func (s State) AppendBinary(b []byte) []byte {
	b = codec.AppendValue(b, s.Cur)
	return codec.AppendStamp(b, s.TS)
}

// AppendBinary implements crdt.Effector: written value, then its stamp.
func (d WrEff) AppendBinary(b []byte) []byte {
	b = codec.AppendValue(append(b, tagWrite), d.V)
	return codec.AppendStamp(b, d.I)
}

// DecodeState decodes an LWW-register state encoded by State.AppendBinary.
func DecodeState(b []byte) (crdt.State, error) {
	d := codec.NewDecoder(b)
	return codec.Result[crdt.State](&d, State{Cur: d.Value(), TS: d.Stamp()})
}

// DecodeEffector decodes an LWW-register effector encoded by AppendBinary.
func DecodeEffector(b []byte) (crdt.Effector, error) {
	d := codec.NewDecoder(b)
	var eff crdt.Effector = crdt.IdEff{}
	switch tag := d.Tag(); tag {
	case codec.TagIdentity:
	case tagWrite:
		eff = WrEff{V: d.Value(), I: d.Stamp()}
	default:
		d.Fail("unknown effector tag %d", tag)
	}
	return codec.Result(&d, eff)
}
