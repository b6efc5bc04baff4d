package transport

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/model"
)

// FuzzFrameDecode throws arbitrary bytes at the frame codec — the layer the
// \x04 layout change touched, now carrying an object ID between the kind and
// the mid. Both the single-frame wire envelope and the batch container are
// driven from the same input. Whatever the bytes: no panic, every rejection
// wraps codec.ErrCorrupt (batch rejections through *BatchError), every
// accepted frame re-encodes to bytes that decode back to the same frame,
// object ID included, and its envelope size computed without encoding
// (wireLen, what the endpoints charge their ledgers) is the encoded size.
func FuzzFrameDecode(f *testing.F) {
	// Object-ID-bearing seeds: the degenerate object 0, small IDs, and one
	// beyond a single varint byte.
	f.Add(EncodeWire(Frame{Kind: KindEffector, Obj: 0, MID: 1, From: 0, Payload: []byte("a")}))
	f.Add(EncodeWire(Frame{Kind: KindEffector, Obj: 1, MID: 7, From: 2, Deps: []model.MsgID{3, 5}, Payload: []byte("pay")}))
	f.Add(EncodeWire(Frame{Kind: KindSnapshot, Obj: 300, MID: 9, From: 1, Payload: []byte("snap")}))
	f.Add(EncodeWire(Frame{Kind: KindSnapshotRequest, Obj: 4, MID: 2, From: 2}))
	// Frontier deps with an empty payload: a done frame's acknowledgements.
	f.Add(EncodeWire(Frame{Kind: KindDone, Obj: 2, MID: 130, From: 1, Deps: []model.MsgID{1, 129, 1 << 20}}))
	// A batch container interleaving three objects' frames — one flush of a
	// multiplexed endpoint.
	f.Add(EncodeBatch([]Frame{
		{Kind: KindEffector, Obj: 1, MID: 4, From: 0, Payload: []byte("x")},
		{Kind: KindEffector, Obj: 2, MID: 4, From: 0, Payload: []byte("y")},
		{Kind: KindDone, Obj: 3, MID: 5, From: 0, Payload: codec.AppendUvarint(nil, 2)},
	}))
	// A pre-\x04 frame inside a valid checksum envelope: the handshake gate
	// normally refuses the connection, but bytes that cross anyway must be
	// rejected structurally, not misparsed.
	f.Add(codec.AppendFrame(nil, oldFrameAppend(Frame{Kind: KindEffector, MID: 5, From: 2, Payload: []byte("xy")}, nil)))
	f.Add([]byte{})
	f.Add([]byte{0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		if fr, err := DecodeWire(data); err == nil {
			re := EncodeWire(fr)
			if fr.wireLen() != len(re) {
				t.Fatalf("frame %+v: wireLen %d, encoded %d bytes", fr, fr.wireLen(), len(re))
			}
			fr2, err2 := DecodeWire(re)
			if err2 != nil {
				t.Fatalf("accepted frame %+v did not re-decode: %v", fr, err2)
			}
			if !reflect.DeepEqual(fr, fr2) {
				t.Fatalf("re-encode changed the frame: %+v vs %+v", fr, fr2)
			}
		} else if !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("wire rejection does not wrap codec.ErrCorrupt: %v", err)
		}

		frames, err := DecodeBatch(data)
		if err != nil && !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("batch rejection does not wrap codec.ErrCorrupt: %v", err)
		}
		for _, fr := range frames {
			re := EncodeWire(fr)
			if fr.wireLen() != len(re) {
				t.Fatalf("batch frame %+v: wireLen %d, encoded %d bytes", fr, fr.wireLen(), len(re))
			}
			fr2, err2 := DecodeWire(re)
			if err2 != nil || !reflect.DeepEqual(fr, fr2) {
				t.Fatalf("surviving batch frame unstable: %+v vs %+v (err=%v)", fr, fr2, err2)
			}
		}
	})
}
