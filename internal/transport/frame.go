package transport

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/codec"
	"repro/internal/model"
)

// Inner frame layout (before the codec.AppendFrame checksum envelope):
//
//	kind · uvarint obj · uvarint mid · uvarint from · uvarint ndeps ·
//	ndeps×uvarint dep · bytes payload
//
// Deps are emitted sorted so equal frames encode byte-equal (the canonical
// form the rest of the codec layer guarantees). The obj field arrived with
// wire version \x04 (object multiplexing); the pre-\x04 layout without it is
// rejected by the handshake version byte before any frame is parsed, and a
// frame that still slips through misparses into a structural failure wrapping
// codec.ErrCorrupt — Decode consumes every byte and validates every field, so
// the shifted fields cannot decode cleanly.

// Append appends the frame's canonical inner encoding to b.
func (f Frame) Append(b []byte) []byte {
	b = append(b, f.Kind)
	b = codec.AppendUvarint(b, uint64(f.Obj))
	b = codec.AppendUvarint(b, uint64(f.MID))
	b = codec.AppendUvarint(b, uint64(f.From))
	deps := f.Deps
	if !strictlySorted(deps) {
		// Only hand-built frames get here: a Peer's deps are already sorted.
		deps = slices.Clone(deps)
		slices.Sort(deps)
	}
	b = codec.AppendUvarint(b, uint64(len(deps)))
	for _, d := range deps {
		b = codec.AppendUvarint(b, uint64(d))
	}
	return codec.AppendBytes(b, f.Payload)
}

// innerLen returns the length of the frame's inner encoding without encoding
// it. Sorting the deps does not change their encoded sizes, so hand-built
// frames with unsorted deps measure the same as their canonical form.
func (f Frame) innerLen() int {
	n := 1 + uvarintLen(uint64(f.Obj)) + uvarintLen(uint64(f.MID)) + uvarintLen(uint64(f.From)) + uvarintLen(uint64(len(f.Deps)))
	for _, d := range f.Deps {
		n += uvarintLen(uint64(d))
	}
	return n + uvarintLen(uint64(len(f.Payload))) + len(f.Payload)
}

// wireLen returns the size of the frame's checksummed envelope — its cost
// nested in a batch container — without encoding it.
func (f Frame) wireLen() int {
	n := f.innerLen()
	return uvarintLen(uint64(n)) + n + 8
}

// appendWire appends the frame's checksummed envelope to b — the
// codec.AppendFrame layout, with the inner encoding written in place. It is
// the one envelope writer behind EncodeWire, AppendBatch and the Stream's
// wire containers, so each frame is encoded once, into its destination.
func (f Frame) appendWire(b []byte) []byte {
	b = codec.AppendUvarint(b, uint64(f.innerLen()))
	start := len(b)
	b = f.Append(b)
	return binary.BigEndian.AppendUint64(b, codec.Fingerprint(b[start:]))
}

// uvarintLen returns the encoded size of x.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// strictlySorted reports whether deps ascend with no repeats.
func strictlySorted(deps []model.MsgID) bool {
	for i := 1; i < len(deps); i++ {
		if deps[i] <= deps[i-1] {
			return false
		}
	}
	return true
}

// Decode parses one inner frame encoding, requiring every byte to be
// consumed. Malformed input fails with an error wrapping codec.ErrCorrupt.
func Decode(b []byte) (Frame, error) {
	var f Frame
	if len(b) == 0 {
		return f, fmt.Errorf("%w: empty frame", codec.ErrCorrupt)
	}
	f.Kind = b[0]
	if !KindValid(f.Kind) {
		return f, fmt.Errorf("%w: unknown frame kind %d", codec.ErrCorrupt, f.Kind)
	}
	rest := b[1:]
	obj, rest, err := codec.DecodeUvarint(rest)
	if err != nil {
		return f, err
	}
	f.Obj = ObjID(obj)
	mid, rest, err := codec.DecodeUvarint(rest)
	if err != nil {
		return f, err
	}
	f.MID = model.MsgID(mid)
	from, rest, err := codec.DecodeUvarint(rest)
	if err != nil {
		return f, err
	}
	f.From = model.NodeID(from)
	ndeps, rest, err := codec.DecodeUvarint(rest)
	if err != nil {
		return f, err
	}
	for i := uint64(0); i < ndeps; i++ {
		var d uint64
		if d, rest, err = codec.DecodeUvarint(rest); err != nil {
			return f, err
		}
		if i > 0 && model.MsgID(d) <= f.Deps[len(f.Deps)-1] {
			return f, fmt.Errorf("%w: frame deps not strictly sorted", codec.ErrCorrupt)
		}
		f.Deps = append(f.Deps, model.MsgID(d))
	}
	payload, rest, err := codec.DecodeBytes(rest)
	if err != nil {
		return f, err
	}
	if len(payload) > 0 {
		f.Payload = payload
	}
	if err := codec.Done(rest); err != nil {
		return f, err
	}
	return f, nil
}

// Retain returns a copy of the frame whose payload owns its bytes. Decode
// aliases the payload into the buffer it parsed — which may be a pooled
// receive buffer reclaimed once the frame has been handled — so any code that
// stores a received frame past its handler call (the hold-back map, the
// broadcast log) must retain it first. Deps is already freshly allocated by
// Decode and is never mutated, so only the payload needs the copy.
func (f Frame) Retain() Frame {
	if len(f.Payload) > 0 {
		f.Payload = append([]byte(nil), f.Payload...)
	}
	return f
}

// EncodeWire renders the frame in its on-the-wire form: the inner encoding
// wrapped in the checksummed codec frame envelope, so any bit flipped in
// transit fails DecodeWire instead of reaching a replica.
func EncodeWire(f Frame) []byte { return f.appendWire(make([]byte, 0, f.wireLen())) }

// DecodeWire inverts EncodeWire, verifying the checksum envelope and
// requiring the input to hold exactly one frame.
func DecodeWire(b []byte) (Frame, error) {
	inner, rest, err := codec.DecodeFrame(b)
	if err != nil {
		return Frame{}, err
	}
	if err := codec.Done(rest); err != nil {
		return Frame{}, err
	}
	return Decode(inner)
}

// Batch container layout (what one flush of a batching stream ships, itself
// length-prefixed on the wire):
//
//	uvarint count · count × (checksummed codec frame envelope)
//
// The container nests the per-frame envelopes EncodeWire produces, each with
// its own length prefix and checksum. Boundaries come from the nested length
// prefixes, so integrity is judged frame by frame: a corrupted nested frame
// is rejected alone while the frames around it still decode.

// AppendBatch appends the batch container holding frames to b.
func AppendBatch(b []byte, frames []Frame) []byte {
	b = codec.AppendUvarint(b, uint64(len(frames)))
	for _, f := range frames {
		b = f.appendWire(b)
	}
	return b
}

// EncodeBatch renders frames as one batch container.
func EncodeBatch(frames []Frame) []byte { return AppendBatch(nil, frames) }

// BatchError reports nested frames of a structurally sound batch that failed
// their own checksum or inner decoding. The surviving frames were decoded
// and delivered; only the listed indices were rejected.
type BatchError struct {
	// Rejected holds the container indices of the frames that failed.
	Rejected []int
	// First is the first frame's decode error (wrapping codec.ErrCorrupt).
	First error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("transport: batch rejected %d of its nested frames (first: %v)", len(e.Rejected), e.First)
}

func (e *BatchError) Unwrap() error { return e.First }

// DecodeBatch parses one batch container. Each nested frame envelope is
// verified independently: a frame whose checksum or inner encoding fails is
// skipped and reported in a *BatchError, while the remaining frames are
// returned in order. Structural corruption — a count or length prefix that
// no longer locates the frame boundaries, or trailing bytes — fails with an
// ordinary error wrapping codec.ErrCorrupt and voids the whole batch.
func DecodeBatch(b []byte) ([]Frame, error) { return appendBatch(nil, b) }

// appendBatch is DecodeBatch appending the decoded frames to frames, so a
// receive loop can reuse one slice across containers.
func appendBatch(frames []Frame, b []byte) ([]Frame, error) {
	count, rest, err := codec.DecodeUvarint(b)
	if err != nil {
		return nil, fmt.Errorf("%w: batch count: %v", codec.ErrCorrupt, err)
	}
	// Every nested envelope takes at least a length byte plus an 8-byte
	// checksum, so a count beyond that bound is a mangled prefix, not a batch.
	if count > uint64(len(rest)/9)+1 {
		return nil, fmt.Errorf("%w: batch count %d exceeds what %d bytes can hold", codec.ErrCorrupt, count, len(rest))
	}
	frames = slices.Grow(frames, int(count))
	var bad *BatchError
	reject := func(i uint64, err error) {
		if bad == nil {
			bad = &BatchError{First: fmt.Errorf("batch frame %d of %d: %w", i, count, err)}
		}
		bad.Rejected = append(bad.Rejected, int(i))
	}
	for i := uint64(0); i < count; i++ {
		var inner []byte
		inner, rest, err = codec.DecodeBytes(rest)
		if err != nil {
			// The envelope length prefix would not parse: without it the next
			// boundary is unknowable, so the rest of the batch is lost, not
			// just this frame.
			return frames, fmt.Errorf("%w: batch frame %d of %d: envelope: %v", codec.ErrCorrupt, i, count, err)
		}
		if len(rest) < 8 {
			return frames, fmt.Errorf("%w: batch frame %d of %d: truncated checksum", codec.ErrCorrupt, i, count)
		}
		sum := binary.BigEndian.Uint64(rest)
		rest = rest[8:]
		// From here the boundary is secured by the length prefix just
		// consumed: checksum or inner-decode failures reject this frame only.
		if sum != codec.Fingerprint(inner) {
			reject(i, fmt.Errorf("%w: frame checksum mismatch", codec.ErrCorrupt))
			continue
		}
		f, err := Decode(inner)
		if err != nil {
			reject(i, err)
			continue
		}
		frames = append(frames, f)
	}
	if err := codec.Done(rest); err != nil {
		return frames, fmt.Errorf("batch trailing bytes: %w", err)
	}
	if bad != nil {
		return frames, bad
	}
	return frames, nil
}
