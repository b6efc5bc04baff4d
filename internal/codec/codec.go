// Package codec implements the canonical binary encoding shared by every
// layer of the reproduction: model values and ops, each registry algorithm's
// states and effectors, and the simulator's wire frames.
//
// The encoding is deterministic, length-prefixed, and canonical: equal
// abstract objects always produce byte-equal encodings. That guarantee is
// what lets the encodings double as identity — the schedule explorers dedup
// visited configurations on 64-bit fingerprints of the canonical bytes
// (Cluster.Fingerprint in internal/sim), and the conformance battery checks
// decode(encode(x)) == x and cross-replica byte-equality for every algorithm.
//
// Conventions:
//
//   - Integers use Go's varint/uvarint wire form (binary.AppendVarint).
//   - Strings and byte blobs are uvarint length-prefixed.
//   - Collections are count-prefixed and emitted in a deterministic order
//     that depends only on the collection's contents (sorted keys).
//   - Composite encodings are self-delimiting: a decoder consumes exactly
//     the bytes its encoder produced, so fields concatenate unambiguously.
//
// Decoders are strict: malformed input fails with an error wrapping
// ErrCorrupt, never a panic and never a silently "repaired" value.
package codec

import (
	"encoding/binary"
	"fmt"
	"math/big"

	"repro/internal/model"
)

// ErrCorrupt is the sentinel wrapped by every decoding failure: truncated
// input, an unknown tag, a non-canonical bool byte or varint, an over-long
// length prefix, collection entries out of key order or repeated, values
// nested too deep, a checksum mismatch, or trailing bytes after a complete
// decode.
// Callers test with errors.Is(err, codec.ErrCorrupt).
var ErrCorrupt = fmt.Errorf("codec: corrupt encoding")

// corruptf wraps ErrCorrupt with context.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// Done fails with ErrCorrupt when rest is non-empty. Per-algorithm decoders
// call it last: an encoding with trailing bytes is not canonical.
func Done(rest []byte) error {
	if len(rest) != 0 {
		return corruptf("%d trailing bytes", len(rest))
	}
	return nil
}

// ---------------------------------------------------------------------------
// Primitives.

// AppendUvarint appends x in uvarint form.
func AppendUvarint(b []byte, x uint64) []byte { return binary.AppendUvarint(b, x) }

// DecodeUvarint reads a uvarint and returns it with the remaining bytes.
func DecodeUvarint(b []byte) (uint64, []byte, error) {
	x, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, corruptf("bad uvarint")
	}
	if overlong(b, n) {
		return 0, nil, corruptf("over-long uvarint")
	}
	return x, b[n:], nil
}

// AppendVarint appends x in zig-zag varint form.
func AppendVarint(b []byte, x int64) []byte { return binary.AppendVarint(b, x) }

// DecodeVarint reads a varint and returns it with the remaining bytes.
func DecodeVarint(b []byte) (int64, []byte, error) {
	x, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, corruptf("bad varint")
	}
	if overlong(b, n) {
		return 0, nil, corruptf("over-long varint")
	}
	return x, b[n:], nil
}

// overlong reports whether the n-byte varint at the start of b has a longer
// form than needed: more than one byte, the last of them zero. The binary
// package reads such a form (80 00 as 0), but AppendUvarint and
// AppendVarint never write one, so it is not canonical.
func overlong(b []byte, n int) bool { return n > 1 && b[n-1] == 0 }

// Ascending fails with ErrCorrupt unless key exceeds prev, the key of the
// entry before it. Encoders write a keyed collection's entries in strictly
// increasing key order, so its decoder calls Ascending for entry i: an
// entry after the first (i > 0) that is out of order or repeated has no
// canonical encoding, and the later of two entries for one key would
// silently win.
func Ascending(i uint64, prev, key string) error {
	if i > 0 && key <= prev {
		return corruptf("key %q after %q", key, prev)
	}
	return nil
}

// AppendBool appends a strict boolean byte: 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// DecodeBool reads a boolean byte, rejecting anything but 0 and 1 so that a
// bool has exactly one encoding.
func DecodeBool(b []byte) (bool, []byte, error) {
	if len(b) == 0 {
		return false, nil, corruptf("truncated bool")
	}
	switch b[0] {
	case 0:
		return false, b[1:], nil
	case 1:
		return true, b[1:], nil
	default:
		return false, nil, corruptf("bool byte %d", b[0])
	}
}

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// DecodeString reads a length-prefixed string.
func DecodeString(b []byte) (string, []byte, error) {
	n, rest, err := DecodeUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(rest)) {
		return "", nil, corruptf("string length %d exceeds %d remaining bytes", n, len(rest))
	}
	return string(rest[:n]), rest[n:], nil
}

// AppendBytes appends a length-prefixed byte blob.
func AppendBytes(b, blob []byte) []byte {
	b = AppendUvarint(b, uint64(len(blob)))
	return append(b, blob...)
}

// DecodeBytes reads a length-prefixed byte blob (aliasing the input).
func DecodeBytes(b []byte) ([]byte, []byte, error) {
	n, rest, err := DecodeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, corruptf("blob length %d exceeds %d remaining bytes", n, len(rest))
	}
	return rest[:n], rest[n:], nil
}

// DecodeTag reads a one-byte effector tag. Tag 0 is reserved for
// crdt.IdEff across all algorithms; each algorithm numbers its own
// effectors from 1.
func DecodeTag(b []byte) (byte, []byte, error) {
	if len(b) == 0 {
		return 0, nil, corruptf("truncated effector tag")
	}
	return b[0], b[1:], nil
}

// TagIdentity is the effector tag shared by crdt.IdEff in every algorithm.
const TagIdentity byte = 0

// BadTag is the error every effector decoder returns for a tag outside its
// algorithm's range.
func BadTag(tag byte) error { return corruptf("unknown effector tag %d", tag) }

// ---------------------------------------------------------------------------
// Model types.

// AppendValue appends the canonical encoding of v: a kind byte followed by
// the kind's payload (nothing, strict bool, varint, length-prefixed string,
// two values, or count-prefixed values). Value equality is structural, so
// equal values encode to equal bytes.
func AppendValue(b []byte, v model.Value) []byte {
	b = append(b, byte(v.Kind()))
	switch v.Kind() {
	case model.KindNil:
	case model.KindBool:
		x, _ := v.AsBool()
		b = AppendBool(b, x)
	case model.KindInt:
		x, _ := v.AsInt()
		b = AppendVarint(b, x)
	case model.KindString:
		x, _ := v.AsString()
		b = AppendString(b, x)
	case model.KindPair:
		a, c, _ := v.AsPair()
		b = AppendValue(b, a)
		b = AppendValue(b, c)
	case model.KindList:
		xs, _ := v.AsList()
		b = AppendUvarint(b, uint64(len(xs)))
		for _, x := range xs {
			b = AppendValue(b, x)
		}
	default:
		panic(fmt.Sprintf("codec: unencodable value kind %v", v.Kind()))
	}
	return b
}

// maxValueDepth bounds how deep DecodeValue lets pairs and lists nest.
// Effector decoders run it on peer payloads, and each level costs a stack
// frame: without a bound a few megabytes of nested pair tags would grow the
// receiver's stack past Go's limit, a fatal error and not a panic. A value
// nested deeper still encodes, but no receiver accepts it.
const maxValueDepth = 1000

// DecodeValue reads one value, rejecting unknown kind tags and pairs or
// lists nested more than maxValueDepth deep.
func DecodeValue(b []byte) (model.Value, []byte, error) { return decodeValue(b, 0) }

// decodeValue reads one value inside depth enclosing pairs and lists.
func decodeValue(b []byte, depth int) (model.Value, []byte, error) {
	if len(b) == 0 {
		return model.Nil(), nil, corruptf("truncated value")
	}
	kind, b := model.Kind(b[0]), b[1:]
	switch kind {
	case model.KindNil:
		return model.Nil(), b, nil
	case model.KindBool:
		x, rest, err := DecodeBool(b)
		if err != nil {
			return model.Nil(), nil, err
		}
		return model.Bool(x), rest, nil
	case model.KindInt:
		x, rest, err := DecodeVarint(b)
		if err != nil {
			return model.Nil(), nil, err
		}
		return model.Int(x), rest, nil
	case model.KindString:
		x, rest, err := DecodeString(b)
		if err != nil {
			return model.Nil(), nil, err
		}
		return model.Str(x), rest, nil
	case model.KindPair:
		if depth == maxValueDepth {
			return model.Nil(), nil, corruptf("values nested deeper than %d", maxValueDepth)
		}
		a, rest, err := decodeValue(b, depth+1)
		if err != nil {
			return model.Nil(), nil, err
		}
		c, rest, err := decodeValue(rest, depth+1)
		if err != nil {
			return model.Nil(), nil, err
		}
		return model.Pair(a, c), rest, nil
	case model.KindList:
		if depth == maxValueDepth {
			return model.Nil(), nil, corruptf("values nested deeper than %d", maxValueDepth)
		}
		n, rest, err := DecodeUvarint(b)
		if err != nil {
			return model.Nil(), nil, err
		}
		if n > uint64(len(rest)) { // each element costs ≥ 1 byte
			return model.Nil(), nil, corruptf("list length %d exceeds %d remaining bytes", n, len(rest))
		}
		xs := make([]model.Value, 0, n)
		for i := uint64(0); i < n; i++ {
			var x model.Value
			x, rest, err = decodeValue(rest, depth+1)
			if err != nil {
				return model.Nil(), nil, err
			}
			xs = append(xs, x)
		}
		return model.ListOf(xs), rest, nil
	default:
		return model.Nil(), nil, corruptf("value kind %d", byte(kind))
	}
}

// AppendOp appends an operation: name then argument.
func AppendOp(b []byte, op model.Op) []byte {
	b = AppendString(b, string(op.Name))
	return AppendValue(b, op.Arg)
}

// DecodeOp reads one operation.
func DecodeOp(b []byte) (model.Op, []byte, error) {
	name, rest, err := DecodeString(b)
	if err != nil {
		return model.Op{}, nil, err
	}
	arg, rest, err := DecodeValue(rest)
	if err != nil {
		return model.Op{}, nil, err
	}
	return model.Op{Name: model.OpName(name), Arg: arg}, rest, nil
}

// AppendStamp appends a Lamport-style timestamp: varint N, varint node.
func AppendStamp(b []byte, s model.Stamp) []byte {
	b = AppendVarint(b, s.N)
	return AppendVarint(b, int64(s.Node))
}

// DecodeStamp reads one timestamp.
func DecodeStamp(b []byte) (model.Stamp, []byte, error) {
	n, rest, err := DecodeVarint(b)
	if err != nil {
		return model.Stamp{}, nil, err
	}
	node, rest, err := DecodeVarint(rest)
	if err != nil {
		return model.Stamp{}, nil, err
	}
	return model.Stamp{N: n, Node: model.NodeID(node)}, rest, nil
}

// AppendValueSet appends a value set: count, then the elements in the set's
// canonical (sorted) order — a pure function of the set's contents, so equal
// sets encode to equal bytes.
func AppendValueSet(b []byte, s *model.ValueSet) []byte {
	elems := s.Elems()
	b = AppendUvarint(b, uint64(len(elems)))
	for _, e := range elems {
		b = AppendValue(b, e)
	}
	return b
}

// DecodeValueSet reads one value set, rejecting elements that are not in
// strictly increasing order: AppendValueSet's canonical order admits no
// other, and a repeated element would shrink the set.
func DecodeValueSet(b []byte) (*model.ValueSet, []byte, error) {
	n, rest, err := DecodeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, corruptf("set length %d exceeds %d remaining bytes", n, len(rest))
	}
	s := model.NewValueSet()
	var prev model.Value
	for i := uint64(0); i < n; i++ {
		var e model.Value
		e, rest, err = DecodeValue(rest)
		if err != nil {
			return nil, nil, err
		}
		if i > 0 && e.Compare(prev) <= 0 {
			return nil, nil, corruptf("set element %s after %s", e, prev)
		}
		s.Add(e)
		prev = e
	}
	return s, rest, nil
}

// AppendRat appends a rational: sign byte (0/1/2 for zero/positive/negative),
// then the numerator's and denominator's minimal big-endian magnitude bytes.
// big.Rat is always kept in lowest terms with a positive denominator, so the
// encoding is canonical.
func AppendRat(b []byte, r *big.Rat) []byte {
	switch r.Sign() {
	case 0:
		return append(b, 0)
	case 1:
		b = append(b, 1)
	default:
		b = append(b, 2)
	}
	b = AppendBytes(b, r.Num().Bytes())
	return AppendBytes(b, r.Denom().Bytes())
}

// DecodeRat reads one rational, rejecting non-canonical forms (a zero with
// payload bytes, a zero denominator, or a fraction not in lowest terms).
func DecodeRat(b []byte) (*big.Rat, []byte, error) {
	if len(b) == 0 {
		return nil, nil, corruptf("truncated rational")
	}
	sign, b := b[0], b[1:]
	if sign == 0 {
		return new(big.Rat), b, nil
	}
	if sign > 2 {
		return nil, nil, corruptf("rational sign byte %d", sign)
	}
	numBytes, rest, err := DecodeBytes(b)
	if err != nil {
		return nil, nil, err
	}
	denBytes, rest, err := DecodeBytes(rest)
	if err != nil {
		return nil, nil, err
	}
	num := new(big.Int).SetBytes(numBytes)
	den := new(big.Int).SetBytes(denBytes)
	if num.Sign() == 0 || den.Sign() == 0 {
		return nil, nil, corruptf("rational with zero component")
	}
	if sign == 2 {
		num.Neg(num)
	}
	r := new(big.Rat).SetFrac(num, den)
	// SetFrac reduces; a non-reduced input would re-encode differently.
	if r.Num().CmpAbs(num) != 0 || r.Denom().Cmp(den) != 0 {
		return nil, nil, corruptf("rational not in lowest terms")
	}
	return r, rest, nil
}

// ---------------------------------------------------------------------------
// Wire frames and fingerprints.

// frame layout: uvarint payload length · payload · 8-byte big-endian FNV-1a.

// AppendFrame appends a wire frame around payload: a length prefix and an
// FNV-1a checksum. The checksum is what makes in-flight corruption
// detectable — any bit flip in the frame fails DecodeFrame with ErrCorrupt
// instead of handing garbage to an effector decoder.
func AppendFrame(b, payload []byte) []byte {
	b = AppendBytes(b, payload)
	return binary.BigEndian.AppendUint64(b, Fingerprint(payload))
}

// DecodeFrame reads one frame, verifying length and checksum, and returns
// the payload (aliasing the input) with the remaining bytes.
func DecodeFrame(b []byte) ([]byte, []byte, error) {
	payload, rest, err := DecodeBytes(b)
	if err != nil {
		return nil, nil, err
	}
	if len(rest) < 8 {
		return nil, nil, corruptf("truncated frame checksum")
	}
	if binary.BigEndian.Uint64(rest) != Fingerprint(payload) {
		return nil, nil, corruptf("frame checksum mismatch")
	}
	return payload, rest[8:], nil
}

// Fingerprint hashes b to 64 bits with FNV-1a. On canonical encodings it is
// a content fingerprint: equal objects hash equal, distinct objects collide
// with probability ~2⁻⁶⁴ per pair — negligible at the explorers' ≤ 2×10⁷
// state budgets.
func Fingerprint(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}
