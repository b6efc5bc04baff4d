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
// Every decoder reads through a Decoder, which is strict: malformed input
// fails with an error wrapping ErrCorrupt, never a panic and never a
// silently "repaired" value.
package codec

import (
	"encoding/binary"
	"fmt"
	"math/big"

	"repro/internal/model"
)

// ErrCorrupt is the sentinel wrapped by every decoding failure: truncated
// input, an unknown tag, a non-canonical bool byte, varint or rational, an
// over-long length prefix, collection entries out of key order or repeated,
// values nested too deep, a checksum mismatch, or trailing bytes after a
// complete decode.
// Callers test with errors.Is(err, codec.ErrCorrupt).
var ErrCorrupt = fmt.Errorf("codec: corrupt encoding")

// A Decoder reads one encoding front to back. It is the module's only way
// to decode, and it keeps the strictness contract so that no decoder
// restates it:
//
//   - The first failure sticks. It moves the read position to the end, so
//     every later read returns a zero or empty value and consumes nothing:
//     a decoder reads its fields unconditionally and checks once, at Done.
//   - Count bounds a collection's element count by the bytes left, since
//     every element takes at least one byte, so a corrupt count fails at
//     once and cannot spin a loop.
//   - Done rejects trailing bytes.
//
// The read position is an offset into the input, not a re-sliced []byte: a
// read stores one int through the pointer receiver, where storing a slice
// would pay a GC write barrier on every read. A Decoder lives on its
// caller's stack; pass it by pointer, not inside a func value or interface,
// either of which moves it to the heap.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder returns a Decoder reading b. Byte blobs it reads alias b.
func NewDecoder(b []byte) Decoder { return Decoder{b: b} }

// Err returns the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Done returns the first failure, or, when there is none, fails if any bytes
// are left: an encoding with trailing bytes is not canonical.
func (d *Decoder) Done() error {
	if d.err == nil && d.off != len(d.b) {
		d.Fail("%d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}

// Result ends a decoder: it returns v when d read its whole input without a
// failure, and otherwise the zero T and Done's error.
func Result[T any](d *Decoder, v T) (T, error) {
	if err := d.Done(); err != nil {
		var zero T
		return zero, err
	}
	return v, nil
}

// Fail records a failure wrapping ErrCorrupt, unless one is recorded
// already, and moves the read position to the end. Per-algorithm decoders
// call it for the checks of their own.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
	d.off = len(d.b)
}

// errTruncated is the failure of a read that finds too few bytes left.
var errTruncated = fmt.Errorf("%w: truncated input", ErrCorrupt)

// truncated records errTruncated, unless a failure is recorded already,
// and moves the read position to the end. It makes no call, so the reads
// of one byte that use it stay small enough to inline.
func (d *Decoder) truncated() {
	if d.err == nil {
		d.err = errTruncated
	}
	d.off = len(d.b)
}

// Len returns the number of unread bytes.
func (d *Decoder) Len() int { return len(d.b) - d.off }

// ---------------------------------------------------------------------------
// Primitives.

// AppendUvarint appends x in uvarint form.
func AppendUvarint(b []byte, x uint64) []byte { return binary.AppendUvarint(b, x) }

// Uvarint reads a uvarint.
func (d *Decoder) Uvarint() uint64 {
	x, n := binary.Uvarint(d.b[d.off:])
	if n == 0 {
		d.truncated()
		return 0
	}
	if n < 0 {
		d.Fail("uvarint overflows 64 bits")
		return 0
	}
	if overlong(d.b[d.off:], n) {
		d.Fail("over-long uvarint")
		return 0
	}
	d.off += n
	return x
}

// AppendVarint appends x in zig-zag varint form.
func AppendVarint(b []byte, x int64) []byte { return binary.AppendVarint(b, x) }

// Varint reads a varint.
func (d *Decoder) Varint() int64 {
	x, n := binary.Varint(d.b[d.off:])
	if n == 0 {
		d.truncated()
		return 0
	}
	if n < 0 {
		d.Fail("varint overflows 64 bits")
		return 0
	}
	if overlong(d.b[d.off:], n) {
		d.Fail("over-long varint")
		return 0
	}
	d.off += n
	return x
}

// overlong reports whether the n-byte varint at the start of b has a longer
// form than needed: more than one byte, the last of them zero. The binary
// package reads such a form (80 00 as 0), but AppendUvarint and
// AppendVarint never write one, so it is not canonical.
func overlong(b []byte, n int) bool { return n > 1 && b[n-1] == 0 }

// Count reads a collection's element count, failing when it exceeds the
// bytes left: every element takes at least one byte.
func (d *Decoder) Count() int {
	n := d.Uvarint()
	if n > uint64(d.Len()) {
		d.Fail("count %d exceeds the %d bytes left", n, d.Len())
		return 0
	}
	return int(n)
}

// Ascending fails the decoder unless key exceeds prev, the key of the entry
// before it. Encoders write a keyed collection's entries in strictly
// increasing key order, so its decoder calls Ascending for entry i: an
// entry after the first (i > 0) that is out of order or repeated has no
// canonical encoding, and the later of two entries for one key would
// silently win.
func (d *Decoder) Ascending(i int, prev, key string) {
	if i > 0 && key <= prev {
		d.Fail("key %q after %q", key, prev)
	}
}

// AppendBool appends a strict boolean byte: 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Bool reads a boolean byte, rejecting anything but 0 and 1 so that a bool
// has exactly one encoding.
func (d *Decoder) Bool() bool {
	switch b := d.Tag(); b {
	case 0:
		return false
	case 1:
		return true
	default:
		d.Fail("bool byte %d", b)
		return false
	}
}

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string { return string(d.Bytes()) }

// AppendBytes appends a length-prefixed byte blob.
func AppendBytes(b, blob []byte) []byte {
	b = AppendUvarint(b, uint64(len(blob)))
	return append(b, blob...)
}

// Bytes reads a length-prefixed byte blob, aliasing the input.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if n > uint64(d.Len()) {
		d.truncated()
		return nil
	}
	blob := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return blob
}

// Tag reads one byte: an effector tag, a frame kind or a sign. Tag 0 is
// reserved for crdt.IdEff across all algorithms; each algorithm numbers its
// own effectors from 1.
func (d *Decoder) Tag() byte {
	if d.off == len(d.b) {
		d.truncated()
		return 0
	}
	c := d.b[d.off]
	d.off++
	return c
}

// TagIdentity is the effector tag shared by crdt.IdEff in every algorithm.
const TagIdentity byte = 0

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

// maxValueDepth bounds how deep Value lets pairs and lists nest. Effector
// decoders run it on peer payloads, and each level costs a stack frame:
// without a bound a few megabytes of nested pair tags would grow the
// receiver's stack past Go's limit, a fatal error and not a panic. A value
// nested deeper still encodes, but no receiver accepts it.
const maxValueDepth = 1000

// Value reads one value, rejecting unknown kind tags and pairs or lists
// nested more than maxValueDepth deep.
func (d *Decoder) Value() model.Value { return d.value(0) }

// value reads one value inside depth enclosing pairs and lists.
func (d *Decoder) value(depth int) model.Value {
	switch kind := model.Kind(d.Tag()); kind {
	case model.KindNil:
		return model.Nil()
	case model.KindBool:
		return model.Bool(d.Bool())
	case model.KindInt:
		return model.Int(d.Varint())
	case model.KindString:
		return model.Str(d.Str())
	case model.KindPair, model.KindList:
		if depth == maxValueDepth {
			d.Fail("values nested deeper than %d", maxValueDepth)
			return model.Nil()
		}
		if kind == model.KindPair {
			return model.Pair(d.value(depth+1), d.value(depth+1))
		}
		n := d.Count()
		xs := make([]model.Value, 0, n)
		// Stop at the first failure: each enclosing list would otherwise
		// run out its count, up to maxValueDepth counts in all.
		for i := 0; i < n && d.err == nil; i++ {
			xs = append(xs, d.value(depth+1))
		}
		return model.ListOf(xs)
	default:
		d.Fail("value kind %d", byte(kind))
		return model.Nil()
	}
}

// AppendOp appends an operation: name then argument.
func AppendOp(b []byte, op model.Op) []byte {
	b = AppendString(b, string(op.Name))
	return AppendValue(b, op.Arg)
}

// Op reads one operation.
func (d *Decoder) Op() model.Op {
	return model.Op{Name: model.OpName(d.Str()), Arg: d.Value()}
}

// AppendStamp appends a Lamport-style timestamp: varint N, varint node.
func AppendStamp(b []byte, s model.Stamp) []byte {
	b = AppendVarint(b, s.N)
	return AppendVarint(b, int64(s.Node))
}

// Stamp reads one timestamp.
func (d *Decoder) Stamp() model.Stamp {
	return model.Stamp{N: d.Varint(), Node: model.NodeID(d.Varint())}
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

// ValueSet reads one value set, rejecting elements that are not in strictly
// increasing order: AppendValueSet's canonical order admits no other, and a
// repeated element would shrink the set.
func (d *Decoder) ValueSet() *model.ValueSet {
	n := d.Count()
	s := model.NewValueSet()
	var prev model.Value
	for i := range n {
		e := d.Value()
		if i > 0 && e.Compare(prev) <= 0 {
			d.Fail("set element %s after %s", e, prev)
		}
		s.Add(e)
		prev = e
	}
	return s
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

// Rat reads one rational, rejecting non-canonical forms: a magnitude that is
// empty (zero) or starts with a zero byte, or a fraction not in lowest
// terms. AppendRat writes the minimal big-endian bytes of non-zero
// magnitudes, so neither form is its output; big.Int.SetBytes would read a
// leading zero byte silently, and the rational would re-encode a byte
// shorter.
func (d *Decoder) Rat() *big.Rat {
	sign := d.Tag()
	switch {
	case d.err != nil:
		return nil
	case sign == 0:
		return new(big.Rat)
	case sign > 2:
		d.Fail("rational sign byte %d", sign)
		return nil
	}
	numBytes, denBytes := d.Bytes(), d.Bytes()
	if !minimal(numBytes) || !minimal(denBytes) {
		d.Fail("rational magnitudes %x/%x are not minimal and non-zero", numBytes, denBytes)
	}
	if d.err != nil {
		return nil
	}
	num := new(big.Int).SetBytes(numBytes)
	den := new(big.Int).SetBytes(denBytes)
	if sign == 2 {
		num.Neg(num)
	}
	r := new(big.Rat).SetFrac(num, den)
	// SetFrac reduces; a non-reduced input would re-encode differently.
	if r.Num().CmpAbs(num) != 0 || r.Denom().Cmp(den) != 0 {
		d.Fail("rational not in lowest terms")
		return nil
	}
	return r
}

// minimal reports whether m is the minimal big-endian form of a non-zero
// magnitude: not empty, and no leading zero byte.
func minimal(m []byte) bool { return len(m) > 0 && m[0] != 0 }

// ---------------------------------------------------------------------------
// Wire frames and fingerprints.

// frame layout: uvarint payload length · payload · 8-byte big-endian FNV-1a.

// AppendFrame appends a wire frame around payload: a length prefix and an
// FNV-1a checksum. The checksum is what makes in-flight corruption
// detectable — any bit flip in the frame fails Frame's checksum test
// instead of handing garbage to an effector decoder.
func AppendFrame(b, payload []byte) []byte {
	b = AppendBytes(b, payload)
	return binary.BigEndian.AppendUint64(b, Fingerprint(payload))
}

// Frame reads one frame and returns its payload, aliasing the input, and
// whether the payload matches its checksum. A frame cut short fails the
// decoder. A mismatched checksum does not: the decoder stands past the
// frame, so a container of frames can reject that frame alone and read on.
// A caller that needs the frame intact fails the decoder itself.
func (d *Decoder) Frame() (payload []byte, ok bool) {
	payload = d.Bytes()
	if d.Len() < 8 {
		d.truncated()
		return nil, false
	}
	sum := binary.BigEndian.Uint64(d.b[d.off:])
	d.off += 8
	return payload, sum == Fingerprint(payload)
}

// Unframe reads b as exactly one intact frame and returns its payload,
// aliasing b. It fails on a mismatched checksum, a frame cut short and
// trailing bytes: the unwrap before a single effector, state or transport
// frame is decoded.
func Unframe(b []byte) ([]byte, error) {
	d := NewDecoder(b)
	payload, ok := d.Frame()
	if !ok {
		d.Fail("frame checksum mismatch")
	}
	return Result(&d, payload)
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
