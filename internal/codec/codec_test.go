package codec

import (
	"bytes"
	"errors"
	"math"
	"math/big"
	"testing"

	"repro/internal/model"
)

// decode reads b with read and requires every byte consumed: one complete
// encoding, the contract each registry decoder keeps with Done.
func decode[T any](b []byte, read func(*Decoder) T) (T, error) {
	d := NewDecoder(b)
	return Result(&d, read(&d))
}

// TestIntegerRoundTrip: varint/uvarint primitives invert over edge values.
func TestIntegerRoundTrip(t *testing.T) {
	for _, x := range []uint64{0, 1, 127, 128, 1 << 20, math.MaxUint64} {
		v, err := decode(AppendUvarint(nil, x), (*Decoder).Uvarint)
		if err != nil || v != x {
			t.Fatalf("uvarint %d: got %d, err %v", x, v, err)
		}
	}
	for _, x := range []int64{0, 1, -1, 63, -64, math.MaxInt64, math.MinInt64} {
		v, err := decode(AppendVarint(nil, x), (*Decoder).Varint)
		if err != nil || v != x {
			t.Fatalf("varint %d: got %d, err %v", x, v, err)
		}
	}
}

// TestPrimitiveRoundTrip: bools, strings and blobs invert and re-encode
// byte-equal.
func TestPrimitiveRoundTrip(t *testing.T) {
	for _, v := range []bool{false, true} {
		got, err := decode(AppendBool(nil, v), (*Decoder).Bool)
		if err != nil || got != v {
			t.Fatalf("bool %v: got %v, err %v", v, got, err)
		}
	}
	for _, s := range []string{"", "a", "héllo wörld", string([]byte{0, 255, 1})} {
		got, err := decode(AppendString(nil, s), (*Decoder).Str)
		if err != nil || got != s {
			t.Fatalf("string %q: got %q, err %v", s, got, err)
		}
	}
	blob := []byte{9, 8, 7, 0}
	got, err := decode(AppendBytes(nil, blob), (*Decoder).Bytes)
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("bytes: got %v, err %v", got, err)
	}
}

func values() []model.Value {
	return []model.Value{
		model.Nil(),
		model.Bool(false),
		model.Bool(true),
		model.Int(0),
		model.Int(-42),
		model.Int(math.MaxInt64),
		model.Str(""),
		model.Str("abc"),
		model.Pair(model.Int(1), model.Str("x")),
		model.Pair(model.Pair(model.Nil(), model.Bool(true)), model.List()),
		model.List(),
		model.List(model.Int(1), model.Str("two"), model.List(model.Int(3))),
	}
}

// TestValueRoundTrip: every value kind inverts, and equal values encode
// byte-equal (the canonical-form contract).
func TestValueRoundTrip(t *testing.T) {
	for _, v := range values() {
		enc := AppendValue(nil, v)
		got, err := decode(enc, (*Decoder).Value)
		if err != nil {
			t.Fatalf("value %s: err %v", v, err)
		}
		if !got.Equal(v) {
			t.Fatalf("value %s decoded to %s", v, got)
		}
		if !bytes.Equal(AppendValue(nil, got), enc) {
			t.Fatalf("value %s re-encoded differently", v)
		}
	}
}

// nested wraps Int(1) in depth pairs or lists, alternating when mixed.
func nested(depth int, list, mixed bool) model.Value {
	v := model.Int(1)
	for i := 0; i < depth; i++ {
		if list != (mixed && i%2 == 1) {
			v = model.List(v)
		} else {
			v = model.Pair(model.Nil(), v)
		}
	}
	return v
}

// TestDecodeValueDepthBound: pairs and lists nested maxValueDepth deep
// decode and re-encode; one level more fails with ErrCorrupt, and so does a
// run of pair tags far past the bound, which without it would grow the
// decoder's stack by one frame per byte.
func TestDecodeValueDepthBound(t *testing.T) {
	for _, shape := range []struct {
		name        string
		list, mixed bool
	}{{"pairs", false, false}, {"lists", true, false}, {"mixed", false, true}} {
		enc := AppendValue(nil, nested(maxValueDepth, shape.list, shape.mixed))
		got, err := decode(enc, (*Decoder).Value)
		if err != nil || !bytes.Equal(AppendValue(nil, got), enc) {
			t.Fatalf("%s at depth %d: err %v", shape.name, maxValueDepth, err)
		}
		enc = AppendValue(nil, nested(maxValueDepth+1, shape.list, shape.mixed))
		if _, err := decode(enc, (*Decoder).Value); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s at depth %d: err = %v, want ErrCorrupt", shape.name, maxValueDepth+1, err)
		}
	}
	tags := bytes.Repeat([]byte{byte(model.KindPair)}, 200_000)
	if _, err := decode(tags, (*Decoder).Value); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("200000 pair tags: err = %v, want ErrCorrupt", err)
	}
}

// TestOpStampSetRoundTrip: the composite model types invert.
func TestOpStampSetRoundTrip(t *testing.T) {
	op := model.Op{Name: "addAfter", Arg: model.Pair(model.Str("a"), model.Str("b"))}
	gotOp, err := decode(AppendOp(nil, op), (*Decoder).Op)
	if err != nil || gotOp.Name != op.Name || !gotOp.Arg.Equal(op.Arg) {
		t.Fatalf("op: got %v, err %v", gotOp, err)
	}
	st := model.Stamp{N: -3, Node: 7}
	gotSt, err := decode(AppendStamp(nil, st), (*Decoder).Stamp)
	if err != nil || gotSt != st {
		t.Fatalf("stamp: got %v, err %v", gotSt, err)
	}
	s := model.NewValueSet()
	s.Add(model.Str("b"))
	s.Add(model.Str("a"))
	s.Add(model.Int(5))
	enc := AppendValueSet(nil, s)
	gotSet, err := decode(enc, (*Decoder).ValueSet)
	if err != nil || !model.List(gotSet.Elems()...).Equal(model.List(s.Elems()...)) {
		t.Fatalf("set: got %v, err %v", gotSet, err)
	}
	if !bytes.Equal(AppendValueSet(nil, gotSet), enc) {
		t.Fatal("set re-encoded differently")
	}
	// Insertion order must not affect the encoding.
	s2 := model.NewValueSet()
	s2.Add(model.Int(5))
	s2.Add(model.Str("a"))
	s2.Add(model.Str("b"))
	if !bytes.Equal(AppendValueSet(nil, s2), enc) {
		t.Fatal("set encoding depends on insertion order")
	}
}

// TestRatRoundTrip: rationals invert and stay canonical.
func TestRatRoundTrip(t *testing.T) {
	for _, r := range []*big.Rat{
		new(big.Rat),
		big.NewRat(1, 2),
		big.NewRat(-3, 7),
		big.NewRat(123456789123456789, 2),
		new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(1), 100), big.NewInt(3)),
	} {
		enc := AppendRat(nil, r)
		got, err := decode(enc, (*Decoder).Rat)
		if err != nil || got.Cmp(r) != 0 {
			t.Fatalf("rat %s: got %s, err %v", r, got, err)
		}
		if !bytes.Equal(AppendRat(nil, got), enc) {
			t.Fatalf("rat %s re-encoded differently", r)
		}
	}
}

// TestDecodeRejectsMalformed: every malformed input fails with an error
// wrapping ErrCorrupt — the sentinel contract the wire layer relies on.
func TestDecodeRejectsMalformed(t *testing.T) {
	overlong := bytes.Repeat([]byte{0xff}, 11) // uvarint overflow
	var (
		uvarint  = (*Decoder).Uvarint
		varint   = (*Decoder).Varint
		str      = (*Decoder).Str
		value    = (*Decoder).Value
		valueSet = (*Decoder).ValueSet
		rat      = (*Decoder).Rat
	)
	cases := []struct {
		name string
		err  error
	}{
		{"uvarint empty", errOf(decode(nil, uvarint))},
		{"uvarint overflow", errOf(decode(overlong, uvarint))},
		{"uvarint over-long zero", errOf(decode([]byte{0x80, 0x00}, uvarint))},
		{"uvarint over-long 1", errOf(decode([]byte{0x81, 0x80, 0x00}, uvarint))},
		{"varint empty", errOf(decode(nil, varint))},
		{"varint over-long -1", errOf(decode([]byte{0x81, 0x00}, varint))},
		{"string length over-long", errOf(decode([]byte{0x81, 0x00, 'a'}, str))},
		{"bool empty", errOf(decode(nil, (*Decoder).Bool))},
		{"bool byte 2", errOf(decode([]byte{2}, (*Decoder).Bool))},
		{"string truncated", errOf(decode([]byte{5, 'a'}, str))},
		{"bytes truncated", errOf(decode([]byte{200, 1}, (*Decoder).Bytes))},
		{"count overruns", errOf(decode([]byte{3, 1, 2}, (*Decoder).Count))},
		{"tag empty", errOf(decode(nil, (*Decoder).Tag))},
		{"value empty", errOf(decode(nil, value))},
		{"value unknown kind", errOf(decode([]byte{0xee}, value))},
		{"value bool byte 7", errOf(decode(append(AppendValue(nil, model.Bool(true))[:1], 7), value))},
		{"list count overruns", errOf(decode(append([]byte{AppendValue(nil, model.List())[0]}, 200, 1), value))},
		{"pair truncated", errOf(decode(AppendValue(nil, model.Pair(model.Int(1), model.Int(2)))[:2], value))},
		{"op truncated", errOf(decode(AppendOp(nil, model.Op{Name: "inc", Arg: model.Int(1)})[:3], (*Decoder).Op))},
		{"stamp truncated", errOf(decode(nil, (*Decoder).Stamp))},
		{"set count overruns", errOf(decode([]byte{200, 1}, valueSet))},
		{"set out of order", errOf(decode(rawSet(model.Int(2), model.Int(1)), valueSet))},
		{"set element repeated", errOf(decode(rawSet(model.Str("a"), model.Str("a")), valueSet))},
		{"rat empty", errOf(decode(nil, rat))},
		{"rat sign 3", errOf(decode([]byte{3}, rat))},
		{"rat zero numerator", errOf(decode([]byte{1, 0, 1, 2}, rat))},
		{"rat zero denominator", errOf(decode([]byte{1, 1, 2, 0}, rat))},
		{"rat not lowest terms", errOf(decode([]byte{1, 1, 2, 1, 4}, rat))},
		{"rat numerator with a leading zero byte", errOf(decode([]byte{1, 2, 0, 1, 1, 2}, rat))},
		{"rat denominator with a leading zero byte", errOf(decode([]byte{2, 1, 1, 2, 0, 3}, rat))},
		{"rat zero magnitude byte", errOf(decode([]byte{1, 1, 0, 1, 2}, rat))},
		{"rat zero with payload trailing", errOf(decode([]byte{0, 1, 2}, rat))},
		{"frame truncated checksum", errOf(decode(AppendFrame(nil, []byte("abc"))[:5], frame))},
		{"done trailing", errOf(decode([]byte{1}, func(*Decoder) int { return 0 }))},
		{"bad tag", errOf(decode([]byte{9}, func(d *Decoder) byte {
			tag := d.Tag()
			d.Fail("unknown effector tag %d", tag)
			return tag
		}))},
	}
	for _, c := range cases {
		if !errors.Is(c.err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", c.name, c.err)
		}
	}
}

// TestDecoderFailureSticks: the first failure is the one Done reports, and
// every read after it returns its zero value and consumes nothing, even
// where bytes that would decode are left.
func TestDecoderFailureSticks(t *testing.T) {
	b := AppendBool(nil, true)
	b = append(b, 7) // a bool byte that is neither 0 nor 1
	b = AppendVarint(b, -5)
	b = AppendString(b, "abc")
	b = AppendValue(b, model.List(model.Int(1)))
	d := NewDecoder(b)
	if !d.Bool() || d.Err() != nil {
		t.Fatalf("first bool: err %v", d.Err())
	}
	d.Bool()
	first := d.Err()
	if !errors.Is(first, ErrCorrupt) || d.Len() != 0 {
		t.Fatalf("bool byte 7: err %v, %d bytes left", first, d.Len())
	}
	if x, s, v, n := d.Varint(), d.Str(), d.Value(), d.Count(); x != 0 || s != "" || !v.IsNil() || n != 0 {
		t.Fatalf("reads after the failure returned %d, %q, %s, %d", x, s, v, n)
	}
	d.Fail("a later failure")
	if err := d.Done(); err != first {
		t.Fatalf("Done = %v, want the first failure %v", err, first)
	}
}

// rawSet encodes vs as a value set in the order given, canonical or not.
func rawSet(vs ...model.Value) []byte {
	b := AppendUvarint(nil, uint64(len(vs)))
	for _, v := range vs {
		b = AppendValue(b, v)
	}
	return b
}

// errOf projects the error out of a decode so the table stays readable.
func errOf[T any](_ T, err error) error { return err }

// frame reads one frame and fails the decoder on a checksum mismatch, as
// the wire decoders do.
func frame(d *Decoder) []byte {
	p, ok := d.Frame()
	if !ok {
		d.Fail("frame checksum mismatch")
	}
	return p
}

// TestFrameDetectsEveryBitFlip: any single-bit flip anywhere in a frame —
// length prefix, payload or checksum — is rejected by Frame, as a frame cut
// short or a checksum mismatch. This is the property the simulator's
// corruption fault leans on.
func TestFrameDetectsEveryBitFlip(t *testing.T) {
	payload := []byte("canonical payload \x00\x01\x02")
	enc := AppendFrame(nil, payload)
	if got, err := decode(enc, frame); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("clean frame failed: %v", err)
	}
	for bit := 0; bit < len(enc)*8; bit++ {
		mangled := append([]byte(nil), enc...)
		mangled[bit/8] ^= 1 << (bit % 8)
		got, err := decode(mangled, frame)
		if err == nil && bytes.Equal(got, payload) {
			t.Fatalf("bit flip %d went undetected", bit)
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip %d: err = %v, want ErrCorrupt", bit, err)
		}
	}
}

// TestFrameConcatenation: frames are self-delimiting — two frames decode in
// sequence, and a frame whose checksum does not match is reported without
// failing the decoder, which stands past it.
func TestFrameConcatenation(t *testing.T) {
	b := AppendFrame(nil, []byte("one"))
	b[len(b)-1] ^= 1
	b = AppendFrame(b, []byte("two"))
	d := NewDecoder(b)
	if p1, ok := d.Frame(); ok || d.Err() != nil || string(p1) != "one" {
		t.Fatalf("first frame: %q, checksum ok %v, err %v", p1, ok, d.Err())
	}
	if p2, ok := d.Frame(); !ok || string(p2) != "two" || d.Done() != nil {
		t.Fatalf("second frame: %q, checksum ok %v, err %v", p2, ok, d.Done())
	}
}

// TestUnframe: Unframe returns the payload of exactly one intact frame and
// fails, wrapping ErrCorrupt, on a checksum mismatch, a frame cut short and
// trailing bytes, with the texts the single-frame callers always reported.
func TestUnframe(t *testing.T) {
	enc := AppendFrame(nil, []byte("payload"))
	if got, err := Unframe(enc); err != nil || string(got) != "payload" {
		t.Fatalf("intact frame: %q, %v", got, err)
	}
	flipped := append([]byte(nil), enc...)
	flipped[len(flipped)-1] ^= 1
	for _, c := range []struct {
		name string
		b    []byte
		want string
	}{
		{"checksum mismatch", flipped, "codec: corrupt encoding: frame checksum mismatch"},
		{"cut short", enc[:len(enc)-1], "codec: corrupt encoding: truncated input"},
		{"trailing bytes", append(append([]byte(nil), enc...), 0), "codec: corrupt encoding: 1 trailing bytes"},
	} {
		got, err := Unframe(c.b)
		if got != nil || !errors.Is(err, ErrCorrupt) || err.Error() != c.want {
			t.Errorf("%s: %q, %v; want %q", c.name, got, err, c.want)
		}
	}
}

// TestFingerprintDistinguishes: the fingerprint separates the cheap cases a
// weaker hash might merge.
func TestFingerprintDistinguishes(t *testing.T) {
	if Fingerprint([]byte("ab")) == Fingerprint([]byte("ba")) {
		t.Fatal("fingerprint is order-insensitive")
	}
	if Fingerprint(nil) == Fingerprint([]byte{0}) {
		t.Fatal("fingerprint ignores a zero byte")
	}
}

// FuzzValue decodes arbitrary bytes as up to two values. Each value that
// decodes must re-encode to exactly the bytes it was read from, answer only
// the accessor of its kind, and compare equal to itself; the two values
// must compare antisymmetrically, and render equal exactly when they are
// Equal. A failed decode must wrap ErrCorrupt.
func FuzzValue(f *testing.F) {
	for _, v := range []model.Value{model.Int(math.MinInt64), model.Int(-1), model.Str(""), model.List(),
		model.Pair(model.Nil(), model.Nil()), nested(maxValueDepth, false, true)} {
		f.Add(AppendValue(nil, v))
	}
	f.Add(AppendValue(AppendValue(nil, model.Int(-1)), model.Str("")))
	f.Fuzz(func(t *testing.T, data []byte) {
		var vs []model.Value
		d := NewDecoder(data)
		for len(vs) < 2 && d.Len() > 0 {
			start := len(data) - d.Len()
			v := d.Value()
			if err := d.Err(); err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%x: err = %v, want ErrCorrupt", data[start:], err)
				}
				break
			}
			read := data[start : len(data)-d.Len()]
			if enc := AppendValue(nil, v); !bytes.Equal(enc, read) {
				t.Fatalf("%x decoded to %s, which encodes as %x", read, v, enc)
			}
			checkAccessors(t, v)
			if v.Compare(v) != 0 || !v.Equal(v) {
				t.Fatalf("%s does not equal itself", v)
			}
			vs = append(vs, v)
		}
		if len(vs) < 2 {
			return
		}
		a, b := vs[0], vs[1]
		if c := a.Compare(b); c != -b.Compare(a) || (c == 0) != a.Equal(b) || (a.String() == b.String()) != a.Equal(b) {
			t.Fatalf("%s vs %s: Compare %d and %d, Equal %v", a, b, c, b.Compare(a), a.Equal(b))
		}
	})
}

// checkAccessors fails unless exactly the accessor of v's kind succeeds,
// on v and on every value inside it.
func checkAccessors(t *testing.T, v model.Value) {
	t.Helper()
	_, isBool := v.AsBool()
	_, isInt := v.AsInt()
	_, isStr := v.AsString()
	a, b, isPair := v.AsPair()
	xs, isList := v.AsList()
	ok := [...]bool{model.KindNil: v.IsNil(), model.KindBool: isBool, model.KindInt: isInt,
		model.KindString: isStr, model.KindPair: isPair, model.KindList: isList}
	for k, got := range ok {
		if got != (model.Kind(k) == v.Kind()) {
			t.Fatalf("%s of kind %v: the %v accessor reports %v", v, v.Kind(), model.Kind(k), got)
		}
	}
	if isPair {
		checkAccessors(t, a)
		checkAccessors(t, b)
	}
	for _, x := range xs {
		checkAccessors(t, x)
	}
}
