package codec

import (
	"bytes"
	"errors"
	"math"
	"math/big"
	"testing"

	"repro/internal/model"
)

// TestIntegerRoundTrip: varint/uvarint primitives invert over edge values.
func TestIntegerRoundTrip(t *testing.T) {
	for _, x := range []uint64{0, 1, 127, 128, 1 << 20, math.MaxUint64} {
		v, rest, err := DecodeUvarint(AppendUvarint(nil, x))
		if err != nil || len(rest) != 0 || v != x {
			t.Fatalf("uvarint %d: got %d, rest %d, err %v", x, v, len(rest), err)
		}
	}
	for _, x := range []int64{0, 1, -1, 63, -64, math.MaxInt64, math.MinInt64} {
		v, rest, err := DecodeVarint(AppendVarint(nil, x))
		if err != nil || len(rest) != 0 || v != x {
			t.Fatalf("varint %d: got %d, rest %d, err %v", x, v, len(rest), err)
		}
	}
}

// TestPrimitiveRoundTrip: bools, strings and blobs invert and re-encode
// byte-equal.
func TestPrimitiveRoundTrip(t *testing.T) {
	for _, v := range []bool{false, true} {
		got, rest, err := DecodeBool(AppendBool(nil, v))
		if err != nil || len(rest) != 0 || got != v {
			t.Fatalf("bool %v: got %v, err %v", v, got, err)
		}
	}
	for _, s := range []string{"", "a", "héllo wörld", string([]byte{0, 255, 1})} {
		got, rest, err := DecodeString(AppendString(nil, s))
		if err != nil || len(rest) != 0 || got != s {
			t.Fatalf("string %q: got %q, err %v", s, got, err)
		}
	}
	blob := []byte{9, 8, 7, 0}
	got, rest, err := DecodeBytes(AppendBytes(nil, blob))
	if err != nil || len(rest) != 0 || !bytes.Equal(got, blob) {
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
		got, rest, err := DecodeValue(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("value %s: err %v, rest %d", v, err, len(rest))
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
		got, rest, err := DecodeValue(enc)
		if err != nil || len(rest) != 0 || !bytes.Equal(AppendValue(nil, got), enc) {
			t.Fatalf("%s at depth %d: err %v, rest %d", shape.name, maxValueDepth, err, len(rest))
		}
		enc = AppendValue(nil, nested(maxValueDepth+1, shape.list, shape.mixed))
		if _, _, err := DecodeValue(enc); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s at depth %d: err = %v, want ErrCorrupt", shape.name, maxValueDepth+1, err)
		}
	}
	tags := bytes.Repeat([]byte{byte(model.KindPair)}, 200_000)
	if _, _, err := DecodeValue(tags); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("200000 pair tags: err = %v, want ErrCorrupt", err)
	}
}

// TestOpStampSetRoundTrip: the composite model types invert.
func TestOpStampSetRoundTrip(t *testing.T) {
	op := model.Op{Name: "addAfter", Arg: model.Pair(model.Str("a"), model.Str("b"))}
	gotOp, rest, err := DecodeOp(AppendOp(nil, op))
	if err != nil || len(rest) != 0 || gotOp.Name != op.Name || !gotOp.Arg.Equal(op.Arg) {
		t.Fatalf("op: got %v, err %v", gotOp, err)
	}
	st := model.Stamp{N: -3, Node: 7}
	gotSt, rest, err := DecodeStamp(AppendStamp(nil, st))
	if err != nil || len(rest) != 0 || gotSt != st {
		t.Fatalf("stamp: got %v, err %v", gotSt, err)
	}
	s := model.NewValueSet()
	s.Add(model.Str("b"))
	s.Add(model.Str("a"))
	s.Add(model.Int(5))
	enc := AppendValueSet(nil, s)
	gotSet, rest, err := DecodeValueSet(enc)
	if err != nil || len(rest) != 0 || !model.List(gotSet.Elems()...).Equal(model.List(s.Elems()...)) {
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
		got, rest, err := DecodeRat(enc)
		if err != nil || len(rest) != 0 || got.Cmp(r) != 0 {
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
	cases := []struct {
		name string
		err  error
	}{
		{"uvarint empty", errOf2(DecodeUvarint(nil))},
		{"uvarint overflow", errOf2(DecodeUvarint(overlong))},
		{"uvarint over-long zero", errOf2(DecodeUvarint([]byte{0x80, 0x00}))},
		{"uvarint over-long 1", errOf2(DecodeUvarint([]byte{0x81, 0x80, 0x00}))},
		{"varint empty", errOf2(DecodeVarint(nil))},
		{"varint over-long -1", errOf2(DecodeVarint([]byte{0x81, 0x00}))},
		{"string length over-long", errOf2(DecodeString([]byte{0x81, 0x00, 'a'}))},
		{"bool empty", errOf2(DecodeBool(nil))},
		{"bool byte 2", errOf2(DecodeBool([]byte{2}))},
		{"string truncated", errOf2(DecodeString([]byte{5, 'a'}))},
		{"bytes truncated", errOf2(DecodeBytes([]byte{200, 1}))},
		{"tag empty", errOf2(DecodeTag(nil))},
		{"value empty", errOf2(DecodeValue(nil))},
		{"value unknown kind", errOf2(DecodeValue([]byte{0xee}))},
		{"value bool byte 7", errOf2(DecodeValue(append(AppendValue(nil, model.Bool(true))[:1], 7)))},
		{"list count overruns", errOf2(DecodeValue(append([]byte{AppendValue(nil, model.List())[0]}, 200, 1)))},
		{"pair truncated", errOf2(DecodeValue(AppendValue(nil, model.Pair(model.Int(1), model.Int(2)))[:2]))},
		{"op truncated", errOf3(DecodeOp(AppendOp(nil, model.Op{Name: "inc", Arg: model.Int(1)})[:3]))},
		{"stamp truncated", errOf3(DecodeStamp(nil))},
		{"set count overruns", errOf2(DecodeValueSet([]byte{200, 1}))},
		{"set out of order", errOf2(DecodeValueSet(rawSet(model.Int(2), model.Int(1))))},
		{"set element repeated", errOf2(DecodeValueSet(rawSet(model.Str("a"), model.Str("a"))))},
		{"rat empty", errOf2(DecodeRat(nil))},
		{"rat sign 3", errOf2(DecodeRat([]byte{3}))},
		{"rat zero numerator", errOf2(DecodeRat([]byte{1, 0, 1, 2}))},
		{"rat zero denominator", errOf2(DecodeRat([]byte{1, 1, 2, 0}))},
		{"rat not lowest terms", errOf2(DecodeRat([]byte{1, 1, 2, 1, 4}))},
		{"rat zero with payload trailing", Done(mustRest(DecodeRat([]byte{0, 1, 2})))},
		{"frame truncated checksum", errOf2(DecodeFrame(AppendFrame(nil, []byte("abc"))[:5]))},
		{"done trailing", Done([]byte{1})},
		{"bad tag", BadTag(9)},
	}
	for _, c := range cases {
		if !errors.Is(c.err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", c.name, c.err)
		}
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

// errOf2/errOf3 project the error out of 3- and 4-result decoders so the
// table stays readable.
func errOf2[A any](_ A, _ []byte, err error) error     { return err }
func errOf3[A, B any](_ A, _ B, err error) error       { return err }
func mustRest[A any](_ A, rest []byte, _ error) []byte { return rest }

// TestFrameDetectsEveryBitFlip: any single-bit flip anywhere in a frame —
// length prefix, payload or checksum — is rejected by DecodeFrame. This is
// the property the simulator's corruption fault leans on.
func TestFrameDetectsEveryBitFlip(t *testing.T) {
	payload := []byte("canonical payload \x00\x01\x02")
	frame := AppendFrame(nil, payload)
	if got, rest, err := DecodeFrame(frame); err != nil || len(rest) != 0 || !bytes.Equal(got, payload) {
		t.Fatalf("clean frame failed: %v", err)
	}
	for bit := 0; bit < len(frame)*8; bit++ {
		mangled := append([]byte(nil), frame...)
		mangled[bit/8] ^= 1 << (bit % 8)
		got, rest, err := DecodeFrame(mangled)
		if err == nil && len(rest) == 0 && bytes.Equal(got, payload) {
			t.Fatalf("bit flip %d went undetected", bit)
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip %d: err = %v, want ErrCorrupt", bit, err)
		}
	}
}

// TestFrameConcatenation: frames are self-delimiting — two frames decode in
// sequence.
func TestFrameConcatenation(t *testing.T) {
	b := AppendFrame(nil, []byte("one"))
	b = AppendFrame(b, []byte("two"))
	p1, rest, err := DecodeFrame(b)
	if err != nil || string(p1) != "one" {
		t.Fatalf("first frame: %q, %v", p1, err)
	}
	p2, rest, err := DecodeFrame(rest)
	if err != nil || string(p2) != "two" || len(rest) != 0 {
		t.Fatalf("second frame: %q, %v, rest %d", p2, err, len(rest))
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
		for rest := data; len(vs) < 2 && len(rest) > 0; {
			v, next, err := DecodeValue(rest)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%x: err = %v, want ErrCorrupt", rest, err)
				}
				break
			}
			if enc := AppendValue(nil, v); !bytes.Equal(enc, rest[:len(rest)-len(next)]) {
				t.Fatalf("%x decoded to %s, which encodes as %x", rest[:len(rest)-len(next)], v, enc)
			}
			checkAccessors(t, v)
			if v.Compare(v) != 0 || !v.Equal(v) {
				t.Fatalf("%s does not equal itself", v)
			}
			vs, rest = append(vs, v), next
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
