package model

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// genValue builds a random value of bounded depth for property tests.
func genValue(r *rand.Rand, depth int) Value {
	k := r.Intn(6)
	if depth <= 0 && k >= 4 {
		k = r.Intn(4)
	}
	switch k {
	case 0:
		return Nil()
	case 1:
		return Bool(r.Intn(2) == 0)
	case 2:
		return Int(int64(r.Intn(21) - 10))
	case 3:
		return Str(string(rune('a' + r.Intn(5))))
	case 4:
		return Pair(genValue(r, depth-1), genValue(r, depth-1))
	default:
		n := r.Intn(4)
		vs := make([]Value, n)
		for i := range vs {
			vs[i] = genValue(r, depth-1)
		}
		return List(vs...)
	}
}

// quickCfg draws random Values for quick.Check properties.
var quickCfg = &quick.Config{
	MaxCount: 300,
	Values: func(args []reflect.Value, r *rand.Rand) {
		for i := range args {
			args[i] = reflect.ValueOf(genValue(r, 3))
		}
	},
}

// TestValueKinds also covers the values where n alone would be misread:
// ints whose top byte is a string's or list's kind, and the zero payloads,
// which must not read as nil.
func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Nil(), KindNil, "nil"},
		{Bool(true), KindBool, "true"},
		{Bool(false), KindBool, "false"},
		{Int(-7), KindInt, "-7"},
		{Int(0), KindInt, "0"},
		{Int(int64(KindString) << kindShift), KindInt, strconv.FormatInt(int64(KindString)<<kindShift, 10)},
		{Int(int64(KindList)<<kindShift | 3), KindInt, strconv.FormatInt(int64(KindList)<<kindShift|3, 10)},
		{Int(math.MinInt64), KindInt, "-9223372036854775808"},
		{Str("ab"), KindString, `"ab"`},
		{Str(""), KindString, `""`},
		{Pair(Int(1), Str("x")), KindPair, `(1, "x")`},
		{List(Int(1), Int(2)), KindList, "[1 2]"},
		{List(), KindList, "[]"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%s: kind = %v, want %v", c.str, c.v.Kind(), c.kind)
		}
		if got := c.v.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
		if isNil := c.kind == KindNil; c.v.IsNil() != isNil || c.v.Equal(Nil()) != isNil {
			t.Errorf("%s: IsNil %v, Equal(nil) %v", c.str, c.v.IsNil(), c.v.Equal(Nil()))
		}
	}
	if Int(math.MinInt64).Compare(Int(-1)) != -1 || Int(math.MaxInt64).Compare(Str("")) != -1 || True.Compare(Int(math.MinInt64)) != -1 {
		t.Error("kinds or ints order wrong")
	}
}

func TestValueAccessors(t *testing.T) {
	if b, ok := Bool(true).AsBool(); !ok || !b {
		t.Error("AsBool failed on Bool(true)")
	}
	if _, ok := Int(1).AsBool(); ok {
		t.Error("AsBool succeeded on Int")
	}
	if n, ok := Int(42).AsInt(); !ok || n != 42 {
		t.Error("AsInt failed")
	}
	if s, ok := Str("hi").AsString(); !ok || s != "hi" {
		t.Error("AsString failed")
	}
	a, b, ok := Pair(Int(1), Int(2)).AsPair()
	if !ok || !a.Equal(Int(1)) || !b.Equal(Int(2)) {
		t.Error("AsPair failed")
	}
	if !Pair(Int(1), Int(2)).Fst().Equal(Int(1)) || !Pair(Int(1), Int(2)).Snd().Equal(Int(2)) {
		t.Error("Fst/Snd failed")
	}
	if vs, ok := List(Int(1)).AsList(); !ok || len(vs) != 1 {
		t.Error("AsList failed")
	}
	if !Nil().IsNil() || Int(0).IsNil() {
		t.Error("IsNil failed")
	}
}

func TestValueListOps(t *testing.T) {
	l := List(Int(1), Int(2))
	l2 := l.Append(Int(3))
	if l.Len() != 2 || l2.Len() != 3 {
		t.Fatalf("Append mutated or failed: %s %s", l, l2)
	}
	if !l2.At(2).Equal(Int(3)) {
		t.Error("At failed")
	}
	if !l2.Contains(Int(2)) || l2.Contains(Int(9)) {
		t.Error("Contains failed")
	}
	if Int(1).Contains(Int(1)) {
		t.Error("Contains on non-list should be false")
	}
}

// TestValueLayout guards the two-word layout: every trace event carries
// two Values (its argument and its return value), so a field added back to
// Value grows every event, replica state and checker replay.
func TestValueLayout(t *testing.T) {
	if got := reflect.TypeOf(Value{}).Size(); got != 16 {
		t.Errorf("Value is %d bytes, want 16 (n, p)", got)
	}
	if got := reflect.TypeOf(Op{}).Size(); got != 32 {
		t.Errorf("Op is %d bytes, want 32", got)
	}
}

// TestAccessorsOnWrongKinds checks every accessor on every kind it does not
// serve: the payload word n is shared by bools, ints and lengths, so a
// missing kind guard would leak, say, a string's length through AsInt.
func TestAccessorsOnWrongKinds(t *testing.T) {
	all := []Value{Nil(), True, False, Int(7), Int(-1), Int(0), Int(math.MinInt64),
		Int(int64(KindPair)<<kindShift | 2), Str("abc"), Str(""),
		Pair(Int(1), Str("x")), List(Int(1), Int(2), Int(3)), List()}
	for _, v := range all {
		k := v.Kind()
		if b, ok := v.AsBool(); k != KindBool && (b || ok) {
			t.Errorf("%s.AsBool() = %v, %v", v, b, ok)
		}
		if n, ok := v.AsInt(); k != KindInt && (n != 0 || ok) {
			t.Errorf("%s.AsInt() = %d, %v", v, n, ok)
		}
		if s, ok := v.AsString(); k != KindString && (s != "" || ok) {
			t.Errorf("%s.AsString() = %q, %v", v, s, ok)
		}
		if a, b, ok := v.AsPair(); k != KindPair && (!a.IsNil() || !b.IsNil() || ok) {
			t.Errorf("%s.AsPair() = %s, %s, %v", v, a, b, ok)
		}
		if vs, ok := v.AsList(); k != KindList && (vs != nil || ok) {
			t.Errorf("%s.AsList() = %v, %v", v, vs, ok)
		}
		if k != KindPair && (!v.Fst().IsNil() || !v.Snd().IsNil()) {
			t.Errorf("%s.Fst(), Snd() = %s, %s", v, v.Fst(), v.Snd())
		}
		if k != KindList && v.Len() != 0 {
			t.Errorf("%s.Len() = %d", v, v.Len())
		}
	}
}

// TestEmptyAndAdoptedValues checks the values whose layout is special: an
// empty string or list carries no pointer, and a list adopted by ListOf
// from a slice with spare capacity must not let Append write into it.
func TestEmptyAndAdoptedValues(t *testing.T) {
	empties := []struct {
		v    Value
		str  string
		next Value // the smallest non-empty value of the same kind
	}{
		{Str(""), `""`, Str("\x00")},
		{List(), "[]", List(Nil())},
		{ListOf(nil), "[]", List(Nil())},
		{ListOf(make([]Value, 0, 4)), "[]", List(Nil())},
	}
	for _, c := range empties {
		if c.v.p != nil {
			t.Errorf("%s keeps a pointer", c.str)
		}
		if got := c.v.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
		if c.v.Len() != 0 || c.v.Compare(c.v) != 0 || c.v.Compare(c.next) != -1 || c.next.Compare(c.v) != 1 {
			t.Errorf("%s: Len %d, Compare with %s: %d", c.str, c.v.Len(), c.next, c.v.Compare(c.next))
		}
	}
	if !List().Equal(ListOf(nil)) || !List().Equal(ListOf(make([]Value, 0, 4))) {
		t.Error("empty lists differ")
	}
	if got := List().Append(Int(1)).String(); got != "[1]" {
		t.Errorf("List().Append(1) = %s", got)
	}
	if s, ok := Str("").AsString(); !ok || s != "" {
		t.Errorf(`Str("").AsString() = %q, %v`, s, ok)
	}

	backing := []Value{Int(1), Int(2), Str("spare")}
	l := ListOf(backing[:2])
	if vs, _ := l.AsList(); len(vs) != 2 || cap(vs) != 2 {
		t.Fatalf("adopted list has len %d, cap %d; want 2, 2", len(vs), cap(vs))
	}
	l2 := l.Append(Int(9))
	if !backing[2].Equal(Str("spare")) {
		t.Fatalf("Append wrote %s into the adopted array", backing[2])
	}
	if l.String() != "[1 2]" || l2.String() != "[1 2 9]" || l.Len() != 2 || l2.Len() != 3 {
		t.Errorf("adopted list %s (len %d), appended %s (len %d)", l, l.Len(), l2, l2.Len())
	}
	if l.Compare(List(Int(1), Int(2))) != 0 || l.Compare(l2) != -1 {
		t.Error("adopted list compares wrong")
	}
}

func TestCompareTotalOrderProperties(t *testing.T) {
	// Reflexivity / antisymmetry / consistency with Equal.
	if err := quick.Check(func(a, b Value) bool {
		c1, c2 := a.Compare(b), b.Compare(a)
		if c1 != -c2 {
			return false
		}
		if (c1 == 0) != a.Equal(b) {
			return false
		}
		return a.Compare(a) == 0
	}, quickCfg); err != nil {
		t.Error(err)
	}
	// Transitivity.
	if err := quick.Check(func(a, b, c Value) bool {
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 {
			return a.Compare(c) <= 0
		}
		return true
	}, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestStringInjectiveOnSamples(t *testing.T) {
	if err := quick.Check(func(a, b Value) bool {
		if a.String() == b.String() {
			return a.Equal(b)
		}
		return true
	}, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestStringQuotesLikeStrconv: a string value renders exactly as
// strconv.Quote renders its payload, alone and inside a pair, for random
// strings drawn from printable ASCII, the double quote, the backslash,
// control bytes, invalid UTF-8 and non-ASCII runes such as ◦.
func TestStringQuotesLikeStrconv(t *testing.T) {
	pieces := []string{"a", "Z", "0", " ", "~", `"`, `\`, "\x00", "\n", "\t", "\x1f", "\x7f", "\xff", "\xe2\x97", "◦", "é", "\u2028", "😀"}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		var b strings.Builder
		for n := r.Intn(8); n > 0; n-- {
			if r.Intn(2) == 0 {
				b.WriteByte(byte(' ' + r.Intn(95)))
			} else {
				b.WriteString(pieces[r.Intn(len(pieces))])
			}
		}
		s := b.String()
		want := strconv.Quote(s)
		if got := Str(s).String(); got != want {
			t.Fatalf("Str(%q).String() = %s, want %s", s, got, want)
		}
		if got := Pair(Str(s), Nil()).String(); got != "("+want+", nil)" {
			t.Fatalf("Pair(Str(%q), nil).String() = %s", s, got)
		}
	}
}

func TestSortValues(t *testing.T) {
	vs := []Value{Int(3), Int(1), Str("a"), Nil(), Int(2)}
	SortValues(vs)
	want := []Value{Nil(), Int(1), Int(2), Int(3), Str("a")}
	for i := range want {
		if !vs[i].Equal(want[i]) {
			t.Fatalf("sorted[%d] = %s, want %s", i, vs[i], want[i])
		}
	}
}

func TestValueSet(t *testing.T) {
	s := NewValueSet(Int(1), Int(2), Int(1))
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if !s.Has(Int(1)) || s.Has(Int(3)) {
		t.Error("Has failed")
	}
	if s.Add(Int(1)) {
		t.Error("re-Add reported new")
	}
	if !s.Add(Int(3)) {
		t.Error("Add reported not new")
	}
	c := s.Clone()
	if !s.Remove(Int(3)) || s.Remove(Int(3)) {
		t.Error("Remove misbehaved")
	}
	if !c.Has(Int(3)) {
		t.Error("Clone shares state with original")
	}
	elems := c.Elems()
	if len(elems) != 3 || !elems[0].Equal(Int(1)) || !elems[2].Equal(Int(3)) {
		t.Errorf("Elems = %v", elems)
	}
	var nilSet *ValueSet
	if nilSet.Has(Int(1)) || nilSet.Len() != 0 || nilSet.Elems() != nil {
		t.Error("nil set accessors misbehaved")
	}
}

func TestStampOrder(t *testing.T) {
	a := Stamp{N: 1, Node: 2}
	b := Stamp{N: 1, Node: 3}
	c := Stamp{N: 2, Node: 0}
	if !a.Less(b) || !b.Less(c) || !a.Less(c) {
		t.Error("stamp order wrong")
	}
	if a.Less(a) {
		t.Error("stamp order not strict")
	}
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Error("Compare wrong")
	}
	if got := a.Next(5); got.N != 2 || got.Node != 5 {
		t.Errorf("Next = %v", got)
	}
	if !a.Max(c).Less(c) == false || a.Max(c) != c || c.Max(a) != c {
		t.Error("Max wrong")
	}
	if a.String() != "(1,t2)" {
		t.Errorf("String = %q", a.String())
	}
}

func TestOpString(t *testing.T) {
	op := Op{Name: "add", Arg: Int(1)}
	if op.String() != "add(1)" {
		t.Errorf("op rendering: %q", op.String())
	}
	if (Op{Name: "read"}).String() != "read()" {
		t.Errorf("nil-arg op rendering: %q", Op{Name: "read"}.String())
	}
	if !op.Equal(Op{Name: "add", Arg: Int(1)}) || op.Equal(Op{Name: "add", Arg: Int(2)}) {
		t.Error("Op.Equal wrong")
	}
}

func TestNodeAndMsgIDStrings(t *testing.T) {
	if NodeID(3).String() != "t3" {
		t.Error("NodeID rendering")
	}
	if MsgID(9).String() != "m9" {
		t.Error("MsgID rendering")
	}
}
