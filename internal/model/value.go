// Package model defines the basic semantic universe shared by every layer of
// the framework: the algebraic Value domain used for operation arguments,
// return values and abstract states; node and message identities; and the
// totally ordered timestamps used by UCR-CRDT algorithms.
//
// The paper (Sec 3) ranges operation arguments and results over an abstract
// set Val. We realise Val as a small algebraic datatype with canonical
// ordering, equality, and printing, so that every other component — CRDT
// implementations, abstract specifications, trace checkers, and the client
// language interpreter — manipulates one common, hashable value domain.
package model

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the variants of Value.
type Kind uint8

// The value kinds, ordered. The ordering between kinds is part of the
// canonical total order on Values (values of smaller kinds sort first).
const (
	KindNil Kind = iota
	KindBool
	KindInt
	KindString
	KindPair
	KindList
)

// String returns the name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNil:
		return "nil"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindString:
		return "string"
	case KindPair:
		return "pair"
	case KindList:
		return "list"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is the algebraic value domain Val of the paper. A Value is one of:
// nil (the unit/absent value), a boolean, a 64-bit integer, a string, a pair
// of Values, or a finite list of Values. Values are immutable; treat them as
// opaque after construction.
//
// The zero Value is Nil.
type Value struct {
	kind Kind
	b    bool
	i    int64
	s    string
	vs   []Value // elements for KindList; exactly two for KindPair
}

// Nil returns the nil value.
func Nil() Value { return Value{} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// True and False are the boolean constants.
var (
	True  = Bool(true)
	False = Bool(false)
)

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Str returns a string value.
func Str(s string) Value { return Value{kind: KindString, s: s} }

// Pair returns the pair (a, b).
func Pair(a, b Value) Value { return Value{kind: KindPair, vs: []Value{a, b}} }

// List returns a list value holding the given elements. The slice is copied.
func List(vs ...Value) Value {
	cp := make([]Value, len(vs))
	copy(cp, vs)
	return Value{kind: KindList, vs: cp}
}

// Kind reports the variant of v.
func (v Value) Kind() Kind { return v.kind }

// IsNil reports whether v is the nil value.
func (v Value) IsNil() bool { return v.kind == KindNil }

// AsBool returns the boolean payload. It reports ok=false if v is not a bool.
func (v Value) AsBool() (b, ok bool) { return v.b, v.kind == KindBool }

// AsInt returns the integer payload. It reports ok=false if v is not an int.
func (v Value) AsInt() (int64, bool) { return v.i, v.kind == KindInt }

// AsString returns the string payload. It reports ok=false if v is not a string.
func (v Value) AsString() (string, bool) { return v.s, v.kind == KindString }

// AsPair returns the two components of a pair. It reports ok=false otherwise.
func (v Value) AsPair() (a, b Value, ok bool) {
	if v.kind != KindPair {
		return Nil(), Nil(), false
	}
	return v.vs[0], v.vs[1], true
}

// AsList returns the elements of a list. The returned slice must not be
// mutated. It reports ok=false if v is not a list.
func (v Value) AsList() ([]Value, bool) {
	if v.kind != KindList {
		return nil, false
	}
	return v.vs, true
}

// Fst returns the first component of a pair, or Nil if v is not a pair.
func (v Value) Fst() Value {
	if v.kind == KindPair {
		return v.vs[0]
	}
	return Nil()
}

// Snd returns the second component of a pair, or Nil if v is not a pair.
func (v Value) Snd() Value {
	if v.kind == KindPair {
		return v.vs[1]
	}
	return Nil()
}

// Len returns the number of elements of a list, or 0 for any other kind.
func (v Value) Len() int {
	if v.kind == KindList {
		return len(v.vs)
	}
	return 0
}

// At returns the i-th element of a list. It panics if v is not a list or the
// index is out of range; it is intended for callers that already validated.
func (v Value) At(i int) Value {
	if v.kind != KindList {
		panic("model: At on non-list Value")
	}
	return v.vs[i]
}

// Append returns a new list with x appended. It panics if v is not a list.
func (v Value) Append(x Value) Value {
	if v.kind != KindList {
		panic("model: Append on non-list Value")
	}
	out := make([]Value, len(v.vs)+1)
	copy(out, v.vs)
	out[len(v.vs)] = x
	return Value{kind: KindList, vs: out}
}

// Contains reports whether a list value contains x (by Equal). It returns
// false for non-lists.
func (v Value) Contains(x Value) bool {
	if v.kind != KindList {
		return false
	}
	for _, e := range v.vs {
		if e.Equal(x) {
			return true
		}
	}
	return false
}

// Equal reports structural equality of two values.
func (v Value) Equal(w Value) bool { return v.Compare(w) == 0 }

// Compare totally orders values: first by kind, then by payload
// (false < true; integer order; lexicographic string order; lexicographic
// component/element order for pairs and lists, shorter lists first on ties).
// It returns -1, 0, or +1.
func (v Value) Compare(w Value) int {
	if v.kind != w.kind {
		if v.kind < w.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindNil:
		return 0
	case KindBool:
		switch {
		case v.b == w.b:
			return 0
		case !v.b:
			return -1
		default:
			return 1
		}
	case KindInt:
		switch {
		case v.i < w.i:
			return -1
		case v.i > w.i:
			return 1
		default:
			return 0
		}
	case KindString:
		return strings.Compare(v.s, w.s)
	default: // KindPair, KindList
		n := len(v.vs)
		if len(w.vs) < n {
			n = len(w.vs)
		}
		for i := 0; i < n; i++ {
			if c := v.vs[i].Compare(w.vs[i]); c != 0 {
				return c
			}
		}
		switch {
		case len(v.vs) < len(w.vs):
			return -1
		case len(v.vs) > len(w.vs):
			return 1
		default:
			return 0
		}
	}
}

// Less reports whether v sorts strictly before w in the canonical order.
func (v Value) Less(w Value) bool { return v.Compare(w) < 0 }

// String renders the value canonically: nil, true/false, decimal integers,
// double-quoted strings, (a, b) for pairs, and [e1 e2 ...] for lists. The
// rendering is injective, so it doubles as a hash key.
func (v Value) String() string {
	if v.kind == KindString {
		return quote(v.s)
	}
	var b strings.Builder
	v.write(&b)
	return b.String()
}

// quote is strconv.Quote in one allocation for the strings it would not
// escape: printable ASCII other than the double quote and the backslash.
func quote(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return strconv.Quote(s)
		}
	}
	return `"` + s + `"`
}

func (v Value) write(b *strings.Builder) {
	switch v.kind {
	case KindNil:
		b.WriteString("nil")
	case KindBool:
		b.WriteString(strconv.FormatBool(v.b))
	case KindInt:
		b.WriteString(strconv.FormatInt(v.i, 10))
	case KindString:
		b.WriteString(quote(v.s))
	case KindPair:
		b.WriteByte('(')
		v.vs[0].write(b)
		b.WriteString(", ")
		v.vs[1].write(b)
		b.WriteByte(')')
	case KindList:
		b.WriteByte('[')
		for i, e := range v.vs {
			if i > 0 {
				b.WriteByte(' ')
			}
			e.write(b)
		}
		b.WriteByte(']')
	}
}

// SortValues sorts a slice of values in the canonical order, in place.
func SortValues(vs []Value) {
	sort.Slice(vs, func(i, j int) bool { return vs[i].Less(vs[j]) })
}

// ValueSet is a set of Values keyed by their canonical rendering. The zero
// ValueSet is empty and ready to use (but Add requires initialisation via
// NewValueSet or a non-nil map).
type ValueSet struct {
	m map[string]Value
}

// NewValueSet returns an empty set, pre-populated with the given elements.
func NewValueSet(vs ...Value) *ValueSet {
	s := &ValueSet{m: make(map[string]Value, len(vs))}
	for _, v := range vs {
		s.Add(v)
	}
	return s
}

// Add inserts v; it reports whether v was newly added.
func (s *ValueSet) Add(v Value) bool {
	k := v.String()
	if _, ok := s.m[k]; ok {
		return false
	}
	s.m[k] = v
	return true
}

// Has reports membership.
func (s *ValueSet) Has(v Value) bool { return s.HasKey(v.String()) }

// HasKey reports whether the set holds the value whose rendering is k.
func (s *ValueSet) HasKey(k string) bool {
	if s == nil || s.m == nil {
		return false
	}
	_, ok := s.m[k]
	return ok
}

// Remove deletes v; it reports whether v was present.
func (s *ValueSet) Remove(v Value) bool {
	k := v.String()
	if _, ok := s.m[k]; !ok {
		return false
	}
	delete(s.m, k)
	return true
}

// Len returns the cardinality of the set.
func (s *ValueSet) Len() int {
	if s == nil {
		return 0
	}
	return len(s.m)
}

// Elems returns the elements in canonical order.
func (s *ValueSet) Elems() []Value {
	if s == nil {
		return nil
	}
	out := make([]Value, 0, len(s.m))
	for _, v := range s.m {
		out = append(out, v)
	}
	SortValues(out)
	return out
}

// Clone returns an independent copy of the set.
func (s *ValueSet) Clone() *ValueSet {
	c := &ValueSet{m: make(map[string]Value, s.Len())}
	if s != nil {
		for k, v := range s.m {
			c.m[k] = v
		}
	}
	return c
}

// Key returns the canonical rendering of the set (sorted elements), suitable
// for hashing and equality.
func (s *ValueSet) Key() string {
	elems := s.Elems()
	var b strings.Builder
	b.WriteByte('{')
	for i, v := range elems {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(v.String())
	}
	b.WriteByte('}')
	return b.String()
}
