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
	"cmp"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unsafe"
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
// A Value is two words, a number n and a pointer p, and its kind is read off
// them:
//   - nil is the zero Value;
//   - a bool or an int keeps its payload (0 or 1 for a bool) in n, and p
//     points at boolTag or intTag;
//   - a string, pair or list keeps its length in n's low 56 bits and its
//     kind in n's top byte; p points at the string's bytes or at the first
//     element of the pair or list, and is nil when the length is 0.
//
// So Kind tests p against the two tags before it reads the top byte of n,
// which means an int's top byte is never taken for a kind. Only str and
// elems turn p back into a string or a slice, and their callers check the
// kind first. This file is the only one that reads the fields, and the only
// one in the module that imports unsafe.
type Value struct {
	// Keeps == on Values, and Values as map keys, a compile error. It is
	// zero-sized and leads, since Go pads a trailing zero-sized field.
	_ [0]func()
	n int64
	p unsafe.Pointer
}

// boolTag and intTag are what a bool's and an int's p point at. They are
// two variables of nonzero size, so their addresses differ from each other,
// from nil and from every string's bytes and Value array.
var boolTag, intTag byte

// kindShift places a string's, pair's or list's kind in n's top byte, above
// its length.
const (
	kindShift = 56
	lenMask   = 1<<kindShift - 1
)

// sized is the string, pair or list of kind k whose n elements or bytes
// start at p.
func sized(k Kind, n int, p unsafe.Pointer) Value {
	return Value{n: int64(k)<<kindShift | int64(n), p: p}
}

// Nil returns the nil value.
func Nil() Value { return Value{} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{n: 1, p: unsafe.Pointer(&boolTag)}
	}
	return Value{p: unsafe.Pointer(&boolTag)}
}

// True and False are the boolean constants.
var (
	True  = Bool(true)
	False = Bool(false)
)

// Int returns an integer value.
func Int(i int64) Value { return Value{n: i, p: unsafe.Pointer(&intTag)} }

// Str returns a string value.
func Str(s string) Value {
	if s == "" {
		return sized(KindString, 0, nil)
	}
	return sized(KindString, len(s), unsafe.Pointer(unsafe.StringData(s)))
}

// Pair returns the pair (a, b).
func Pair(a, b Value) Value { return sized(KindPair, 2, unsafe.Pointer(&[2]Value{a, b})) }

// List returns a list value holding the given elements. The slice is copied.
func List(vs ...Value) Value {
	cp := make([]Value, len(vs))
	copy(cp, vs)
	return ListOf(cp)
}

// ListOf returns a list value holding vs itself, without the copy List
// makes: the caller gives the slice up and must not modify it afterwards.
// The list's elements have vs's length as their capacity, so an append to
// them never writes into the adopted array.
func ListOf(vs []Value) Value {
	if len(vs) == 0 {
		return sized(KindList, 0, nil)
	}
	return sized(KindList, len(vs), unsafe.Pointer(unsafe.SliceData(vs)))
}

// len is the length of a string, pair or list.
func (v Value) len() int { return int(v.n & lenMask) }

// str is the payload of a string value.
func (v Value) str() string { return unsafe.String((*byte)(v.p), v.len()) }

// elems is the components of a pair or the elements of a list, with their
// length as capacity.
func (v Value) elems() []Value { return unsafe.Slice((*Value)(v.p), v.len()) }

// Kind reports the variant of v.
func (v Value) Kind() Kind {
	switch v.p {
	case unsafe.Pointer(&intTag):
		return KindInt
	case unsafe.Pointer(&boolTag):
		return KindBool
	}
	return Kind(v.n >> kindShift)
}

// IsNil reports whether v is the nil value.
func (v Value) IsNil() bool { return v.n == 0 && v.p == nil }

// AsBool returns the boolean payload. It reports ok=false if v is not a bool.
func (v Value) AsBool() (b, ok bool) {
	if v.p != unsafe.Pointer(&boolTag) {
		return false, false
	}
	return v.n != 0, true
}

// AsInt returns the integer payload. It reports ok=false if v is not an int.
func (v Value) AsInt() (int64, bool) {
	if v.p != unsafe.Pointer(&intTag) {
		return 0, false
	}
	return v.n, true
}

// AsString returns the string payload. It reports ok=false if v is not a string.
func (v Value) AsString() (string, bool) {
	if v.Kind() != KindString {
		return "", false
	}
	return v.str(), true
}

// AsPair returns the two components of a pair. It reports ok=false otherwise.
func (v Value) AsPair() (a, b Value, ok bool) {
	if v.Kind() != KindPair {
		return Nil(), Nil(), false
	}
	vs := v.elems()
	return vs[0], vs[1], true
}

// AsList returns the elements of a list. The returned slice must not be
// mutated. It reports ok=false if v is not a list.
func (v Value) AsList() ([]Value, bool) {
	if v.Kind() != KindList {
		return nil, false
	}
	return v.elems(), true
}

// Fst returns the first component of a pair, or Nil if v is not a pair.
func (v Value) Fst() Value {
	if v.Kind() == KindPair {
		return v.elems()[0]
	}
	return Nil()
}

// Snd returns the second component of a pair, or Nil if v is not a pair.
func (v Value) Snd() Value {
	if v.Kind() == KindPair {
		return v.elems()[1]
	}
	return Nil()
}

// Len returns the number of elements of a list, or 0 for any other kind.
func (v Value) Len() int {
	if v.Kind() == KindList {
		return v.len()
	}
	return 0
}

// At returns the i-th element of a list. It panics if v is not a list or the
// index is out of range; it is intended for callers that already validated.
func (v Value) At(i int) Value {
	if v.Kind() != KindList {
		panic("model: At on non-list Value")
	}
	return v.elems()[i]
}

// Append returns a new list with x appended. It panics if v is not a list.
func (v Value) Append(x Value) Value {
	if v.Kind() != KindList {
		panic("model: Append on non-list Value")
	}
	vs := v.elems()
	out := make([]Value, len(vs)+1)
	copy(out, vs)
	out[len(vs)] = x
	return ListOf(out)
}

// Contains reports whether a list value contains x (by Equal). It returns
// false for non-lists.
func (v Value) Contains(x Value) bool {
	if v.Kind() != KindList {
		return false
	}
	for _, e := range v.elems() {
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
	vk, wk := v.Kind(), w.Kind()
	if vk != wk {
		if vk < wk {
			return -1
		}
		return 1
	}
	switch vk {
	case KindNil:
		return 0
	case KindBool, KindInt: // a bool's n is 0 or 1, so false < true
		return cmp.Compare(v.n, w.n)
	case KindString:
		return strings.Compare(v.str(), w.str())
	default: // KindPair, KindList
		vs, ws := v.elems(), w.elems()
		for i := 0; i < min(len(vs), len(ws)); i++ {
			if c := vs[i].Compare(ws[i]); c != 0 {
				return c
			}
		}
		return cmp.Compare(len(vs), len(ws))
	}
}

// Less reports whether v sorts strictly before w in the canonical order.
func (v Value) Less(w Value) bool { return v.Compare(w) < 0 }

// String renders the value canonically: nil, true/false, decimal integers,
// double-quoted strings, (a, b) for pairs, and [e1 e2 ...] for lists. The
// rendering is injective, so it doubles as a hash key.
func (v Value) String() string {
	if v.Kind() == KindString {
		return quote(v.str())
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
	switch v.Kind() {
	case KindNil:
		b.WriteString("nil")
	case KindBool:
		b.WriteString(strconv.FormatBool(v.n != 0))
	case KindInt:
		b.WriteString(strconv.FormatInt(v.n, 10))
	case KindString:
		b.WriteString(quote(v.str()))
	case KindPair:
		vs := v.elems()
		b.WriteByte('(')
		vs[0].write(b)
		b.WriteString(", ")
		vs[1].write(b)
		b.WriteByte(')')
	case KindList:
		b.WriteByte('[')
		for i, e := range v.elems() {
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
