// Package cseq implements the continuous sequence algorithm of Shapiro et
// al. (Sec 2.3, Fig 4): every addAfter(a, b) tags the new element with a
// "real number" strictly between the tag of a and the tag of a's current
// successor; read() returns the live elements in increasing tag order.
//
// Unlike RGA's stamps, these tags do not respect happens-before: a later
// operation can receive a smaller tag (the paper's Fig 4 exploits exactly
// this to show that different nodes must arbitrate non-conflicting
// operations differently).
//
// Tags realise a dense total order with guaranteed room between any two
// distinct tags: they are paths of (rational, node, request-id) components,
// compared lexicographically with a missing component reading as -∞, and a
// fresh element's tag always extends its anchor's path. Flat real-number
// tags — the literal reading of the algorithm — fail refinement of the
// atomic list specification: a concurrent insert can land strictly between
// an anchor and its causally later child (the classic "interleaving
// anomaly" of Logoot-style identifiers), an outcome no serialization of
// atomic addAfter operations produces. Path extension removes the anomaly
// structurally: any tag strictly between an anchor and one of its extensions
// is itself an extension of that anchor, so foreign subtrees can never
// interleave. The trailing (node, request-id) makes every tag globally
// unique.
//
// The replica keeps every element ever added together with its tag, plus a
// tombstone set — the same monotone N/T structure as RGA — so all effectors
// commute even without causal delivery.
package cseq

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"repro/internal/crdt"
	"repro/internal/model"
	"repro/internal/spec"
)

// Comp is one component of a position tag: a rational, tie-broken by origin
// node and the unique request ID (which makes generated tags globally
// unique).
type Comp struct {
	R    *big.Rat
	Node model.NodeID
	Seq  int64
}

// Compare totally orders components.
func (c Comp) Compare(d Comp) int {
	if cmp := c.R.Cmp(d.R); cmp != 0 {
		return cmp
	}
	if c.Node != d.Node {
		if c.Node < d.Node {
			return -1
		}
		return 1
	}
	switch {
	case c.Seq < d.Seq:
		return -1
	case c.Seq > d.Seq:
		return 1
	default:
		return 0
	}
}

// String renders the component.
func (c Comp) String() string { return fmt.Sprintf("%s@%s#%d", c.R.RatString(), c.Node, c.Seq) }

// Tag is the dense, totally ordered position tag: a non-empty path of
// components compared lexicographically, with a missing component reading as
// -∞ (so every proper extension of a tag sorts after it).
type Tag struct {
	Path []Comp
}

// Compare totally orders tags.
func (t Tag) Compare(u Tag) int {
	for i := 0; ; i++ {
		switch {
		case i >= len(t.Path) && i >= len(u.Path):
			return 0
		case i >= len(t.Path):
			return -1
		case i >= len(u.Path):
			return 1
		}
		if c := t.Path[i].Compare(u.Path[i]); c != 0 {
			return c
		}
	}
}

// Less reports strict tag order.
func (t Tag) Less(u Tag) bool { return t.Compare(u) < 0 }

// String renders the tag as its slash-separated components.
func (t Tag) String() string {
	parts := make([]string, len(t.Path))
	for i, c := range t.Path {
		parts[i] = c.String()
	}
	return strings.Join(parts, "/")
}

// TagChooser picks the rational part of a fresh tag, strictly inside the
// open interval (lo, hi); nil bounds denote -∞ and +∞. The algorithm is
// correct for any choice — the paper's Fig 4 relies on exactly this freedom
// ("as long as the tag generated by ① happens to be smaller than that of
// ④") — so harnesses may inject a custom chooser; Midpoint is the default.
type TagChooser func(lo, hi *big.Rat, origin model.NodeID, mid model.MsgID) *big.Rat

// Midpoint is the default TagChooser: the midpoint of bounded gaps, and one
// unit beyond the bound for half-open gaps.
func Midpoint(lo, hi *big.Rat, _ model.NodeID, _ model.MsgID) *big.Rat {
	return between(lo, hi)
}

// between returns a rational strictly between lo and hi; nil bounds denote
// -∞ and +∞ respectively.
func between(lo, hi *big.Rat) *big.Rat {
	switch {
	case lo == nil && hi == nil:
		return big.NewRat(0, 1)
	case lo == nil:
		return new(big.Rat).Sub(hi, big.NewRat(1, 1))
	case hi == nil:
		return new(big.Rat).Add(lo, big.NewRat(1, 1))
	default:
		mid := new(big.Rat).Add(lo, hi)
		return mid.Quo(mid, big.NewRat(2, 1))
	}
}

// rec is one element record: the element, its tag, and the anchor it was
// inserted after (kept for the proof method's ↣).
type rec struct {
	E      model.Value
	T      Tag
	Anchor model.Value // spec.Sentinel for head inserts
}

// State is the replica state: every element ever added (with its tag) and
// the tombstones.
type State struct {
	Added map[string]rec // keyed by element rendering
	Dead  *model.ValueSet
}

func (s State) clone() State {
	a := make(map[string]rec, len(s.Added))
	for k, v := range s.Added {
		a[k] = v
	}
	return State{Added: a, Dead: s.Dead.Clone()}
}

// chainPresent reports whether every ancestor on r's anchor chain has been
// applied at this replica (dead ancestors count — like RGA's tombstoned tree
// nodes, they still anchor their subtrees). Without causal delivery an
// element can arrive before its anchor; it must stay hidden until the chain
// is complete, or reads would show a state no serialization of the visible
// abstract operations can produce.
func (s State) chainPresent(r rec) bool {
	for !r.Anchor.Equal(spec.Sentinel) {
		parent, ok := s.Added[r.Anchor.String()]
		if !ok {
			return false
		}
		r = parent
	}
	return true
}

// alive returns the visible records — not tombstoned, with complete anchor
// chains — in increasing tag order.
func (s State) alive() []rec {
	var out []rec
	for _, r := range s.Added {
		if !s.Dead.Has(r.E) && s.chainPresent(r) {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].T.Less(out[j].T) })
	return out
}

// fullOrder returns every record — live and tombstoned — in increasing tag
// order. Tag generation must respect dead neighbours too: a fresh insert
// that jumped over a tombstoned sibling would be arbitrated before it by the
// in-gap order ↣ while being issued causally after it, breaking coherence.
func (s State) fullOrder() []rec {
	out := make([]rec, 0, len(s.Added))
	for _, r := range s.Added {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].T.Less(out[j].T) })
	return out
}

// Read returns the live elements in tag order.
func (s State) Read() []model.Value {
	live := s.alive()
	out := make([]model.Value, len(live))
	for i, r := range live {
		out[i] = r.E
	}
	return out
}

// AddEff is the effector of addAfter: record the tagged element. ATag is the
// anchor's tag (nil when the anchor is the sentinel); it is carried for the
// proof method's timestamp order.
type AddEff struct {
	Anchor model.Value
	ATag   *Tag
	T      Tag
	B      model.Value
}

// Apply implements crdt.Effector.
func (d AddEff) Apply(s crdt.State) crdt.State { return d.ApplyInPlace(s.(State).clone()) }

// ApplyInPlace implements crdt.InPlace.
func (d AddEff) ApplyInPlace(s crdt.State) crdt.State {
	st := s.(State)
	st.Added[d.B.String()] = rec{E: d.B, T: d.T, Anchor: d.Anchor}
	return st
}

// String implements crdt.Effector.
func (d AddEff) String() string {
	return fmt.Sprintf("AddC(%s,%s,%s)", d.Anchor, d.T, d.B)
}

// RmvEff is the effector of remove(e): tombstone e.
type RmvEff struct {
	E model.Value
}

// Apply implements crdt.Effector.
func (d RmvEff) Apply(s crdt.State) crdt.State { return d.ApplyInPlace(s.(State).clone()) }

// ApplyInPlace implements crdt.InPlace.
func (d RmvEff) ApplyInPlace(s crdt.State) crdt.State {
	st := s.(State)
	st.Dead.Add(d.E)
	return st
}

// String implements crdt.Effector.
func (d RmvEff) String() string { return fmt.Sprintf("RmvC(%s)", d.E) }

// Object is the continuous sequence implementation Π.
type Object struct {
	choose TagChooser
}

// New returns the continuous sequence object with midpoint tag selection.
func New() Object { return NewWithChooser(Midpoint) }

// NewWithChooser returns a continuous sequence whose fresh tags are picked
// by ch. The chooser must return a rational strictly inside the gap; Prepare
// panics otherwise, since that would corrupt the sequence order.
func NewWithChooser(ch TagChooser) Object { return Object{choose: ch} }

// childTag generates the tag of a fresh element anchored at anchor (nil for
// the sentinel): the anchor's path extended by one fresh component. hiR, when
// non-nil, bounds the fresh component's rational from above — it is the next
// component of the anchor's immediate live successor when that successor lies
// inside the anchor's subtree (or the first component of the current head
// element for sentinel-anchored inserts).
//
// Extending the anchor's path keeps subtrees local: any tag that falls
// strictly between an anchor and one of its extensions is itself an
// extension of the anchor, so elements generated elsewhere can never
// interleave into the gap — which is exactly what refinement of the atomic
// list specification requires (the "interleaving anomaly" of naive
// real-number tags).
func (o Object) childTag(anchor *Tag, hiR *big.Rat, origin model.NodeID, mid model.MsgID) Tag {
	r := o.choose(nil, hiR, origin, mid)
	if hiR != nil && r.Cmp(hiR) >= 0 {
		panic(fmt.Sprintf("cseq: tag chooser returned %s not below the bound %s", r.RatString(), hiR.RatString()))
	}
	var path []Comp
	if anchor != nil {
		path = append(path, anchor.Path...)
	}
	path = append(path, Comp{R: r, Node: origin, Seq: int64(mid)})
	return Tag{Path: path}
}

// extendsUnder reports whether t extends prefix's path, and if so returns
// the rational of its first component below the prefix.
func extendsUnder(t Tag, prefix Tag) (*big.Rat, bool) {
	if len(t.Path) <= len(prefix.Path) {
		return nil, false
	}
	for i, c := range prefix.Path {
		if t.Path[i].Compare(c) != 0 {
			return nil, false
		}
	}
	return t.Path[len(prefix.Path)].R, true
}

// Name implements crdt.Object.
func (Object) Name() string { return "cseq" }

// Init implements crdt.Object.
func (Object) Init() crdt.State {
	return State{Added: map[string]rec{}, Dead: model.NewValueSet()}
}

// Ops implements crdt.Object.
func (Object) Ops() []model.OpName {
	return []model.OpName{spec.OpAddAfter, spec.OpRemove, spec.OpRead}
}

// Prepare implements crdt.Object.
func (o Object) Prepare(op model.Op, s crdt.State, origin model.NodeID, mid model.MsgID) (model.Value, crdt.Effector, error) {
	st := s.(State)
	switch op.Name {
	case spec.OpAddAfter:
		a, b, ok := op.Arg.AsPair()
		if !ok {
			return model.Nil(), nil, fmt.Errorf("cseq: addAfter expects a pair argument, got %s: %w", op.Arg, crdt.ErrUnknownOp)
		}
		if _, dup := st.Added[b.String()]; dup || b.Equal(spec.Sentinel) || st.Dead.Has(b) {
			return model.Nil(), nil, crdt.ErrAssume // elements are unique
		}
		full := st.fullOrder()
		var aTag *Tag
		var hiR *big.Rat
		if a.Equal(spec.Sentinel) {
			if len(full) > 0 {
				hiR = full[0].T.Path[0].R
			}
		} else {
			if st.Dead.Has(a) {
				return model.Nil(), nil, crdt.ErrAssume // anchor must be live
			}
			anchorIdx := -1
			for i, r := range full {
				if r.E.Equal(a) {
					anchorIdx = i
					break
				}
			}
			if anchorIdx < 0 {
				return model.Nil(), nil, crdt.ErrAssume // anchor must be live
			}
			t := full[anchorIdx].T
			aTag = &t
			if anchorIdx+1 < len(full) {
				if r, ok := extendsUnder(full[anchorIdx+1].T, t); ok {
					hiR = r
				}
			}
		}
		tag := o.childTag(aTag, hiR, origin, mid)
		if aTag != nil && tag.Compare(*aTag) <= 0 {
			panic(fmt.Sprintf("cseq: generated tag %s not above its anchor %s", tag, *aTag))
		}
		return model.Nil(), AddEff{Anchor: a, ATag: aTag, T: tag, B: b}, nil
	case spec.OpRemove:
		e := op.Arg
		if e.Equal(spec.Sentinel) || st.Dead.Has(e) {
			return model.Nil(), nil, crdt.ErrAssume
		}
		if _, ok := st.Added[e.String()]; !ok {
			return model.Nil(), nil, crdt.ErrAssume
		}
		return model.Nil(), RmvEff{E: e}, nil
	case spec.OpRead:
		return model.List(st.Read()...), crdt.IdEff{}, nil
	default:
		return model.Nil(), nil, crdt.ErrUnknownOp
	}
}

// Abs is the abstraction function φ: the live elements in tag order — the
// tags themselves are hidden.
func Abs(s crdt.State) model.Value { return model.List(s.(State).Read()...) }

// Spec returns the abstract list specification shared with RGA.
func Spec() spec.Spec { return spec.ListSpec{} }

// TSOrder is the timestamp order ↣ for the continuous sequence:
//
//   - AddC(a,ta,i,b) ↣ AddC(a',ta',i',b') if i' lies strictly between ta and
//     i (the later-arbitrated insert lands closer to the anchor), or if the
//     second insert is anchored at b (parents before children);
//   - AddC(a,ta,i,b) ↣ RmvC(b) and ↣ RmvC(a) (inserts before the removals of
//     themselves or their anchors).
func TSOrder(d1, d2 crdt.Effector) bool {
	switch e1 := d1.(type) {
	case AddEff:
		switch e2 := d2.(type) {
		case AddEff:
			if e2.Anchor.Equal(e1.B) {
				return true
			}
			aboveAnchor := e1.ATag == nil || e1.ATag.Less(e2.T)
			return aboveAnchor && e2.T.Less(e1.T)
		case RmvEff:
			return e2.E.Equal(e1.B) || e2.E.Equal(e1.Anchor)
		}
	}
	return false
}

// View is the view function V for the continuous sequence: every AddC
// effector recorded in the state (live or tombstoned) plus the RmvC
// effectors of the tombstones.
func View(s crdt.State) []crdt.Effector {
	st := s.(State)
	var out []crdt.Effector
	for _, r := range st.fullOrder() {
		var aTag *Tag
		if !r.Anchor.Equal(spec.Sentinel) {
			if ar, ok := st.Added[r.Anchor.String()]; ok {
				t := ar.T
				aTag = &t
			}
		}
		out = append(out, AddEff{Anchor: r.Anchor, ATag: aTag, T: r.T, B: r.E})
	}
	for _, e := range st.Dead.Elems() {
		out = append(out, RmvEff{E: e})
	}
	return out
}
