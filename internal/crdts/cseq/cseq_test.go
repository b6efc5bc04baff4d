package cseq

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/crdt"
	"repro/internal/model"
	"repro/internal/spec"
)

func v(s string) model.Value { return model.Str(s) }

func addAfter(a, b model.Value) model.Op {
	return model.Op{Name: spec.OpAddAfter, Arg: model.Pair(a, b)}
}

func step(t *testing.T, o Object, s crdt.State, op model.Op, node model.NodeID, mid model.MsgID) (crdt.State, crdt.Effector) {
	t.Helper()
	_, eff, err := o.Prepare(op, s, node, mid)
	if err != nil {
		t.Fatalf("Prepare(%s): %v", op, err)
	}
	return eff.Apply(s), eff
}

func TestSequentialInserts(t *testing.T) {
	o := New()
	s := o.Init()
	s, _ = step(t, o, s, addAfter(spec.Sentinel, v("a")), 0, 1)
	s, _ = step(t, o, s, addAfter(v("a"), v("c")), 0, 2)
	s, _ = step(t, o, s, addAfter(v("a"), v("b")), 0, 3) // between a and c
	want := model.List(v("a"), v("b"), v("c"))
	if !Abs(s).Equal(want) {
		t.Fatalf("Abs = %s, want %s", Abs(s), want)
	}
	s, _ = step(t, o, s, model.Op{Name: spec.OpRemove, Arg: v("b")}, 0, 4)
	if !Abs(s).Equal(model.List(v("a"), v("c"))) {
		t.Fatalf("remove failed: %s", Abs(s))
	}
	// Inserting into the vacated gap still works.
	s, _ = step(t, o, s, addAfter(v("a"), v("x")), 0, 5)
	if !Abs(s).Equal(model.List(v("a"), v("x"), v("c"))) {
		t.Fatalf("gap insert failed: %s", Abs(s))
	}
}

// TestFig4TagArbitration reproduces Fig 4: starting from the sequence ac,
// t1 runs ① addAfter(a,p); ② addAfter(c,d) and t2 runs ③ addAfter(c,e);
// ④ addAfter(a,q), with no cross-delivery until the end. The paper notes
// the final read apqced is possible "as long as the tag generated by ①
// happens to be smaller than that of ④, while the tag of ③ is smaller than
// that of ②" — we realise that possibility with an explicit tag chooser
// (tags are free as long as they respect the local gap).
func TestFig4TagArbitration(t *testing.T) {
	chosen := map[model.MsgID]*big.Rat{
		3: big.NewRat(-2, 1), // ① p under anchor a, below c's sub-component
		4: big.NewRat(5, 1),  // ② d under anchor c (unbounded)
		5: big.NewRat(4, 1),  // ③ e under anchor c: smaller than ②'s
		6: big.NewRat(-1, 1), // ④ q under anchor a: larger than ①'s
	}
	o := NewWithChooser(func(lo, hi *big.Rat, origin model.NodeID, mid model.MsgID) *big.Rat {
		if r, ok := chosen[mid]; ok {
			return r
		}
		return Midpoint(lo, hi, origin, mid)
	})
	base := o.Init()
	// Shared prefix: a then c appended by node 0, replicated everywhere.
	var effs []crdt.Effector
	s := base
	s, e1 := step(t, o, s, addAfter(spec.Sentinel, v("a")), 0, 1)
	s, e2 := step(t, o, s, addAfter(v("a"), v("c")), 0, 2)
	effs = append(effs, e1, e2)
	s1, s2 := base, base
	for _, e := range effs {
		s1 = e.Apply(s1)
		s2 = e.Apply(s2)
	}
	// t1: ① addAfter(a,p) then ② addAfter(c,d).
	s1, p := step(t, o, s1, addAfter(v("a"), v("p")), 1, 3)
	s1, d := step(t, o, s1, addAfter(v("c"), v("d")), 1, 4)
	// t2: ③ addAfter(c,e) then ④ addAfter(a,q).
	s2, e := step(t, o, s2, addAfter(v("c"), v("e")), 2, 5)
	s2, q := step(t, o, s2, addAfter(v("a"), v("q")), 2, 6)
	// The paper's scenario requires tag(p) < tag(q) and tag(e) < tag(d).
	if pe, qe := p.(AddEff), q.(AddEff); qe.T.Less(pe.T) {
		t.Fatalf("need tag(p) < tag(q): %s vs %s", pe.T, qe.T)
	}
	if de, ee := d.(AddEff), e.(AddEff); de.T.Less(ee.T) {
		t.Fatalf("need tag(e) < tag(d): %s vs %s", ee.T, de.T)
	}
	// Full exchange.
	s1 = e.Apply(q.Apply(s1))
	s2 = p.Apply(d.Apply(s2))
	want := model.List(v("a"), v("p"), v("q"), v("c"), v("e"), v("d"))
	if !Abs(s1).Equal(want) || !Abs(s2).Equal(want) {
		t.Fatalf("reads = %s / %s, want apqced", Abs(s1), Abs(s2))
	}
}

func TestAssumePreconditions(t *testing.T) {
	o := New()
	s := o.Init()
	s, _ = step(t, o, s, addAfter(spec.Sentinel, v("a")), 0, 1)
	for _, op := range []model.Op{
		addAfter(v("zz"), v("b")),
		addAfter(v("a"), v("a")),
		addAfter(v("a"), spec.Sentinel),
		{Name: spec.OpRemove, Arg: v("zz")},
		{Name: spec.OpRemove, Arg: spec.Sentinel},
	} {
		if _, _, err := o.Prepare(op, s, 0, 99); !errors.Is(err, crdt.ErrAssume) {
			t.Errorf("Prepare(%s): err = %v, want ErrAssume", op, err)
		}
	}
	s, _ = step(t, o, s, model.Op{Name: spec.OpRemove, Arg: v("a")}, 0, 2)
	if _, _, err := o.Prepare(addAfter(spec.Sentinel, v("a")), s, 0, 100); !errors.Is(err, crdt.ErrAssume) {
		t.Error("re-adding a removed element must fail")
	}
}

func tag(r *big.Rat, node model.NodeID, seq int64) Tag {
	return Tag{Path: []Comp{{R: r, Node: node, Seq: seq}}}
}

func TestEffectorsCommute(t *testing.T) {
	o := New()
	s := o.Init()
	add1 := AddEff{Anchor: spec.Sentinel, T: tag(big.NewRat(1, 2), 1, 1), B: v("x")}
	add2 := AddEff{Anchor: spec.Sentinel, T: tag(big.NewRat(1, 3), 2, 2), B: v("y")}
	rmv := RmvEff{E: v("x")}
	s12 := rmv.Apply(add2.Apply(add1.Apply(s)))
	s21 := add1.Apply(rmv.Apply(add2.Apply(s)))
	if !bytes.Equal(s12.AppendBinary(nil), s21.AppendBinary(nil)) {
		t.Fatal("effectors do not commute")
	}
	if !Abs(s12).Equal(model.List(v("y"))) {
		t.Errorf("Abs = %s", Abs(s12))
	}
}

func TestTagTotalOrder(t *testing.T) {
	a := tag(big.NewRat(1, 2), 1, 1)
	b := tag(big.NewRat(1, 2), 2, 1)
	c := tag(big.NewRat(1, 2), 2, 5)
	d := tag(big.NewRat(2, 3), 0, 0)
	if !a.Less(b) || !b.Less(c) || !c.Less(d) {
		t.Error("tag order wrong")
	}
	if a.Compare(a) != 0 || a.Compare(b) != -1 || b.Compare(a) != 1 {
		t.Error("Compare wrong")
	}
	// A proper extension sorts after its prefix (missing component = -∞).
	ext := Tag{Path: append(append([]Comp{}, a.Path...), Comp{R: big.NewRat(-5, 1), Node: 0, Seq: 9})}
	if !a.Less(ext) || ext.Less(a) {
		t.Error("extension must sort after its prefix")
	}
	// ...and before the next tie-broken sibling.
	if !ext.Less(b) {
		t.Error("extension must stay below the next sibling")
	}
}

// TestConcurrentHeadInsertsSplit reproduces the case that defeats naive
// rational tags: two nodes concurrently insert at the head from the empty
// sequence (both would pick rational 0), then a third insert lands between
// the two tie-broken tags by descending a level.
func TestConcurrentHeadInsertsSplit(t *testing.T) {
	o := New()
	base := o.Init()
	_, e1, err := o.Prepare(addAfter(spec.Sentinel, v("a")), base, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, e2, err := o.Prepare(addAfter(spec.Sentinel, v("b")), base, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := e2.Apply(e1.Apply(base))
	if !Abs(s).Equal(model.List(v("a"), v("b"))) {
		t.Fatalf("Abs = %s, want [a b] (node tie-break)", Abs(s))
	}
	// Insert between the tied tags: must not panic and must land in place.
	_, e3, err := o.Prepare(addAfter(v("a"), v("m")), s, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	s = e3.Apply(s)
	if !Abs(s).Equal(model.List(v("a"), v("m"), v("b"))) {
		t.Fatalf("Abs = %s, want [a m b]", Abs(s))
	}
}

func TestBetween(t *testing.T) {
	lo, hi := big.NewRat(1, 1), big.NewRat(2, 1)
	m := between(lo, hi)
	if m.Cmp(lo) <= 0 || m.Cmp(hi) >= 0 {
		t.Errorf("between(1,2) = %s", m)
	}
	if between(nil, nil).Cmp(big.NewRat(0, 1)) != 0 {
		t.Error("between(-∞,∞) should be 0")
	}
	if between(nil, lo).Cmp(lo) >= 0 {
		t.Error("between(-∞,1) must be below 1")
	}
	if between(hi, nil).Cmp(hi) <= 0 {
		t.Error("between(2,∞) must be above 2")
	}
}

func TestViewTracksAliveAndDead(t *testing.T) {
	o := New()
	s := o.Init()
	s, _ = step(t, o, s, addAfter(spec.Sentinel, v("a")), 0, 1)
	s, _ = step(t, o, s, addAfter(v("a"), v("b")), 0, 2)
	s, _ = step(t, o, s, model.Op{Name: spec.OpRemove, Arg: v("b")}, 0, 3)
	view := View(s)
	var adds, rmvs int
	for _, dEff := range view {
		switch dEff.(type) {
		case AddEff:
			adds++
		case RmvEff:
			rmvs++
		}
	}
	if adds != 2 || rmvs != 1 {
		t.Errorf("view has %d adds and %d removes, want 2 and 1 (dead adds included)", adds, rmvs)
	}
}

// TestTagGenerationInvariants drives random insert/remove sequences on one
// replica and checks the structural invariants the ACC argument rests on:
// every generated tag sorts strictly after its anchor and strictly before
// the anchor's previous successor, and the live sequence is always strictly
// tag-sorted.
func TestTagGenerationInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	o := New()
	for trial := 0; trial < 30; trial++ {
		s := o.Init()
		var mid model.MsgID
		for i := 0; i < 25; i++ {
			mid++
			st := s.(State)
			live := st.alive()
			if len(live) > 0 && rng.Intn(4) == 0 {
				victim := live[rng.Intn(len(live))].E
				_, eff, err := o.Prepare(model.Op{Name: spec.OpRemove, Arg: victim}, s, model.NodeID(rng.Intn(3)), mid)
				if err != nil {
					t.Fatal(err)
				}
				s = eff.Apply(s)
				continue
			}
			anchor := spec.Sentinel
			var anchorIdx = -1
			if len(live) > 0 && rng.Intn(3) != 0 {
				anchorIdx = rng.Intn(len(live))
				anchor = live[anchorIdx].E
			}
			elem := model.Str(fmt.Sprintf("e%d-%d", trial, i))
			_, eff, err := o.Prepare(addAfter(anchor, elem), s, model.NodeID(rng.Intn(3)), mid)
			if err != nil {
				t.Fatal(err)
			}
			add := eff.(AddEff)
			if anchorIdx >= 0 {
				if !live[anchorIdx].T.Less(add.T) {
					t.Fatalf("tag %s not above its anchor %s", add.T, live[anchorIdx].T)
				}
				if anchorIdx+1 < len(live) && !add.T.Less(live[anchorIdx+1].T) {
					t.Fatalf("tag %s not below the previous successor %s", add.T, live[anchorIdx+1].T)
				}
			} else if len(live) > 0 && !add.T.Less(live[0].T) {
				t.Fatalf("head tag %s not below the first element %s", add.T, live[0].T)
			}
			s = eff.Apply(s)
			// Strict sortedness of the live sequence.
			now := s.(State).alive()
			for j := 1; j < len(now); j++ {
				if !now[j-1].T.Less(now[j].T) {
					t.Fatalf("live sequence not strictly tag-sorted at %d", j)
				}
			}
		}
	}
}
