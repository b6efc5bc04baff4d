package rga

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/crdt"
	"repro/internal/model"
	"repro/internal/spec"
)

func v(s string) model.Value { return model.Str(s) }

func addAfter(a, b model.Value) model.Op {
	return model.Op{Name: spec.OpAddAfter, Arg: model.Pair(a, b)}
}

func remove(a model.Value) model.Op { return model.Op{Name: spec.OpRemove, Arg: a} }

// apply issues op at origin t and applies the effector locally, returning
// the new state, the return value, and the effector.
func apply(t *testing.T, o Object, s crdt.State, op model.Op, node model.NodeID, mid model.MsgID) (crdt.State, model.Value, crdt.Effector) {
	t.Helper()
	ret, eff, err := o.Prepare(op, s, node, mid)
	if err != nil {
		t.Fatalf("Prepare(%s): %v", op, err)
	}
	return eff.Apply(s), ret, eff
}

// travReference is Fig 2's trav as written: it rebuilds the children of
// every element from N, sorts each sibling list by decreasing stamp and
// walks the tree depth-first from the sentinel, dropping tombstones. State
// keeps the sibling index that makes this rebuild unnecessary; this is the
// oracle the index is tested against.
func travReference(s State) []model.Value {
	children := map[string][]Triple{}
	for _, t := range s.N {
		k := t.A.String()
		children[k] = append(children[k], t)
	}
	for _, cs := range children {
		sort.Slice(cs, func(i, j int) bool { return cs[j].I.Less(cs[i].I) }) // decreasing
	}
	var out []model.Value
	var dfs func(elem model.Value)
	dfs = func(elem model.Value) {
		for _, t := range children[elem.String()] {
			if !s.T.Has(t.B) {
				out = append(out, t.B)
			}
			dfs(t.B)
		}
	}
	dfs(spec.Sentinel)
	return out
}

// fig2Tree builds the timestamped tree of Sec 2.1: a after the sentinel;
// e, b, c after a (in stamp order ts1 < ts2 < ts3); d after c; then e
// removed.
func fig2Tree(t *testing.T) crdt.State {
	t.Helper()
	o := New()
	s := o.Init()
	var mid model.MsgID
	next := func() model.MsgID { mid++; return mid }
	s, _, _ = apply(t, o, s, addAfter(spec.Sentinel, v("a")), 0, next())
	s, _, _ = apply(t, o, s, addAfter(v("a"), v("e")), 0, next())
	s, _, _ = apply(t, o, s, addAfter(v("a"), v("b")), 0, next())
	s, _, _ = apply(t, o, s, addAfter(v("a"), v("c")), 0, next())
	s, _, _ = apply(t, o, s, addAfter(v("c"), v("d")), 0, next())
	s, _, _ = apply(t, o, s, remove(v("e")), 0, next())
	return s
}

// TestFig2Tree reproduces the timestamped tree of Sec 2.1: read() returns
// acdb.
func TestFig2Tree(t *testing.T) {
	o := New()
	s := fig2Tree(t)
	_, ret, _ := apply(t, o, s, model.Op{Name: spec.OpRead}, 0, 7)
	want := model.List(v("a"), v("c"), v("d"), v("b"))
	if !ret.Equal(want) {
		t.Fatalf("read = %s, want %s (acdb)", ret, want)
	}
	if !Abs(s).Equal(want) {
		t.Fatalf("Abs = %s, want %s", Abs(s), want)
	}
}

// TestFig3aConcurrentAdds replays Fig 3(a): t1 and t2 concurrently insert b
// and c after a; after exchanging effectors both read acb (the higher-stamped
// c sits closer to a).
func TestFig3aConcurrentAdds(t *testing.T) {
	o := New()
	s0 := o.Init()
	// Shared prefix: a inserted and replicated to both nodes.
	_, effA, err := o.Prepare(addAfter(spec.Sentinel, v("a")), s0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	s1 := effA.Apply(s0) // replica of t1
	s2 := effA.Apply(s0) // replica of t2
	// Concurrent inserts: t1 issues addAfter(a,b), t2 issues addAfter(a,c).
	_, effB, err := o.Prepare(addAfter(v("a"), v("b")), s1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, effC, err := o.Prepare(addAfter(v("a"), v("c")), s2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	b := effB.(AddAftEff)
	c := effC.(AddAftEff)
	if !b.I.Less(c.I) {
		t.Fatalf("expected ts1 < ts2, got %s vs %s", b.I, c.I)
	}
	s1 = effB.Apply(s1)
	s2 = effC.Apply(s2)
	// Cross delivery.
	s1 = effC.Apply(s1)
	s2 = effB.Apply(s2)
	want := model.List(v("a"), v("c"), v("b"))
	if !Abs(s1).Equal(want) || !Abs(s2).Equal(want) {
		t.Fatalf("reads = %s / %s, want acb", Abs(s1), Abs(s2))
	}
}

// TestEffectorsCommute checks the first CRDT-TS obligation on a hand-built
// pair of effectors: the order of applying AddAft and Rmv does not matter.
func TestEffectorsCommute(t *testing.T) {
	o := New()
	s := o.Init()
	s, _, _ = apply(t, o, s, addAfter(spec.Sentinel, v("a")), 0, 1)
	add := AddAftEff{A: v("a"), I: model.Stamp{N: 5, Node: 2}, B: v("x")}
	rmv := RmvEff{A: v("a")}
	s12 := rmv.Apply(add.Apply(s))
	s21 := add.Apply(rmv.Apply(s))
	if a, b := s12.AppendBinary(nil), s21.AppendBinary(nil); !bytes.Equal(a, b) {
		t.Fatalf("effectors do not commute:\n%x\n%x", a, b)
	}
}

// TestRemoveLeavesAnchor checks that a tombstoned element still anchors its
// subtree: inserting after a dead element places the new element where the
// dead one was.
func TestRemoveLeavesAnchor(t *testing.T) {
	o := New()
	s := o.Init()
	s, _, _ = apply(t, o, s, addAfter(spec.Sentinel, v("a")), 0, 1)
	s, _, _ = apply(t, o, s, addAfter(v("a"), v("b")), 0, 2)
	// remove(a) arrives at a replica that then receives addAfter(a, x) from
	// a node that issued it while a was still alive.
	add := AddAftEff{A: v("a"), I: model.Stamp{N: 9, Node: 3}, B: v("x")}
	s = RmvEff{A: v("a")}.Apply(s)
	s = add.Apply(s)
	want := model.List(v("x"), v("b"))
	if !Abs(s).Equal(want) {
		t.Fatalf("Abs = %s, want %s", Abs(s), want)
	}
}

func TestAssumePreconditions(t *testing.T) {
	o := New()
	s := o.Init()
	s, _, _ = apply(t, o, s, addAfter(spec.Sentinel, v("a")), 0, 1)
	cases := []model.Op{
		addAfter(v("zz"), v("b")),       // anchor absent
		addAfter(v("a"), v("a")),        // element already present
		addAfter(v("a"), spec.Sentinel), // sentinel cannot be inserted
		remove(v("zz")),                 // element absent
		remove(spec.Sentinel),           // sentinel cannot be removed
	}
	for _, op := range cases {
		if _, _, err := o.Prepare(op, s, 0, 99); !errors.Is(err, crdt.ErrAssume) {
			t.Errorf("Prepare(%s): err = %v, want ErrAssume", op, err)
		}
	}
	// Removed element can be neither re-added nor re-removed.
	s, _, _ = apply(t, o, s, remove(v("a")), 0, 2)
	if _, _, err := o.Prepare(remove(v("a")), s, 0, 100); !errors.Is(err, crdt.ErrAssume) {
		t.Error("double remove must fail")
	}
	if _, _, err := o.Prepare(addAfter(spec.Sentinel, v("a")), s, 0, 101); !errors.Is(err, crdt.ErrAssume) {
		t.Error("re-adding a removed element must fail")
	}
}

func TestUnknownOp(t *testing.T) {
	o := New()
	if _, _, err := o.Prepare(model.Op{Name: "mystery"}, o.Init(), 0, 1); !errors.Is(err, crdt.ErrUnknownOp) {
		t.Errorf("err = %v, want ErrUnknownOp", err)
	}
	if _, _, err := o.Prepare(model.Op{Name: spec.OpAddAfter, Arg: model.Int(3)}, o.Init(), 0, 1); err == nil {
		t.Error("malformed addAfter argument must error")
	}
}

// TestTSOrder checks the ↣ instance of Sec 8.
func TestTSOrder(t *testing.T) {
	a1 := AddAftEff{A: v("a"), I: model.Stamp{N: 1, Node: 1}, B: v("b")}
	a2 := AddAftEff{A: v("a"), I: model.Stamp{N: 2, Node: 1}, B: v("c")}
	if !TSOrder(a1, a2) || TSOrder(a2, a1) {
		t.Error("AddAft stamps must order ↣")
	}
	if !TSOrder(a1, RmvEff{A: v("a")}) || !TSOrder(a1, RmvEff{A: v("b")}) {
		t.Error("AddAft ↣ Rmv of anchor and element")
	}
	if TSOrder(a1, RmvEff{A: v("z")}) {
		t.Error("AddAft unrelated to Rmv of other elements")
	}
	if TSOrder(RmvEff{A: v("a")}, a1) {
		t.Error("Rmv is ↣-maximal")
	}
}

// TestView checks that V(S) reconstructs exactly the applied effectors.
func TestView(t *testing.T) {
	o := New()
	s := o.Init()
	s, _, eff1 := apply(t, o, s, addAfter(spec.Sentinel, v("a")), 0, 1)
	s, _, eff2 := apply(t, o, s, remove(v("a")), 0, 2)
	view := View(s)
	if len(view) != 2 {
		t.Fatalf("len(V) = %d, want 2", len(view))
	}
	want := map[string]bool{eff1.String(): true, eff2.String(): true}
	for _, d := range view {
		if !want[d.String()] {
			t.Errorf("unexpected effector in view: %s", d)
		}
	}
}

func TestEncodingDistinguishesStates(t *testing.T) {
	o := New()
	s1 := o.Init()
	s2, _, _ := apply(t, o, s1, addAfter(spec.Sentinel, v("a")), 0, 1)
	if bytes.Equal(s1.AppendBinary(nil), s2.AppendBinary(nil)) {
		t.Error("distinct states share an encoding")
	}
	s3, _, _ := apply(t, o, s2, remove(v("a")), 0, 2)
	if bytes.Equal(s2.AppendBinary(nil), s3.AppendBinary(nil)) {
		t.Error("tombstoning must change the encoding")
	}
}

// TestFig2Golden pins the Fig 2 tree's identity to the bytes the state had
// before it kept a sibling index: the index is derived data, and
// AppendBinary may not show it.
func TestFig2Golden(t *testing.T) {
	const bin = "050303e297a60200030161030161060003016203016108000301630301630a000301640301610400030165010301650a00"
	s := fig2Tree(t)
	if got := hex.EncodeToString(s.AppendBinary(nil)); got != bin {
		t.Errorf("AppendBinary = %s\nwant            %s", got, bin)
	}
}

// prepared returns the effectors of a random run at 3 nodes: each step
// either prepares an addAfter or a remove at one node, applying it there,
// or delivers one of the node's pending effectors, picked at random, so
// nodes apply each other's effectors in different orders.
func prepared(t *testing.T, rng *rand.Rand, n int) []crdt.Effector {
	t.Helper()
	const nodes = 3
	o := New()
	states := make([]crdt.State, nodes)
	pending := make([][]crdt.Effector, nodes)
	for i := range states {
		states[i] = o.Init()
	}
	var effs []crdt.Effector
	for mid := model.MsgID(1); len(effs) < n; mid++ {
		node := rng.Intn(nodes)
		if q := pending[node]; len(q) > 0 && rng.Intn(2) == 0 {
			j := rng.Intn(len(q))
			states[node] = q[j].Apply(states[node])
			pending[node] = slices.Delete(q, j, j+1)
			continue
		}
		live := travReference(states[node].(State))
		op := addAfter(spec.Sentinel, v(fmt.Sprintf("x%d", mid)))
		switch {
		case len(live) > 0 && rng.Intn(4) == 0:
			op = remove(live[rng.Intn(len(live))])
		case len(live) > 0 && rng.Intn(3) != 0:
			op = addAfter(live[rng.Intn(len(live))], v(fmt.Sprintf("x%d", mid)))
		}
		_, eff, err := o.Prepare(op, states[node], model.NodeID(node), mid)
		if err != nil {
			t.Fatalf("Prepare(%s): %v", op, err)
		}
		states[node] = eff.Apply(states[node])
		effs = append(effs, eff)
		for m := range pending {
			if m != node {
				pending[m] = append(pending[m], eff)
			}
		}
	}
	return effs
}

// schedule is the order one replica applies effs in: shuffled, so children
// often arrive before their parents, with a quarter of the effectors
// applied twice and one AddAft that gives an element already in effs a
// different parent and stamp, replacing its triple.
func schedule(rng *rand.Rand, effs []crdt.Effector) []crdt.Effector {
	seq := slices.Clone(effs)
	for range len(effs) / 4 {
		seq = append(seq, effs[rng.Intn(len(effs))])
	}
	var elems []model.Value
	for _, e := range effs {
		if a, ok := e.(AddAftEff); ok {
			elems = append(elems, a.B)
		}
	}
	seq = append(seq, AddAftEff{
		A: elems[rng.Intn(len(elems))],
		I: model.Stamp{N: 1 << 20, Node: 9},
		B: elems[rng.Intn(len(elems))],
	})
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// TestTravMatchesReference checks the sibling index against Fig 2's trav
// after every apply of a shuffled schedule, four ways: through the pure
// Apply (whose input must keep reading the same), in place through
// crdt.ApplyOwned, on a clone and its original that both keep applying, and
// on a state rebuilt by DecodeState after every step.
func TestTravMatchesReference(t *testing.T) {
	check := func(t *testing.T, what string, step int, s crdt.State) {
		t.Helper()
		st := s.(State)
		if got, want := model.List(st.Trav()...), model.List(travReference(st)...); !got.Equal(want) {
			t.Fatalf("%s after step %d: Trav = %s, reference = %s\nstate %x", what, step, got, want, st.AppendBinary(nil))
		}
	}
	ways := []struct {
		name string
		run  func(t *testing.T, rng *rand.Rand, seq []crdt.Effector)
	}{
		{"Apply", func(t *testing.T, _ *rand.Rand, seq []crdt.Effector) {
			s := New().Init()
			for i, e := range seq {
				prev := s
				s = e.Apply(prev)
				check(t, "input", i, prev)
				check(t, "result", i, s)
			}
		}},
		{"ApplyOwned", func(t *testing.T, _ *rand.Rand, seq []crdt.Effector) {
			s := New().Init()
			for i, e := range seq {
				s = crdt.ApplyOwned(e, s)
				check(t, "state", i, s)
			}
		}},
		{"clone", func(t *testing.T, rng *rand.Rand, seq []crdt.Effector) {
			s := New().Init()
			half := len(seq) / 2
			for _, e := range seq[:half] {
				s = crdt.ApplyOwned(e, s)
			}
			var c crdt.State = s.(State).clone()
			rest := slices.Clone(seq[half:])
			other := slices.Clone(rest)
			rng.Shuffle(len(other), func(i, j int) { other[i], other[j] = other[j], other[i] })
			for i := range rest {
				s = crdt.ApplyOwned(rest[i], s)
				c = crdt.ApplyOwned(other[i], c)
				check(t, "original", half+i, s)
				check(t, "clone", half+i, c)
			}
		}},
		{"DecodeState", func(t *testing.T, _ *rand.Rand, seq []crdt.Effector) {
			s := New().Init()
			for i, e := range seq {
				dec, err := DecodeState(crdt.ApplyOwned(e, s).AppendBinary(nil))
				if err != nil {
					t.Fatal(err)
				}
				s = dec
				check(t, "decoded", i, s)
			}
		}},
	}
	for _, w := range ways {
		t.Run(w.name, func(t *testing.T) {
			for seed := int64(1); seed <= 40; seed++ {
				rng := rand.New(rand.NewSource(seed))
				w.run(t, rng, schedule(rng, prepared(t, rng, 60)))
			}
		})
	}
}

// TestAddAftReplacesTriple pins what an AddAft does for an element already
// in N: the same triple again changes nothing, and a different triple
// replaces the old one, so the element moves with its subtree.
func TestAddAftReplacesTriple(t *testing.T) {
	s := New().Init()
	for _, e := range []AddAftEff{
		{A: spec.Sentinel, I: model.Stamp{N: 1}, B: v("a")},
		{A: spec.Sentinel, I: model.Stamp{N: 2}, B: v("b")},
		{A: v("a"), I: model.Stamp{N: 3}, B: v("c")},
	} {
		s = crdt.ApplyOwned(e, s)
	}
	before := s.AppendBinary(nil)
	s = crdt.ApplyOwned(AddAftEff{A: v("a"), I: model.Stamp{N: 3}, B: v("c")}, s)
	if after := s.AppendBinary(nil); !bytes.Equal(after, before) {
		t.Fatalf("re-applying a triple changed the state:\n%x\n%x", before, after)
	}
	s = crdt.ApplyOwned(AddAftEff{A: v("b"), I: model.Stamp{N: 4, Node: 2}, B: v("a")}, s)
	want := model.List(v("b"), v("a"), v("c"))
	if got := Abs(s); !got.Equal(want) {
		t.Fatalf("after moving a under b: read = %s, want %s", got, want)
	}
	if got := model.List(travReference(s.(State))...); !got.Equal(want) {
		t.Fatalf("reference read = %s, want %s", got, want)
	}
}

// TestTravTieBreak: two siblings with one stamp, which no Prepare issues,
// read in the same order whichever arrived first.
func TestTravTieBreak(t *testing.T) {
	x := AddAftEff{A: spec.Sentinel, I: model.Stamp{N: 1}, B: v("x")}
	y := AddAftEff{A: spec.Sentinel, I: model.Stamp{N: 1}, B: v("y")}
	xy := Abs(y.Apply(x.Apply(New().Init())))
	yx := Abs(x.Apply(y.Apply(New().Init())))
	if !xy.Equal(yx) {
		t.Fatalf("read depends on apply order: %s vs %s", xy, yx)
	}
}

// TestTravConcurrentReaders: reads share a state whose sibling lists are out
// of order, as checkers and explorer forks do, so trav must sort into
// scratch and never write the state. Run under -race.
func TestTravConcurrentReaders(t *testing.T) {
	s := crdt.ApplyOwned(AddAftEff{A: spec.Sentinel, I: model.Stamp{N: 8}, B: v("x8")}, New().Init())
	for i := 7; i >= 1; i-- { // decreasing stamps: both lists out of order
		a := spec.Sentinel
		if i%2 == 0 {
			a = v("x8")
		}
		s = crdt.ApplyOwned(AddAftEff{A: a, I: model.Stamp{N: int64(i)}, B: v(fmt.Sprintf("x%d", i))}, s)
	}
	want := model.List(travReference(s.(State))...)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				if got := Abs(s); !got.Equal(want) {
					t.Errorf("read = %s, want %s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDecodersRejectSentinelElement: an element equal to ◦, which Fig 2's
// assume rules out, is corrupt on the wire and in a snapshot. A state that
// held one could make trav walk from ◦ back to ◦ forever.
func TestDecodersRejectSentinelElement(t *testing.T) {
	a := v("a")
	root := Triple{A: spec.Sentinel, I: model.Stamp{N: 1}, B: a}
	loop := Triple{A: a, I: model.Stamp{N: 2, Node: 1}, B: spec.Sentinel}
	self := Triple{A: spec.Sentinel, I: model.Stamp{N: 1}, B: spec.Sentinel}
	state := func(ts ...Triple) func() error {
		return func() error {
			st := State{N: map[string]Triple{}, T: model.NewValueSet()}
			for _, t := range ts {
				st.N[t.B.String()] = t
				st.TS = st.TS.Max(t.I)
			}
			_, err := DecodeState(st.AppendBinary(nil))
			return err
		}
	}
	effector := func(t Triple) func() error {
		return func() error {
			_, err := DecodeEffector(AddAftEff{A: t.A, I: t.I, B: t.B}.AppendBinary(nil))
			return err
		}
	}
	cases := []struct {
		name   string
		decode func() error
	}{
		{"effector AddAft(a,(2,t1),◦)", effector(loop)},
		{"effector AddAft(◦,(1,t0),◦)", effector(self)},
		{"state with (◦,(1,t0),a) and (a,(2,t1),◦)", state(root, loop)},
		{"state with (◦,(1,t0),◦)", state(self)},
	}
	for _, c := range cases {
		if err := c.decode(); !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("%s: err = %v, want codec.ErrCorrupt", c.name, err)
		}
	}
}

// TestDecodeStateRejectsNonCanonical: AppendBinary writes each triple once,
// in increasing key order, and the tombstones in increasing order. Any other
// encoding is corrupt — it would decode to a state that re-encodes to
// different bytes.
func TestDecodeStateRejectsNonCanonical(t *testing.T) {
	a := Triple{A: spec.Sentinel, I: model.Stamp{N: 1}, B: v("a")}
	b := Triple{A: spec.Sentinel, I: model.Stamp{N: 2}, B: v("b")}
	b2 := Triple{A: v("a"), I: model.Stamp{N: 3}, B: v("b")}
	encode := func(tombs []model.Value, ts ...Triple) []byte {
		enc := codec.AppendUvarint(nil, uint64(len(ts)))
		for _, t := range ts {
			enc = codec.AppendValue(enc, t.A)
			enc = codec.AppendStamp(enc, t.I)
			enc = codec.AppendValue(enc, t.B)
		}
		enc = codec.AppendUvarint(enc, uint64(len(tombs)))
		for _, e := range tombs {
			enc = codec.AppendValue(enc, e)
		}
		return codec.AppendStamp(enc, model.Stamp{N: 3})
	}
	canonical := encode([]model.Value{v("a"), v("b")}, a, b)
	if st, err := DecodeState(canonical); err != nil || !slices.Equal(st.AppendBinary(nil), canonical) {
		t.Fatalf("canonical state: err %v", err)
	}
	cases := []struct {
		name string
		enc  []byte
	}{
		{"triples for b, a", encode(nil, b, a)},
		{"two triples for b", encode(nil, a, b, b2)},
		{"tombstones b, a", encode([]model.Value{v("b"), v("a")}, a, b)},
		{"tombstone a twice", encode([]model.Value{v("a"), v("a")}, a, b)},
	}
	for _, c := range cases {
		if _, err := DecodeState(c.enc); !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("%s: err = %v, want codec.ErrCorrupt", c.name, err)
		}
	}
}

// TestAbsAllocatesOnce: φ adopts the list trav builds rather than copying
// it, so a one-element state costs one allocation.
func TestAbsAllocatesOnce(t *testing.T) {
	o := New()
	s, _, _ := apply(t, o, o.Init(), addAfter(spec.Sentinel, v("a")), 0, 1)
	if n := testing.AllocsPerRun(100, func() { Abs(s) }); n != 1 {
		t.Fatalf("Abs allocates %v times, want 1", n)
	}
}
