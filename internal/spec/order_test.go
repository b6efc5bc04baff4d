package spec

import (
	"testing"

	"repro/internal/model"
)

// TestHistoryPredicates runs Sec 9's order predicates over one add-wins
// history, once with MsgIDs and once with strings as ids:
//
//	a = add(1); r = remove(1), which saw a;
//	b = add(1) and c = remove(1), concurrent with a and r;
//	e = remove(1), which saw b; f = add(1), which saw c; d = add(2).
//
// Every case is also read through the same history with ◀ = ▷ = ∅, the UCR
// reading, where nothing is canceled and RCoh is Coh.
func TestHistoryPredicates(t *testing.T) {
	ids := map[string]model.MsgID{"a": 1, "r": 2, "b": 3, "c": 4, "e": 5, "f": 6, "d": 7}
	t.Run("MsgID", func(t *testing.T) { testHistory(t, func(s string) model.MsgID { return ids[s] }) })
	t.Run("string", func(t *testing.T) { testHistory(t, func(s string) string { return s }) })
}

func testHistory[K comparable](t *testing.T, id func(string) K) {
	t.Helper()
	set := func(name model.OpName, n int64) model.Op { return model.Op{Name: name, Arg: model.Int(n)} }
	ops := map[K]model.Op{
		id("a"): set(OpAdd, 1), id("r"): set(OpRemove, 1), id("b"): set(OpAdd, 1),
		id("c"): set(OpRemove, 1), id("e"): set(OpRemove, 1), id("f"): set(OpAdd, 1),
		id("d"): set(OpAdd, 2),
	}
	saw := map[K]map[K]bool{id("r"): {id("a"): true}, id("e"): {id("b"): true}, id("f"): {id("c"): true}}
	x := History[K]{Spec: AWSetSpec{}, X: AWSetSpec{},
		Op:  func(k K) model.Op { return ops[k] },
		Saw: func(a, b K) bool { return saw[a][b] },
	}
	u := History[K]{Spec: AWSetSpec{}, Op: x.Op}
	seq := func(names ...string) []K {
		out := make([]K, len(names))
		for i, n := range names {
			out[i] = id(n)
		}
		return out
	}
	for _, c := range []struct {
		name   string
		got    func(History[K]) bool
		x, ucr bool
	}{
		{"r cancels a", func(h History[K]) bool { return h.Cancels(id("a"), id("r")) }, true, false},
		{"a does not cancel r: not r ▷ a", func(h History[K]) bool { return h.Cancels(id("r"), id("a")) }, false, false},
		{"c does not cancel b: c did not see b", func(h History[K]) bool { return h.Cancels(id("b"), id("c")) }, false, false},
		{"nothing cancels itself", func(h History[K]) bool { return h.Cancels(id("a"), id("a")) }, false, false},
		{"a canceled in b r", func(h History[K]) bool { return h.CanceledIn(id("a"), seq("b", "r")) }, true, false},
		{"b not canceled in a r c", func(h History[K]) bool { return h.CanceledIn(id("b"), seq("a", "r", "c")) }, false, false},
		{"b before c breaks ◀", func(h History[K]) bool { return h.Misordered(id("b"), id("c")) }, true, false},
		{"c before b keeps ◀", func(h History[K]) bool { return h.Misordered(id("c"), id("b")) }, false, false},
		{"f saw c: not concurrent", func(h History[K]) bool { return h.Misordered(id("f"), id("c")) }, false, false},
		{"e saw b: not concurrent", func(h History[K]) bool { return h.Misordered(id("b"), id("e")) }, false, false},
		{"◀ kept: c b", func(h History[K]) bool { return h.WonByOrdered(seq("c", "b", "d")) }, true, true},
		{"◀ broken: b c", func(h History[K]) bool { return h.WonByOrdered(seq("d", "b", "c")) }, false, true},
		{"◀ broken but b canceled: b c e", func(h History[K]) bool { return h.WonByOrdered(seq("b", "c", "e")) }, true, true},
		{"RCoh: same order", func(h History[K]) bool { return h.RCoh(seq("c", "a", "d"), seq("c", "a")) }, true, true},
		{"RCoh: non-conflicting pair flips", func(h History[K]) bool { return h.RCoh(seq("a", "d"), seq("d", "a")) }, true, true},
		{"RCoh: conflicting pair flips", func(h History[K]) bool { return h.RCoh(seq("a", "c"), seq("c", "a")) }, false, false},
		{"RCoh: canceled pair flips", func(h History[K]) bool { return h.RCoh(seq("a", "r"), seq("r", "a")) }, true, false},
		{"RCoh: canceled in the other order only", func(h History[K]) bool { return h.RCoh(seq("c", "b"), seq("b", "c", "e")) }, true, false},
		{"RCoh: agreeing pair breaks ◀", func(h History[K]) bool { return h.RCoh(seq("b", "c"), seq("b", "c")) }, false, true},
		{"RCoh: operations missing from the other order", func(h History[K]) bool { return h.RCoh(seq("a", "c"), seq("d")) }, true, true},
	} {
		if got := c.got(x); got != c.x {
			t.Errorf("%s: X-wins %v, want %v", c.name, got, c.x)
		}
		if got := c.got(u); got != c.ucr {
			t.Errorf("%s: UCR %v, want %v", c.name, got, c.ucr)
		}
	}
	if _, _, ok := x.PresvCancel(seq("a", "b", "r")); !ok {
		t.Error("PresvCancel rejects a before r")
	}
	if gx, gy, ok := x.PresvCancel(seq("c", "r", "b", "a")); ok || gx != id("a") || gy != id("r") {
		t.Errorf("PresvCancel(c r b a) = %v %v %v, want a r false", gx, gy, ok)
	}
	if _, _, ok := u.PresvCancel(seq("r", "a")); !ok {
		t.Error("PresvCancel fails with ▷ = ∅")
	}
}
