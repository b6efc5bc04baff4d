package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/crdt"
	"repro/internal/model"
	"repro/internal/trace"
)

// CheckConvergence decides CvT_φ(E, S) (Def 4), the trace-level strong
// eventual consistency property: whenever two nodes (at possibly different
// prefixes of the trace) have seen the same set of operations, their replica
// states map to the same abstract state under φ.
//
// Lemma 5 states that ACC implies this property; the randomized harnesses
// check both independently.
func CheckConvergence(tr trace.Trace, obj crdt.Object, abs crdt.Abstraction) error {
	return CheckConvergenceFrom(tr, obj.Init(), abs)
}

// CheckConvergenceFrom is CheckConvergence with an explicit initial state,
// which every node starts from and none writes: each node's replay owns only
// the states it built (see replay).
func CheckConvergenceFrom(tr trace.Trace, init crdt.State, abs crdt.Abstraction) error {
	type seenAt struct {
		node   model.NodeID
		prefix int
		abs    model.Value
	}
	byVisKey := map[string]seenAt{}
	states := map[model.NodeID]*replay{}
	visible := map[model.NodeID][]model.MsgID{}
	stateOf := func(t model.NodeID) *replay {
		r, ok := states[t]
		if !ok {
			r = &replay{s: init}
			states[t] = r
		}
		return r
	}
	record := func(t model.NodeID, prefix int) error {
		key := visKey(visible[t])
		a := abs(stateOf(t).s)
		if prev, ok := byVisKey[key]; ok {
			if !prev.abs.Equal(a) {
				return fmt.Errorf(
					"core: convergence violated: %s at prefix %d and %s at prefix %d both saw {%s} but abstract states differ: %s vs %s",
					prev.node, prev.prefix, t, prefix, key, prev.abs, a)
			}
			return nil
		}
		byVisKey[key] = seenAt{node: t, prefix: prefix, abs: a}
		return nil
	}
	for _, t := range tr.Nodes() {
		if err := record(t, 0); err != nil {
			return err
		}
	}
	for i, e := range tr {
		stateOf(e.Node).apply(e.Eff)
		if !e.IsQuery() {
			visible[e.Node] = append(visible[e.Node], e.MID)
		}
		if err := record(e.Node, i+1); err != nil {
			return err
		}
	}
	return nil
}

// visKey canonically renders a visible set of MsgIDs. Read-only queries are
// excluded by the caller: their identity effectors never change state or
// travel to other nodes, so comparing the effectful operations only yields a
// strictly stronger (and still sound) convergence check than comparing raw
// visible sets.
func visKey(mids []model.MsgID) string {
	sorted := make([]int, len(mids))
	for i, m := range mids {
		sorted[i] = int(m)
	}
	sort.Ints(sorted)
	var b strings.Builder
	for i, m := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", m)
	}
	return b.String()
}
