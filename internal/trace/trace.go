// Package trace implements the event traces of Sec 3: origin events, effector
// delivery events, per-node projections, the visibility relation, the global
// happens-before order, the causal-delivery predicate, and concrete replay of
// a node's local trace.
//
// An execution trace E is a sequence of events. The origin event
// (mid, t, (f, n, n', δ)) records the invocation of operation f with argument
// n at node t, producing return value n' and effector δ (applied at t
// immediately and atomically). The delivery event (mid, t', (f, n), δ)
// records the asynchronous application of δ at another node t'. Effectors are
// delivered at most once per node, may never arrive, and channels are not
// FIFO unless a harness opts into causal delivery.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/crdt"
	"repro/internal/model"
)

// Record is what an operation's origin produced: (f, n, n′, δ). An origin
// event and its deliveries share one record, since a delivery adds only the
// node it reached. A delivery's Ret is Nil, so an origin whose Ret is not
// gives its deliveries a second record without it.
type Record struct {
	Op  model.Op      // operation name and argument
	Ret model.Value   // return value; Nil on deliveries
	Eff crdt.Effector // the effector (IdEff for read-only queries)
}

// Event is one step of an execution trace. Its record is read-only: traces,
// their copies and their clones share records, so a write through a
// promoted field (e.Ret = v) would change every trace that holds the event.
// Replace the record instead (e.Record = &Record{...}). The zero Event has
// no record.
type Event struct {
	*Record
	MID      model.MsgID  // unique request ID of the operation
	Node     model.NodeID // node on which this event occurs
	Origin   model.NodeID // origin node of the operation (== Node for origin events)
	IsOrigin bool         // origin event vs delivery event
}

// String renders the event in the paper's notation.
func (e Event) String() string {
	if e.IsOrigin {
		if e.Ret.IsNil() {
			return fmt.Sprintf("(%s, %s, %s)", e.Node, e.MID, e.Op)
		}
		return fmt.Sprintf("(%s, %s, %s, %s)", e.Node, e.MID, e.Op, e.Ret)
	}
	return fmt.Sprintf("(%s, %s, deliver %s ← %s)", e.Node, e.MID, e.Eff, e.Origin)
}

// IsQuery reports whether the event's effector is the identity (a read-only
// query).
func (e Event) IsQuery() bool { return crdt.IsIdentity(e.Eff) }

// Trace is an execution trace E.
type Trace []Event

// String renders the trace, one event per line.
func (tr Trace) String() string {
	var b strings.Builder
	for i, e := range tr {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(e.String())
	}
	return b.String()
}

// Restrict returns E|t: the subsequence of events occurring on node t.
func (tr Trace) Restrict(t model.NodeID) Trace {
	var out Trace
	for _, e := range tr {
		if e.Node == t {
			out = append(out, e)
		}
	}
	return out
}

// Origins returns the origin events of the trace, in trace order.
func (tr Trace) Origins() []Event {
	var out []Event
	for _, e := range tr {
		if e.IsOrigin {
			out = append(out, e)
		}
	}
	return out
}

// OriginOf returns the origin event with the given mid, if present, and
// otherwise the zero Event, which has no record.
func (tr Trace) OriginOf(mid model.MsgID) (Event, bool) {
	for _, e := range tr {
		if e.IsOrigin && e.MID == mid {
			return e, true
		}
	}
	return Event{}, false
}

// Nodes returns the set of node IDs appearing in the trace, sorted.
func (tr Trace) Nodes() []model.NodeID {
	seen := map[model.NodeID]bool{}
	var out []model.NodeID
	for _, e := range tr {
		if !seen[e.Node] {
			seen[e.Node] = true
			out = append(out, e.Node)
		}
	}
	for i := 1; i < len(out); i++ { // insertion sort; node counts are tiny
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// VisibleSet returns visible(E, t): the set (by MsgID) of origin events whose
// effectors have reached node t — the node's own origin events (their
// effectors apply immediately at the origin) plus every operation delivered
// to t.
func (tr Trace) VisibleSet(t model.NodeID) map[model.MsgID]bool {
	vis := make(map[model.MsgID]bool)
	for _, e := range tr {
		if e.Node == t {
			vis[e.MID] = true
		}
	}
	return vis
}

// VisibleEvents returns the origin events in visible(E, t), in trace order of
// their origin events.
func (tr Trace) VisibleEvents(t model.NodeID) []Event {
	vis := tr.VisibleSet(t)
	var out []Event
	for _, e := range tr {
		if e.IsOrigin && vis[e.MID] {
			out = append(out, e)
		}
	}
	return out
}

// VisPairs returns the visibility order on node t: the set of pairs
// (e, e') with e ↦vis_t e', meaning e' is an origin event at t and the
// effector of e reached t strictly before e' was issued. Pairs are keyed by
// MsgID.
func (tr Trace) VisPairs(t model.NodeID) map[[2]model.MsgID]bool {
	pairs := make(map[[2]model.MsgID]bool)
	seen := make(map[model.MsgID]bool) // effectors that have reached t so far
	for _, e := range tr {
		if e.Node != t {
			continue
		}
		if e.IsOrigin {
			for mid := range seen {
				if mid != e.MID {
					pairs[[2]model.MsgID{mid, e.MID}] = true
				}
			}
		}
		seen[e.MID] = true
	}
	return pairs
}

// HappensBefore returns the global happens-before relation over origin
// events: e1 → e2 iff e1 is visible to e2 at e2's origin node. The result
// maps each MsgID to the set of MsgIDs that happen before it. The relation is
// transitively closed.
func (tr Trace) HappensBefore() map[model.MsgID]map[model.MsgID]bool {
	hb := make(map[model.MsgID]map[model.MsgID]bool)
	seenAt := make(map[model.NodeID]map[model.MsgID]bool)
	for _, e := range tr {
		if seenAt[e.Node] == nil {
			seenAt[e.Node] = make(map[model.MsgID]bool)
		}
		if e.IsOrigin {
			before := make(map[model.MsgID]bool)
			for mid := range seenAt[e.Node] {
				if mid == e.MID {
					continue
				}
				before[mid] = true
				for m2 := range hb[mid] { // transitive closure
					before[m2] = true
				}
			}
			hb[e.MID] = before
		}
		seenAt[e.Node][e.MID] = true
	}
	return hb
}

// Concurrent reports whether two origin events (by MsgID) are concurrent in
// the trace: neither happens before the other.
func Concurrent(hb map[model.MsgID]map[model.MsgID]bool, a, b model.MsgID) bool {
	return !hb[a][b] && !hb[b][a] && a != b
}

// CausalDelivery reports whether the trace satisfies causal delivery (Sec 9):
// if origin event e1 happens before origin event e2, then on every node where
// e2's effector has been applied, e1's effector was applied earlier. Read-only
// queries are exempt — their identity effectors never travel, so they impose
// no delivery obligations (and are themselves only ever "applied" at their
// origin).
func (tr Trace) CausalDelivery() bool { return tr.CausalDeliveryOver(tr.HappensBefore()) }

// CausalDeliveryOver is CausalDelivery given the trace's happens-before
// relation hb, as HappensBefore returns it, for callers that need hb too.
func (tr Trace) CausalDeliveryOver(hb map[model.MsgID]map[model.MsgID]bool) bool {
	isQuery := map[model.MsgID]bool{}
	for _, e := range tr.Origins() {
		isQuery[e.MID] = e.IsQuery()
	}
	pos := map[model.NodeID]map[model.MsgID]int{} // arrival index per node
	for i, e := range tr {
		if pos[e.Node] == nil {
			pos[e.Node] = make(map[model.MsgID]int)
		}
		if _, ok := pos[e.Node][e.MID]; !ok {
			pos[e.Node][e.MID] = i
		}
	}
	for _, e := range tr {
		if isQuery[e.MID] {
			continue
		}
		for before := range hb[e.MID] {
			if isQuery[before] {
				continue
			}
			for _, arr := range pos {
				p2, ok2 := arr[e.MID]
				if !ok2 {
					continue
				}
				p1, ok1 := arr[before]
				if !ok1 || p1 > p2 {
					return false
				}
			}
		}
	}
	return true
}

// ReplayLocal executes E|t concretely: it folds the effectors of node t's
// events over the initial state and returns the final replica state. This is
// the paper's exec_st(S, E|t).
func ReplayLocal(s0 crdt.State, local Trace) crdt.State {
	s := s0
	for _, e := range local {
		s = e.Eff.Apply(s)
	}
	return s
}

// WellFormedError describes a violation of the trace well-formedness rules.
type WellFormedError struct {
	Index int
	Event Event
	Msg   string
}

func (e *WellFormedError) Error() string {
	return fmt.Sprintf("trace: event %d %s: %s", e.Index, e.Event, e.Msg)
}

// CheckWellFormed validates the structural rules of Sec 3: each MsgID has
// exactly one origin event; deliveries only follow their origin; a node never
// receives the same effector twice; a node never receives a delivery of its
// own operation (the origin application is part of the origin event); and
// identity effectors are never delivered.
func (tr Trace) CheckWellFormed() error {
	origins := make(map[model.MsgID]int)
	delivered := make(map[model.MsgID]map[model.NodeID]bool)
	for i, e := range tr {
		if e.IsOrigin {
			if _, dup := origins[e.MID]; dup {
				return &WellFormedError{i, e, "duplicate origin event for mid"}
			}
			if e.Origin != e.Node {
				return &WellFormedError{i, e, "origin event with Origin != Node"}
			}
			origins[e.MID] = i
			continue
		}
		oi, ok := origins[e.MID]
		if !ok {
			return &WellFormedError{i, e, "delivery before origin"}
		}
		oe := tr[oi]
		if oe.Node == e.Node {
			return &WellFormedError{i, e, "delivery to the origin node"}
		}
		if e.Origin != oe.Node {
			return &WellFormedError{i, e, "delivery records wrong origin node"}
		}
		if e.IsQuery() {
			return &WellFormedError{i, e, "identity effector delivered"}
		}
		if delivered[e.MID] == nil {
			delivered[e.MID] = make(map[model.NodeID]bool)
		}
		if delivered[e.MID][e.Node] {
			return &WellFormedError{i, e, "effector delivered twice to the same node"}
		}
		delivered[e.MID][e.Node] = true
	}
	return nil
}
