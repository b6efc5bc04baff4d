package spec

import "repro/internal/model"

// History is what Sec 9's order predicates read of an execution: the
// operation behind each id and the visibility between operations, with the
// specification that relates them. It is generic over the id type, so the
// trace checkers (MsgIDs of a trace), the abstract machine (MsgIDs of its ξ
// sequences) and the X-wins client logic (action IDs of a world) share one
// statement of the relations.
//
// X holds ◀ and ▷. A nil X is a UCR specification, the X-wins case with
// ◀ = ▷ = ∅ (Sec 2.4): nothing is ever canceled, so PresvCancel and the ◀
// discipline hold trivially and RCoh is the plain coherence Coh.
type History[K comparable] struct {
	// Spec supplies ⊲⊳.
	Spec Spec
	// X supplies ◀ and ▷; nil for a UCR specification.
	X XSpec
	// Op returns the operation an id names.
	Op func(K) model.Op
	// Saw reports that a saw b when a was issued: b happens before a. It is
	// read only when X is set.
	Saw func(a, b K) bool
}

// Cancels reports that y cancels x: x ▷ y and y saw x (Sec 9).
func (h History[K]) Cancels(x, y K) bool {
	return h.X != nil && x != y && h.X.CanceledBy(h.Op(x), h.Op(y)) && h.Saw(y, x)
}

// CanceledIn reports that some operation of seq cancels x.
func (h History[K]) CanceledIn(x K, seq []K) bool {
	if h.X == nil {
		return false
	}
	for _, y := range seq {
		if h.Cancels(x, y) {
			return true
		}
	}
	return false
}

// Misordered reports that placing x before y breaks ◀: the two are
// concurrent and y ◀ x, so the winner x would not prevail.
func (h History[K]) Misordered(x, y K) bool { return h.misordered(x, y, h.Op(x), h.Op(y)) }

// misordered is Misordered given the operations ox of x and oy of y.
func (h History[K]) misordered(x, y K, ox, oy model.Op) bool {
	return h.X != nil && h.X.WonBy(oy, ox) && !h.Saw(x, y) && !h.Saw(y, x)
}

// PresvCancel checks PresvCancel within one sequence: when y cancels x, x
// comes first. If it fails, seq places x after a y that cancels it.
func (h History[K]) PresvCancel(seq []K) (x, y K, ok bool) {
	for i := range seq {
		for j := range i {
			if h.Cancels(seq[i], seq[j]) {
				return seq[i], seq[j], false
			}
		}
	}
	return x, y, true
}

// WonByOrdered checks the ◀ discipline within one sequence: of two
// concurrent conflicting operations that seq does not cancel, the ◀-loser
// comes first.
func (h History[K]) WonByOrdered(seq []K) bool {
	if h.X == nil {
		return true
	}
	for i, x := range seq {
		ox := h.Op(x)
		for _, y := range seq[i+1:] {
			if oy := h.Op(y); h.misordered(x, y, ox, oy) && h.Spec.Conflict(ox, oy) &&
				!h.CanceledIn(x, seq) && !h.CanceledIn(y, seq) {
				return false
			}
		}
	}
	return true
}

// RCoh is the relaxed coherence of Sec 9 between two sequences: conflicting
// operations present in both, and canceled in neither, appear in the same
// order in both and respect ◀. With a nil X it is Coh (Fig 8).
func (h History[K]) RCoh(a, b []K) bool {
	posB := make(map[K]int, len(b))
	for i, k := range b {
		posB[k] = i
	}
	for i, x := range a {
		bi, ok := posB[x]
		if !ok {
			continue
		}
		for _, y := range a[i+1:] {
			// Positions first: most pairs agree, and an agreeing pair can
			// only fail by breaking ◀.
			if bj, ok := posB[y]; !ok || bi < bj && (h.X == nil || !h.Misordered(x, y)) {
				continue
			}
			if h.Spec.Conflict(h.Op(x), h.Op(y)) && !h.CanceledIn(x, a) && !h.CanceledIn(y, a) &&
				!h.CanceledIn(x, b) && !h.CanceledIn(y, b) {
				return false
			}
		}
	}
	return true
}
