package model

import "fmt"

// Stamp is the totally ordered timestamp used by UCR-CRDT algorithms such as
// RGA and the LWW register: a pair (n, t) of a natural number and a node ID
// (Sec 2.1). Two stamps compare first by counter, then by node ID, so any two
// distinct stamps are ordered.
type Stamp struct {
	N    int64  // logical counter
	Node NodeID // origin node, breaks ties
}

// Less reports whether s is strictly smaller than u: (n1, t1) < (n2, t2) iff
// n1 < n2, or n1 = n2 and t1 < t2.
func (s Stamp) Less(u Stamp) bool {
	if s.N != u.N {
		return s.N < u.N
	}
	return s.Node < u.Node
}

// Compare returns -1, 0 or +1 in the stamp order.
func (s Stamp) Compare(u Stamp) int {
	switch {
	case s.Less(u):
		return -1
	case u.Less(s):
		return 1
	default:
		return 0
	}
}

// Next returns the stamp an origin node generates after having seen s:
// (s.N+1, node). This is exactly `i := (ts.fst+1, cid)` in Fig 2.
func (s Stamp) Next(node NodeID) Stamp { return Stamp{N: s.N + 1, Node: node} }

// Max returns the larger of s and u.
func (s Stamp) Max(u Stamp) Stamp {
	if s.Less(u) {
		return u
	}
	return s
}

// String renders the stamp as (n,tK).
func (s Stamp) String() string { return fmt.Sprintf("(%d,%s)", s.N, s.Node) }
