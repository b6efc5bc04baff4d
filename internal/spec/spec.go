// Package spec defines the abstraction side of the framework: the atomic
// object specifications Γ of the paper (Sec 4, Fig 7), the conflict relation
// ⊲⊳ over non-commutative abstract operations, and — for X-wins CRDTs — the
// won-by (◀) and canceled-by (▷) relations of Sec 9.
//
// Abstract object states are plain model.Values (sequences as lists, sets as
// sorted lists, counters as integers, registers as the stored value), so
// state equality, hashing and printing come for free. Each Γ is a total
// function: abstract operations never get stuck, they simply ignore
// inapplicable requests.
//
// The package also provides the canonical specifications the paper verifies
// implementations against: the counter, the register, the set, the grow-only
// set, and the list (sequence). Several implementation algorithms share one
// specification — e.g. both the LWW-element set and the 2P-set refine the
// set specification, and both RGA and the continuous sequence refine the
// list specification — which is one of the paper's headline points.
package spec

import (
	"fmt"

	"repro/internal/model"
)

// Spec is an abstract atomic object specification together with its conflict
// relation: the pair (Γ, ⊲⊳) of the paper.
//
// Apply must be total and deterministic: for every operation and every
// abstract state, it returns the result value and the successor state.
// Conflict must be symmetric and must relate (at least) all pairs of
// non-commutative actions, as required by nonComm(Γ, ⊲⊳) (Def 1); package
// function CheckNonComm verifies this on sampled universes.
type Spec interface {
	// Name identifies the abstract data type, e.g. "set" or "list".
	Name() string
	// Apply executes the abstract atomic operation op on state s.
	Apply(op model.Op, s model.Value) (ret model.Value, out model.Value)
	// Conflict is the ⊲⊳ relation over abstract operations.
	Conflict(a, b model.Op) bool
	// IsQuery reports whether the operation named n is a read-only query:
	// its action is the identity on every state, so its implementation
	// generates the identity effector, which is never broadcast (Sec 2.1),
	// and the call rule asks no guarantee for it (Sec 7).
	IsQuery(n model.OpName) bool
}

// XSpec extends a specification with the operation-dependent conflict
// resolution strategy of X-wins CRDTs (Sec 9): the won-by relation ◀ and the
// canceled-by relation ▷. Both must be subsets of ⊲⊳.
type XSpec interface {
	Spec
	// WonBy reports loser ◀ winner: when the two operations are concurrent,
	// every arbitration order must place loser before winner (so the winner's
	// effect prevails).
	WonBy(loser, winner model.Op) bool
	// CanceledBy reports f ▷ f': f may win over others (per ◀) and f' nullifies
	// f's effect, in the sense of Sec 2.4.
	CanceledBy(f, fprime model.Op) bool
}

// Exec runs a sequence of abstract operations from state s and returns the
// final state along with the return value of the last operation (Nil for an
// empty sequence). This is the paper's aexec(Γ, S_a, E) (Fig 8).
func Exec(sp Spec, s model.Value, ops []model.Op) (final model.Value, lastRet model.Value) {
	lastRet = model.Nil()
	for _, op := range ops {
		lastRet, s = sp.Apply(op, s)
	}
	return s, lastRet
}

// Commute reports whether the actions of two operations commute on state s:
// α1 # α2 = α2 # α1 at s (Def 1).
func Commute(sp Spec, a, b model.Op, s model.Value) bool {
	_, sa := sp.Apply(a, s)
	_, sab := sp.Apply(b, sa)
	_, sb := sp.Apply(b, s)
	_, sba := sp.Apply(a, sb)
	return sab.Equal(sba)
}

// CheckNonComm verifies nonComm(Γ, ⊲⊳) (Def 1) over the given operation and
// state samples: every pair of operations NOT related by ⊲⊳ must commute on
// every sampled state. It returns a descriptive error for the first violation.
func CheckNonComm(sp Spec, ops []model.Op, states []model.Value) error {
	for i, a := range ops {
		for _, b := range ops[i:] {
			if sp.Conflict(a, b) {
				continue
			}
			for _, s := range states {
				if !Commute(sp, a, b, s) {
					return fmt.Errorf("spec %s: nonComm violated: %s and %s are unrelated by ⊲⊳ but do not commute on %s",
						sp.Name(), a, b, s)
				}
			}
		}
	}
	return nil
}

// CheckSymmetric verifies that ⊲⊳ is symmetric on the sampled operations.
func CheckSymmetric(sp Spec, ops []model.Op) error {
	for _, a := range ops {
		for _, b := range ops {
			if sp.Conflict(a, b) != sp.Conflict(b, a) {
				return fmt.Errorf("spec %s: ⊲⊳ not symmetric on %s, %s", sp.Name(), a, b)
			}
		}
	}
	return nil
}

// CheckXWellFormed verifies the well-formedness conditions of Sec 9 on the
// sampled operations and states: ◀ ⊆ ⊲⊳, ▷ ⊆ ⊲⊳, and validity of ▷ — if
// f ▷ f' then for sampled interleavings f, g…, f' has the same effect as
// g…, f' (the cancellation property of Sec 2.4, checked for up to one
// intermediate operation).
func CheckXWellFormed(sp XSpec, ops []model.Op, states []model.Value) error {
	for _, f := range ops {
		for _, g := range ops {
			if sp.WonBy(f, g) && !sp.Conflict(f, g) {
				return fmt.Errorf("spec %s: ◀ not a subset of ⊲⊳ on %s, %s", sp.Name(), f, g)
			}
			if sp.CanceledBy(f, g) && !sp.Conflict(f, g) {
				return fmt.Errorf("spec %s: ▷ not a subset of ⊲⊳ on %s, %s", sp.Name(), f, g)
			}
		}
	}
	// Validity of ▷ (Sec 2.4): f ▷ f' requires (1) f may win others per ◀,
	// and (2) f, f1…fn, f' has the same effect as f1…fn, f' (n ∈ {0, 1}
	// sampled here).
	for _, f := range ops {
		for _, fp := range ops {
			if !sp.CanceledBy(f, fp) {
				continue
			}
			wins := false
			for _, g := range ops {
				if sp.WonBy(g, f) {
					wins = true
					break
				}
			}
			if !wins {
				return fmt.Errorf("spec %s: ▷ invalid: %s ▷ %s but %s wins over nothing per ◀",
					sp.Name(), f, fp, f)
			}
			for _, s := range states {
				for _, mid := range append([]*model.Op{nil}, opPtrs(ops)...) {
					seq := []model.Op{f}
					ref := []model.Op{}
					if mid != nil {
						seq = append(seq, *mid)
						ref = append(ref, *mid)
					}
					seq = append(seq, fp)
					ref = append(ref, fp)
					sEnd, _ := Exec(sp, s, seq)
					rEnd, _ := Exec(sp, s, ref)
					if !sEnd.Equal(rEnd) {
						return fmt.Errorf("spec %s: ▷ invalid: %s ▷ %s fails on state %s with interposed %v",
							sp.Name(), f, fp, s, mid)
					}
				}
			}
		}
	}
	return nil
}

func opPtrs(ops []model.Op) []*model.Op {
	out := make([]*model.Op, len(ops))
	for i := range ops {
		out[i] = &ops[i]
	}
	return out
}
