// Package registry enumerates every CRDT algorithm the framework implements
// and verifies, bundling each with its specification, abstraction function,
// proof-method parameters (↣ and V, for UCR algorithms) and a random
// operation generator for workload harnesses. This is the executable version
// of the paper's algorithm inventory: the seven UCR algorithms of Sec 8 plus
// the two X-wins sets of Sec 9.
package registry

import (
	"math/rand"

	"repro/internal/crdt"
	"repro/internal/crdts/awset"
	"repro/internal/crdts/counter"
	"repro/internal/crdts/cseq"
	"repro/internal/crdts/gset"
	"repro/internal/crdts/lwwreg"
	"repro/internal/crdts/lwwset"
	"repro/internal/crdts/maxreg"
	"repro/internal/crdts/rga"
	"repro/internal/crdts/rwset"
	"repro/internal/crdts/twopset"
	"repro/internal/model"
	"repro/internal/spec"
)

// OpGen generates a random operation plausibly applicable at replica state s.
// pool is a bag of candidate element values and fresh yields globally unique
// new elements (for data types whose adds require uniqueness). The generated
// operation may still be rejected by Prepare with ErrAssume; harnesses
// resample in that case. s is lent, not given: a harness may pass its own
// replica state and mutate it in place afterwards, so a generator reads s
// during the call only and keeps nothing that aliases it.
type OpGen func(rng *rand.Rand, s crdt.State, abs crdt.Abstraction, pool []model.Value, fresh func() model.Value) model.Op

// Algorithm bundles one implementation with everything the harnesses and the
// proof method need.
type Algorithm struct {
	// Name is the algorithm's identifier, e.g. "rga".
	Name string
	// New constructs the implementation object Π.
	New func() crdt.Object
	// Abs is the state abstraction function φ.
	Abs crdt.Abstraction
	// Spec is the abstract specification (Γ, ⊲⊳) the algorithm refines.
	Spec spec.Spec
	// XSpec is the extended specification for X-wins algorithms; nil for UCR
	// algorithms (whose ◀ and ▷ are empty, Sec 2.4).
	XSpec spec.XSpec
	// TSOrder is the proof method's timestamp order ↣ (UCR algorithms only).
	TSOrder func(d1, d2 crdt.Effector) bool
	// View is the proof method's view function V (UCR algorithms only).
	View func(s crdt.State) []crdt.Effector
	// NeedsCausal reports whether the algorithm assumes causal delivery
	// (true exactly for the X-wins sets, Sec 2.4).
	NeedsCausal bool
	// GenOp generates random workload operations.
	GenOp OpGen
	// DecodeState decodes a replica state from its canonical encoding
	// (State.AppendBinary). Snapshot/state-transfer work builds on it.
	DecodeState crdt.StateDecoder
	// DecodeEffector decodes an effector from its canonical wire encoding
	// (Effector.AppendBinary); sim.Cluster uses it to decode shipped
	// payloads.
	DecodeEffector crdt.EffectorDecoder
	// Universe samples operations and abstract states for Def 1 and the
	// Sec 9 well-formedness checks.
	Universe func() spec.Universe
}

// IsX reports whether the algorithm uses an operation-dependent ("X-wins")
// conflict resolution strategy.
func (a Algorithm) IsX() bool { return a.XSpec != nil }

// All returns every implemented algorithm, UCR algorithms first, in the
// order the paper lists them.
func All() []Algorithm {
	return []Algorithm{
		Counter(), GSet(), LWWRegister(), LWWSet(), TwoPSet(), CSeq(), RGA(),
		AWSet(), RWSet(),
	}
}

// UCR returns the seven uniform-conflict-resolution algorithms of Sec 8.
func UCR() []Algorithm {
	all := All()
	var out []Algorithm
	for _, a := range all {
		if !a.IsX() {
			out = append(out, a)
		}
	}
	return out
}

// XWins returns the two X-wins algorithms of Sec 9.
func XWins() []Algorithm {
	all := All()
	var out []Algorithm
	for _, a := range all {
		if a.IsX() {
			out = append(out, a)
		}
	}
	return out
}

// Extensions returns algorithms implemented beyond the paper's nine — they
// plug into every harness but are kept apart so the paper's inventory stays
// recognisable.
func Extensions() []Algorithm {
	return []Algorithm{MaxRegister()}
}

// ByName returns the named algorithm, searching the paper's nine and the
// extensions.
func ByName(name string) (Algorithm, bool) {
	for _, a := range append(All(), Extensions()...) {
		if a.Name == name {
			return a, true
		}
	}
	return Algorithm{}, false
}

// MaxRegister returns the max-register extension bundle (not in the paper).
func MaxRegister() Algorithm {
	return Algorithm{
		Name:           "max-register",
		New:            func() crdt.Object { return maxreg.New() },
		DecodeState:    maxreg.DecodeState,
		DecodeEffector: maxreg.DecodeEffector,
		Abs:            maxreg.Abs,
		Spec:           maxreg.Spec{},
		TSOrder:        maxreg.TSOrder,
		View:           maxreg.View,
		GenOp: func(rng *rand.Rand, _ crdt.State, _ crdt.Abstraction, _ []model.Value, _ func() model.Value) model.Op {
			if rng.Intn(3) == 0 {
				return model.Op{Name: spec.OpRead}
			}
			return model.Op{Name: spec.OpWrite, Arg: model.Int(int64(rng.Intn(20)))}
		},
		Universe: func() spec.Universe {
			var u spec.Universe
			for _, n := range []int64{0, 1, 5, 9} {
				u.Ops = append(u.Ops, model.Op{Name: spec.OpWrite, Arg: model.Int(n)})
				u.States = append(u.States, model.Int(n))
			}
			u.Ops = append(u.Ops, model.Op{Name: spec.OpRead})
			return u
		},
	}
}

// Counter returns the replicated counter bundle.
func Counter() Algorithm {
	return Algorithm{
		Name:           "counter",
		New:            func() crdt.Object { return counter.New() },
		DecodeState:    counter.DecodeState,
		DecodeEffector: counter.DecodeEffector,
		Abs:            counter.Abs,
		Spec:           counter.Spec(),
		TSOrder:        counter.TSOrder,
		View:           counter.View,
		GenOp:          counterGen,
		Universe:       func() spec.Universe { return spec.CounterUniverse() },
	}
}

// GSet returns the grow-only set bundle.
func GSet() Algorithm {
	return Algorithm{
		Name:           "g-set",
		New:            func() crdt.Object { return gset.New() },
		DecodeState:    gset.DecodeState,
		DecodeEffector: gset.DecodeEffector,
		Abs:            gset.Abs,
		Spec:           gset.Spec(),
		TSOrder:        gset.TSOrder,
		View:           gset.View,
		GenOp:          setGen(false),
		Universe:       func() spec.Universe { return spec.SetUniverse(false) },
	}
}

// LWWRegister returns the last-writer-wins register bundle.
func LWWRegister() Algorithm {
	return Algorithm{
		Name:           "lww-register",
		New:            func() crdt.Object { return lwwreg.New() },
		DecodeState:    lwwreg.DecodeState,
		DecodeEffector: lwwreg.DecodeEffector,
		Abs:            lwwreg.Abs,
		Spec:           lwwreg.Spec(),
		TSOrder:        lwwreg.TSOrder,
		View:           lwwreg.View,
		GenOp:          registerGen,
		Universe:       func() spec.Universe { return spec.RegisterUniverse() },
	}
}

// LWWSet returns the LWW-element set bundle.
func LWWSet() Algorithm {
	return Algorithm{
		Name:           "lww-set",
		New:            func() crdt.Object { return lwwset.New() },
		DecodeState:    lwwset.DecodeState,
		DecodeEffector: lwwset.DecodeEffector,
		Abs:            lwwset.Abs,
		Spec:           lwwset.Spec(),
		TSOrder:        lwwset.TSOrder,
		View:           lwwset.View,
		GenOp:          setGen(true),
		Universe:       func() spec.Universe { return spec.SetUniverse(true) },
	}
}

// TwoPSet returns the 2P-set bundle.
func TwoPSet() Algorithm {
	return Algorithm{
		Name:           "2p-set",
		New:            func() crdt.Object { return twopset.New() },
		DecodeState:    twopset.DecodeState,
		DecodeEffector: twopset.DecodeEffector,
		Abs:            twopset.Abs,
		Spec:           twopset.Spec(),
		TSOrder:        twopset.TSOrder,
		View:           twopset.View,
		GenOp:          twoPGen,
		Universe:       func() spec.Universe { return spec.SetUniverse(true) },
	}
}

// CSeq returns the continuous sequence bundle.
func CSeq() Algorithm {
	return Algorithm{
		Name:           "cseq",
		New:            func() crdt.Object { return cseq.New() },
		DecodeState:    cseq.DecodeState,
		DecodeEffector: cseq.DecodeEffector,
		Abs:            cseq.Abs,
		Spec:           cseq.Spec(),
		TSOrder:        cseq.TSOrder,
		View:           cseq.View,
		GenOp:          listGen,
		Universe:       func() spec.Universe { return spec.ListUniverse() },
	}
}

// RGA returns the replicated growable array bundle.
func RGA() Algorithm {
	return Algorithm{
		Name:           "rga",
		New:            func() crdt.Object { return rga.New() },
		DecodeState:    rga.DecodeState,
		DecodeEffector: rga.DecodeEffector,
		Abs:            rga.Abs,
		Spec:           rga.Spec(),
		TSOrder:        rga.TSOrder,
		View:           rga.View,
		GenOp:          listGen,
		Universe:       func() spec.Universe { return spec.ListUniverse() },
	}
}

// AWSet returns the add-wins set bundle.
func AWSet() Algorithm {
	return Algorithm{
		Name:           "aw-set",
		New:            func() crdt.Object { return awset.New() },
		DecodeState:    awset.DecodeState,
		DecodeEffector: awset.DecodeEffector,
		Abs:            awset.Abs,
		Spec:           awset.Spec(),
		XSpec:          awset.Spec(),
		NeedsCausal:    true,
		GenOp:          setGen(true),
		Universe:       func() spec.Universe { return spec.SetUniverse(true) },
	}
}

// RWSet returns the remove-wins set bundle.
func RWSet() Algorithm {
	return Algorithm{
		Name:           "rw-set",
		New:            func() crdt.Object { return rwset.New() },
		DecodeState:    rwset.DecodeState,
		DecodeEffector: rwset.DecodeEffector,
		Abs:            rwset.Abs,
		Spec:           rwset.Spec(),
		XSpec:          rwset.Spec(),
		NeedsCausal:    true,
		GenOp:          setGen(true),
		Universe:       func() spec.Universe { return spec.SetUniverse(true) },
	}
}

// ---------------------------------------------------------------------------
// Operation generators
// ---------------------------------------------------------------------------

func counterGen(rng *rand.Rand, _ crdt.State, _ crdt.Abstraction, _ []model.Value, _ func() model.Value) model.Op {
	switch rng.Intn(5) {
	case 0:
		return model.Op{Name: spec.OpRead}
	case 1, 2:
		return model.Op{Name: spec.OpInc, Arg: model.Int(int64(1 + rng.Intn(3)))}
	default:
		return model.Op{Name: spec.OpDec, Arg: model.Int(int64(1 + rng.Intn(3)))}
	}
}

func registerGen(rng *rand.Rand, _ crdt.State, _ crdt.Abstraction, pool []model.Value, _ func() model.Value) model.Op {
	if rng.Intn(3) == 0 {
		return model.Op{Name: spec.OpRead}
	}
	return model.Op{Name: spec.OpWrite, Arg: pick(rng, pool)}
}

// setGen generates add/lookup/read (and remove when withRemove) over the
// element pool.
func setGen(withRemove bool) OpGen {
	return func(rng *rand.Rand, _ crdt.State, _ crdt.Abstraction, pool []model.Value, _ func() model.Value) model.Op {
		n := 4
		if !withRemove {
			n = 3
		}
		switch rng.Intn(n) {
		case 0:
			return model.Op{Name: spec.OpRead}
		case 1:
			return model.Op{Name: spec.OpLookup, Arg: pick(rng, pool)}
		case 2:
			return model.Op{Name: spec.OpAdd, Arg: pick(rng, pool)}
		default:
			return model.Op{Name: spec.OpRemove, Arg: pick(rng, pool)}
		}
	}
}

// twoPGen respects the 2P-set's add-once/remove-once discipline: adds use
// fresh elements, removes pick a currently present element.
func twoPGen(rng *rand.Rand, s crdt.State, abs crdt.Abstraction, _ []model.Value, fresh func() model.Value) model.Op {
	present, _ := abs(s).AsList()
	switch {
	case rng.Intn(4) == 0:
		return model.Op{Name: spec.OpRead}
	case rng.Intn(3) == 0 && len(present) > 0:
		if rng.Intn(2) == 0 {
			return model.Op{Name: spec.OpLookup, Arg: pick(rng, present)}
		}
		return model.Op{Name: spec.OpRemove, Arg: pick(rng, present)}
	default:
		return model.Op{Name: spec.OpAdd, Arg: fresh()}
	}
}

// listGen generates list workloads: addAfter anchored at a live element or
// the sentinel with a fresh element, removes of live elements, and reads.
// A read needs no live elements, so φ runs only after the read is ruled
// out; the draws are the same either way.
func listGen(rng *rand.Rand, s crdt.State, abs crdt.Abstraction, _ []model.Value, fresh func() model.Value) model.Op {
	if rng.Intn(4) == 0 {
		return model.Op{Name: spec.OpRead}
	}
	live, _ := abs(s).AsList()
	switch {
	case rng.Intn(3) == 0 && len(live) > 0:
		return model.Op{Name: spec.OpRemove, Arg: pick(rng, live)}
	default:
		anchor := spec.Sentinel
		if len(live) > 0 && rng.Intn(3) != 0 {
			anchor = pick(rng, live)
		}
		return model.Op{Name: spec.OpAddAfter, Arg: model.Pair(anchor, fresh())}
	}
}

func pick(rng *rand.Rand, pool []model.Value) model.Value {
	if len(pool) == 0 {
		return model.Str("a")
	}
	return pool[rng.Intn(len(pool))]
}
