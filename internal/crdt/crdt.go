// Package crdt defines the implementation-side interfaces of the framework:
// the object declarations Π of the paper (Sec 3, Fig 6), their replica-local
// states, and the effectors their operations generate.
//
// An operation executes in two phases. In the first phase the origin node
// runs Object.Prepare, which performs the initial local computation, produces
// the client-visible return value, and generates an effector δ capturing the
// update. The effector is applied immediately and atomically at the origin
// and broadcast to all other nodes; in the second phase each node applies δ
// asynchronously over its local replica. Read-only queries generate the
// identity effector, which is never broadcast.
package crdt

import (
	"errors"

	"repro/internal/model"
)

// State is a replica-local object state (the paper's LocalState). A state is
// immutable to everyone but its owner: Effector.Apply never mutates its
// argument and returns a fresh state that shares with it only memory neither
// state writes again (RGA's clones share sibling lists clipped to their
// length, so an append on either side copies), so traces, checkers and
// copy-on-write clones may share states freely. The
// exception is a caller that holds the only reference to a state, which may
// hand it to ApplyOwned (see InPlace). There are two such owners. A replica
// host (transport.Peer) drops the old state after every apply and never
// hands one out. A sim.Cluster owns each node's state until Clone shares it
// or StateOf hands it out; its next apply at that node copies through Apply
// and owns the fresh result.
//
// AppendBinary is the state's identity: it appends the canonical binary
// encoding (package codec) to b and returns the extended slice. The encoding
// is deterministic and injective — two states are equal iff their encodings
// are byte-equal — so equality, hashing, dedup and convergence checks all
// reduce to byte comparison.
type State interface {
	AppendBinary(b []byte) []byte
}

// Effector is the paper's δ ∈ LocalState ⇀ LocalState: the replicated effect
// of one operation. Apply must be pure — Apply(s) returns a new state and
// leaves s untouched — so traces can be replayed and checkers can backtrack.
// An effector whose state is a collection may also implement InPlace, the
// same effect without the copy, for the owner of a state.
type Effector interface {
	// Apply applies the effect to a replica state and returns the new state.
	Apply(s State) State
	// AppendBinary appends the effector's canonical binary encoding: a
	// one-byte tag (0 is reserved for IdEff; each algorithm numbers its own
	// effectors from 1) followed by the effector's fields. This is the wire
	// form shipped by sim.Cluster and decoded by the algorithm's registered
	// EffectorDecoder.
	AppendBinary(b []byte) []byte
	// String renders the effector as in the paper's figures, e.g.
	// AddAft(a,(1,t1),b) or Rmv(a). It is a rendering only: the effector's
	// identity is its encoding.
	String() string
}

// InPlace is the optional in-place form of an Effector. ApplyInPlace(s) has
// the same result as Apply(s) but may mutate s and return it (or a value
// sharing its maps), so s must be owned by the caller: no other state, trace,
// checkpoint or clone may reach it, and only the returned state may be used
// afterwards. A sim.Cluster whose state is shared by Clone or handed out by
// StateOf copies it on its next apply instead. The collection algorithms write each effector body once, here,
// and define Apply as ApplyInPlace on a copy. Callers go through ApplyOwned;
// everything that shares states calls Apply.
type InPlace interface {
	ApplyInPlace(s State) State
}

// ApplyOwned applies d to s, which the caller owns (see InPlace): in place
// when d implements InPlace, through the pure Apply otherwise. The caller
// must replace s with the result and never read s again.
func ApplyOwned(d Effector, s State) State {
	if ip, ok := d.(InPlace); ok {
		return ip.ApplyInPlace(s)
	}
	return d.Apply(s)
}

// EffectorDecoder decodes one effector from the canonical encoding produced
// by Effector.AppendBinary. The registry registers one per algorithm.
// Implementations must consume the whole input and reject malformed bytes
// with an error wrapping codec.ErrCorrupt — never panic, never apply
// garbage.
type EffectorDecoder func(b []byte) (Effector, error)

// StateDecoder decodes one replica state from the canonical encoding
// produced by State.AppendBinary, with the same strictness contract as
// EffectorDecoder. It is what later snapshot/state-transfer work builds on.
type StateDecoder func(b []byte) (State, error)

// IdEff is the identity effector generated by read-only queries (Fig 2,
// line 16). It is never broadcast.
type IdEff struct{}

// Apply returns s unchanged.
func (IdEff) Apply(s State) State { return s }

// AppendBinary appends the reserved identity tag 0.
func (IdEff) AppendBinary(b []byte) []byte { return append(b, 0) }

// String renders the identity effector.
func (IdEff) String() string { return "IdEff" }

// IsIdentity reports whether δ is the identity effector.
func IsIdentity(d Effector) bool {
	_, ok := d.(IdEff)
	return ok
}

// ErrAssume is returned by Prepare when an operation's `assume` precondition
// fails (e.g. addAfter(a,b) with a not in the list, Fig 2 lines 4–5). The
// paper's semantics blocks such requests; our harnesses treat them as
// rejected and pick different arguments.
var ErrAssume = errors.New("crdt: operation precondition (assume) failed")

// ErrUnknownOp is returned by Prepare for an operation name outside dom(Π).
var ErrUnknownOp = errors.New("crdt: unknown operation")

// Object is an operation-based CRDT implementation Π. Implementations must
// be deterministic: Prepare's result may depend only on its arguments.
//
// The MsgID passed to Prepare is the unique request ID mid of the event
// (Sec 3); algorithms that need globally unique tags (e.g. the add-wins set)
// may derive them from it. Algorithms that need timestamps derive them from
// the replica state, as RGA does (Fig 2, line 6).
type Object interface {
	// Name identifies the algorithm, e.g. "rga" or "aw-set".
	Name() string
	// Init returns the initial replica state. Every call returns a fresh
	// state sharing nothing with earlier ones, so a replica host may own
	// and mutate it (InPlace).
	Init() State
	// Ops lists the operation names in dom(Π), in a stable order.
	Ops() []model.OpName
	// Prepare runs the first phase of op(arg) at the origin node over local
	// state s, returning the client-visible result and the effector. It
	// returns ErrAssume if the precondition fails and ErrUnknownOp for
	// operations outside dom(Π).
	Prepare(op model.Op, s State, origin model.NodeID, mid model.MsgID) (model.Value, Effector, error)
}

// Abstraction is the paper's φ ∈ LocalState ⇀ AbsState: the state abstraction
// function relating an implementation's replica states to the abstract object
// states of its specification. Each verified algorithm ships one.
type Abstraction func(s State) model.Value
