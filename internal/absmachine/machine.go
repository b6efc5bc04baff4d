// Package absmachine implements the abstract operational semantics of Sec 6
// for programs "with (Γ, ⊲⊳) do C1 ∥ … ∥ Cn", and its Sec 9 variant for the
// extended specifications (Γ, ⊲⊳, ◀, ▷).
//
// Each node keeps the initial abstract object state S0 and a sequence ξt of
// the abstract operations it has received — the runtime representation of
// the arbitration order art. Issuing an operation appends it to the local ξ
// (preserving visibility) and broadcasts the operation itself; the return
// value is computed by replaying ξ from S0. Receiving an operation inserts
// it at any position of the local ξ such that the result stays coherent with
// every other node's sequence: conflicting operations must appear in the
// same order everywhere. If no position is coherent the execution is stuck,
// and the semantics consists of the stuck-free executions only.
//
// The X-wins variant relaxes coherence exactly as Fig 13 does: only pairs of
// conflicting operations that are non-canceled in both sequences must agree,
// concurrent conflicting pairs must respect the won-by order ◀, insertion
// respects PresvCancel, and operation delivery is causal.
package absmachine

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/model"
	"repro/internal/spec"
)

// OpRecord is one issued abstract operation.
type OpRecord struct {
	MID    model.MsgID
	Op     model.Op
	Origin model.NodeID
	// Seen is the set of operations in the origin's ξ when this operation
	// was issued: its happens-before predecessors.
	Seen map[model.MsgID]bool
	// Query marks read-only operations, which are not broadcast.
	Query bool
}

// Machine is the abstract machine state.
type Machine struct {
	sp      spec.Spec
	xsp     spec.XSpec // non-nil in X-wins mode
	queries func(model.Op) bool
	init    model.Value
	seqs    [][]model.MsgID // ξt per node
	pend    []map[model.MsgID]bool
	recs    map[model.MsgID]*OpRecord
	nextMID model.MsgID
	// hist reads recs for Sec 9's order predicates; its X is xsp, so in UCR
	// mode its RCoh is Coh.
	hist spec.History[model.MsgID]
}

// New creates a UCR-mode machine over (Γ, ⊲⊳) with n nodes starting from the
// abstract state init. queries identifies read-only operations (never
// broadcast); it may be nil if every operation is effectful.
func New(sp spec.Spec, n int, init model.Value, queries func(model.Op) bool) *Machine {
	return newMachine(sp, nil, n, init, queries)
}

// NewX creates an X-wins-mode machine over (Γ, ⊲⊳, ◀, ▷).
func NewX(xsp spec.XSpec, n int, init model.Value, queries func(model.Op) bool) *Machine {
	return newMachine(xsp, xsp, n, init, queries)
}

func newMachine(sp spec.Spec, xsp spec.XSpec, n int, init model.Value, queries func(model.Op) bool) *Machine {
	if n < 1 {
		panic("absmachine: need at least one node")
	}
	m := &Machine{sp: sp, xsp: xsp, queries: queries, init: init, nextMID: 1, recs: map[model.MsgID]*OpRecord{}}
	for i := 0; i < n; i++ {
		m.seqs = append(m.seqs, nil)
		m.pend = append(m.pend, map[model.MsgID]bool{})
	}
	m.bind()
	return m
}

// bind points hist at m's records.
func (m *Machine) bind() {
	recs := m.recs
	m.hist = spec.History[model.MsgID]{Spec: m.sp, X: m.xsp,
		Op:  func(mid model.MsgID) model.Op { return recs[mid].Op },
		Saw: func(a, b model.MsgID) bool { return recs[a].Seen[b] },
	}
}

// N returns the number of nodes.
func (m *Machine) N() int { return len(m.seqs) }

// Clone deep-copies the machine (records are immutable and shared).
func (m *Machine) Clone() *Machine {
	cp := &Machine{sp: m.sp, xsp: m.xsp, queries: m.queries, init: m.init, nextMID: m.nextMID,
		recs: make(map[model.MsgID]*OpRecord, len(m.recs))}
	for k, v := range m.recs {
		cp.recs[k] = v
	}
	cp.bind()
	for _, seq := range m.seqs {
		cp.seqs = append(cp.seqs, append([]model.MsgID(nil), seq...))
	}
	for _, p := range m.pend {
		np := make(map[model.MsgID]bool, len(p))
		for k := range p {
			np[k] = true
		}
		cp.pend = append(cp.pend, np)
	}
	return cp
}

// Key canonically renders the machine state for memoization. Each operation
// is rendered with its content, origin, and happens-before set — two
// exploration branches may reuse the same MsgID for different operations (or
// the same operation with a different causal past), so bare IDs would alias
// semantically different states.
func (m *Machine) Key() string {
	var b strings.Builder
	for t, seq := range m.seqs {
		fmt.Fprintf(&b, "t%d:", t)
		for _, mid := range seq {
			b.WriteString(m.recKey(mid))
			b.WriteByte(',')
		}
		b.WriteByte('|')
		pending := make([]int, 0, len(m.pend[t]))
		for mid := range m.pend[t] {
			pending = append(pending, int(mid))
		}
		sort.Ints(pending)
		for _, mid := range pending {
			b.WriteString(m.recKey(model.MsgID(mid)))
			b.WriteByte(',')
		}
		b.WriteByte(';')
	}
	return b.String()
}

// recKey renders one operation record injectively.
func (m *Machine) recKey(mid model.MsgID) string {
	rec := m.recs[mid]
	seen := make([]int, 0, len(rec.Seen))
	for s := range rec.Seen {
		seen = append(seen, int(s))
	}
	sort.Ints(seen)
	return fmt.Sprintf("%d=%s@%d%v", mid, rec.Op, rec.Origin, seen)
}

// StateAt replays ξt from the initial abstract state.
func (m *Machine) StateAt(t model.NodeID) model.Value {
	s := m.init
	for _, mid := range m.seqs[t] {
		_, s = m.sp.Apply(m.recs[mid].Op, s)
	}
	return s
}

// Pending returns the total number of undelivered operations.
func (m *Machine) Pending() int {
	n := 0
	for _, p := range m.pend {
		n += len(p)
	}
	return n
}

// Invoke issues op at node t: the operation is appended to ξt (preserving
// the visibility order), its return value is computed by replaying the new
// sequence from S0, and — unless it is a query — it is broadcast to the
// other nodes.
func (m *Machine) Invoke(t model.NodeID, op model.Op) (model.Value, model.MsgID) {
	mid := m.nextMID
	m.nextMID++
	seen := make(map[model.MsgID]bool, len(m.seqs[t]))
	for _, prev := range m.seqs[t] {
		seen[prev] = true
	}
	rec := &OpRecord{MID: mid, Op: op, Origin: t, Seen: seen,
		Query: m.queries != nil && m.queries(op)}
	m.recs[mid] = rec
	m.seqs[t] = append(m.seqs[t], mid)
	ret := model.Nil()
	s := m.init
	for _, id := range m.seqs[t] {
		ret, s = m.sp.Apply(m.recs[id].Op, s)
	}
	if !rec.Query {
		for u := range m.seqs {
			if model.NodeID(u) != t {
				m.pend[u][mid] = true
			}
		}
	}
	return ret, mid
}

// Deliverable lists the operations currently deliverable to node t, sorted.
// In X-wins mode delivery is causal: an operation becomes deliverable only
// after everything it saw at issue time is already in ξt.
func (m *Machine) Deliverable(t model.NodeID) []model.MsgID {
	inSeq := map[model.MsgID]bool{}
	for _, mid := range m.seqs[t] {
		inSeq[mid] = true
	}
	var out []model.MsgID
	for mid := range m.pend[t] {
		if m.xsp != nil {
			rec := m.recs[mid]
			ok := true
			for dep := range rec.Seen {
				if !m.recs[dep].Query && !inSeq[dep] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
		}
		out = append(out, mid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// InsertPositions returns the positions at which the pending operation mid
// may be inserted into ξt while keeping all sequences coherent (and, in
// X-wins mode, respecting PresvCancel). An empty result means delivering mid
// to t is stuck at this machine state.
func (m *Machine) InsertPositions(t model.NodeID, mid model.MsgID) []int {
	if !m.pend[t][mid] {
		return nil
	}
	var out []int
	for pos := 0; pos <= len(m.seqs[t]); pos++ {
		cand := insertAt(m.seqs[t], mid, pos)
		if m.coherentEverywhere(t, cand) {
			out = append(out, pos)
		}
	}
	return out
}

// Receive inserts the pending operation mid into ξt at position pos.
func (m *Machine) Receive(t model.NodeID, mid model.MsgID, pos int) error {
	if !m.pend[t][mid] {
		return fmt.Errorf("absmachine: operation %s is not pending at %s", mid, t)
	}
	if pos < 0 || pos > len(m.seqs[t]) {
		return fmt.Errorf("absmachine: position %d out of range for %s", pos, t)
	}
	cand := insertAt(m.seqs[t], mid, pos)
	if !m.coherentEverywhere(t, cand) {
		return fmt.Errorf("absmachine: inserting %s at %d in ξ%s violates coherence", mid, pos, t)
	}
	delete(m.pend[t], mid)
	m.seqs[t] = cand
	return nil
}

func insertAt(seq []model.MsgID, mid model.MsgID, pos int) []model.MsgID {
	out := make([]model.MsgID, 0, len(seq)+1)
	out = append(out, seq[:pos]...)
	out = append(out, mid)
	out = append(out, seq[pos:]...)
	return out
}

// coherentEverywhere checks the candidate sequence for node t against every
// other node's sequence: Coh in UCR mode, RCoh in X-wins mode, where the
// candidate must also respect PresvCancel and ◀ within itself. Checking ◀
// at insertion time (not only across sequences) keeps the machine from
// entering states that every future insertion would make stuck.
func (m *Machine) coherentEverywhere(t model.NodeID, cand []model.MsgID) bool {
	if m.xsp != nil {
		if _, _, ok := m.hist.PresvCancel(cand); !ok || !m.hist.WonByOrdered(cand) {
			return false
		}
	}
	for u, other := range m.seqs {
		if model.NodeID(u) != t && !m.hist.RCoh(cand, other) {
			return false
		}
	}
	return true
}
