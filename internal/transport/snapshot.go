package transport

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/codec"
	"repro/internal/crdt"
	"repro/internal/model"
)

// This file holds the snapshot state-transfer protocol shared by the socket
// mesh and the simulator: the wire payload of a KindSnapshot response, the
// checkpoint shadow replica both layers fold stable broadcasts into, and the
// policy knob that paces compaction on long-lived peers.
//
// Protocol shape: a late-joining peer broadcasts a KindSnapshotRequest right
// after the handshake; every peer running a SnapshotPolicy answers once, by
// unicast, with a Snapshot — its checkpoint state (covering the compacted
// prefix of its log) plus every retained effector frame. The joiner installs
// the first response's decoded state, marks the covered MsgIDs applied, and
// replays the suffix through the ordinary dedup/hold-back path; later
// responses only contribute suffix frames the joiner still misses.
//
// Why the response always suffices: a serving peer's checkpoint covers
// exactly the frames compaction removed from its log, so Covered ∪ Suffix is
// everything that peer ever applied at serve time — truncation moves frames
// between the two sets but never out of the response. Frames the server
// applies after serving are broadcast over the joiner's live connection
// (admission precedes the request). The one mesh-wide requirement: every
// peer that broadcast before the join must run a SnapshotPolicy, so its own
// frames are in some response.

// SnapshotPolicy configures the snapshot/compaction layer of a serving peer
// (transport.WithSnapshotPolicy), mirroring BatchPolicy's shape. Every is
// the number of applied effector frames between compaction attempts: each
// attempt checkpoints the frontier of frames every connected peer has
// acknowledged (tracked from the deps already on the wire) and truncates the
// retained log up to it. Every <= 0 keeps the full log — the peer still
// serves snapshot requests, answering with an empty checkpoint and the whole
// log as suffix, a full replay over the snapshot channel.
type SnapshotPolicy struct {
	Every int
}

// DoneCount is one peer's completion announcement as carried inside a
// snapshot response: Done frames broadcast before the joiner connected can
// never reach it, so the server forwards the counts it knows.
type DoneCount struct {
	Node  model.NodeID
	Count int
}

// Snapshot is the payload of one KindSnapshot response.
type Snapshot struct {
	// Covered lists the MsgIDs folded into State, ascending.
	Covered []model.MsgID
	// State is the canonical binary encoding of the checkpoint state (the
	// algorithm's State.AppendBinary form, decoded by its StateDecoder).
	State []byte
	// Done carries the completion announcements known to the server,
	// including its own if it already announced.
	Done []DoneCount
	// Suffix is the retained effector-frame log beyond the covered frontier.
	Suffix []Frame
}

// Snapshot payload layout (inside a KindSnapshot frame, which the wire
// envelope checksums like any other):
//
//	uvarint ncovered · ncovered×uvarint mid (strictly ascending) ·
//	bytes state · uvarint ndone · ndone×(uvarint node · uvarint count,
//	nodes strictly ascending) · uvarint nsuffix · nsuffix×bytes(inner
//	effector frame encoding)

// AppendSnapshot appends s's canonical encoding to b. Covered and Done are
// emitted sorted, so equal snapshots encode byte-equal.
func AppendSnapshot(b []byte, s Snapshot) []byte {
	covered := append([]model.MsgID(nil), s.Covered...)
	sort.Slice(covered, func(i, j int) bool { return covered[i] < covered[j] })
	b = codec.AppendUvarint(b, uint64(len(covered)))
	for _, mid := range covered {
		b = codec.AppendUvarint(b, uint64(mid))
	}
	b = codec.AppendBytes(b, s.State)
	done := append([]DoneCount(nil), s.Done...)
	sort.Slice(done, func(i, j int) bool { return done[i].Node < done[j].Node })
	b = codec.AppendUvarint(b, uint64(len(done)))
	for _, d := range done {
		b = codec.AppendUvarint(b, uint64(d.Node))
		b = codec.AppendUvarint(b, uint64(d.Count))
	}
	b = codec.AppendUvarint(b, uint64(len(s.Suffix)))
	for _, f := range s.Suffix {
		b = codec.AppendBytes(b, f.Append(nil))
	}
	return b
}

// EncodeSnapshot renders s as one snapshot payload.
func EncodeSnapshot(s Snapshot) []byte { return AppendSnapshot(nil, s) }

// DecodeSnapshot parses one snapshot payload, requiring every byte to be
// consumed, covered mids and done nodes strictly ascending, and every suffix
// frame to be a well-formed effector frame. Malformed input fails with an
// error wrapping codec.ErrCorrupt.
func DecodeSnapshot(b []byte) (Snapshot, error) {
	var s Snapshot
	d := codec.NewDecoder(b)
	for i := range d.Count() {
		mid := model.MsgID(d.Uvarint())
		if i > 0 && mid <= s.Covered[i-1] {
			d.Fail("snapshot covered mids not strictly sorted")
		}
		s.Covered = append(s.Covered, mid)
	}
	s.State = d.Bytes()
	for i := range d.Count() {
		dc := DoneCount{Node: model.NodeID(d.Uvarint()), Count: int(d.Uvarint())}
		if i > 0 && dc.Node <= s.Done[i-1].Node {
			d.Fail("snapshot done entries not strictly sorted")
		}
		s.Done = append(s.Done, dc)
	}
	for i := range d.Count() {
		f, err := Decode(d.Bytes())
		if err != nil {
			return s, fmt.Errorf("snapshot suffix frame %d: %w", i, err)
		}
		if f.Kind != KindEffector {
			return s, fmt.Errorf("%w: snapshot suffix frame %d is a %s frame, not an effector", codec.ErrCorrupt, i, KindName(f.Kind))
		}
		s.Suffix = append(s.Suffix, f)
	}
	return codec.Result(&d, s)
}

// Checkpoint is the shadow replica a compaction layer maintains: the state
// reached by applying exactly the Covered broadcasts in MsgID order — an
// order consistent with happens-before, hence a legal schedule that (by
// convergence) equals any replica which applied the same set. Both the
// simulator's durable-log checkpoints (sim.WithSnapshots) and the socket
// peer's compaction advance one of these; truncating only covered entries
// preserves the safety invariant truncated ⊆ applied at every replica the
// frontier was computed from.
type Checkpoint struct {
	State   crdt.State
	Covered map[model.MsgID]bool
}

// NewCheckpoint starts a checkpoint at the algorithm's initial state,
// covering nothing.
func NewCheckpoint(init crdt.State) *Checkpoint {
	return &Checkpoint{State: init, Covered: map[model.MsgID]bool{}}
}

// Advance folds the newly stable broadcasts, each mid with its effector,
// into the shadow state in MsgID order, marking them covered. Already-covered
// mids are skipped.
func (c *Checkpoint) Advance(stable map[model.MsgID]crdt.Effector) {
	fresh := make([]model.MsgID, 0, len(stable))
	for mid := range stable {
		if !c.Covered[mid] {
			fresh = append(fresh, mid)
		}
	}
	slices.Sort(fresh)
	for _, mid := range fresh {
		c.State = stable[mid].Apply(c.State)
		c.Covered[mid] = true
	}
}

// CoveredSorted returns the covered MsgIDs ascending.
func (c *Checkpoint) CoveredSorted() []model.MsgID {
	out := make([]model.MsgID, 0, len(c.Covered))
	for mid := range c.Covered {
		out = append(out, mid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone copies the checkpoint. States are immutable, so the shadow state is
// shared.
func (c *Checkpoint) Clone() *Checkpoint {
	cp := &Checkpoint{State: c.State, Covered: make(map[model.MsgID]bool, len(c.Covered))}
	for mid := range c.Covered {
		cp.Covered[mid] = true
	}
	return cp
}

// SnapStats is a snapshot of one peer's state-transfer counters: the
// compaction side (checkpoints taken, frames truncated, frames still
// retained), the serving side (responses sent, duplicate or ignored
// requests), and the catch-up side (what the installed response carried,
// corrupt responses rejected, whether the peer fell back to full replay).
type SnapStats struct {
	// Compaction. LogRetained is the retained-log length at snapshot time —
	// the bound SnapshotPolicy exists to keep small.
	Checkpoints  int
	LogTruncated int
	LogRetained  int

	// Serving. ServeFailed counts responses the wire refused (the requester
	// hung up after resolving elsewhere) — serving is best-effort, so these
	// are dropped rather than treated as peer failures.
	Served          int
	ServeFailed     int
	DupRequests     int
	RequestsIgnored int

	// Catch-up. InstallCovered counts frames applied via the decoded state
	// (never replayed), InstallSuffix the retained frames shipped alongside;
	// SnapshotBytes is the installed response's payload size.
	Installed        bool
	FellBack         bool
	InstallCovered   int
	InstallSuffix    int
	SnapshotBytes    int
	CorruptResponses int
	ResponsesIgnored int
}
