// Package transport separates *how messages move* from *what a replica does*
// (Sec 2, Fig 8): it ships the checksummed canonical codec frames of the wire
// layer between the replicas of one replicated object, while the replica
// layers above it (sim.Cluster for the simulated cluster, Peer for real
// processes) decide what to do with each frame.
//
// Two implementations exist:
//
//   - Mem is the deterministic in-memory network the simulator schedules on:
//     per-destination queues of frame copies over a virtual clock, with
//     partition gating and copy-on-write consumption, byte-for-byte
//     replayable under chaos fault injection.
//   - Stream carries the identical frames over unix or TCP sockets so that
//     separate OS processes can replicate an object, reusing the registry's
//     effector decoders verbatim.
//
// The split mirrors the layering verified network models use (an abstract
// delivery layer instantiated by concrete transports): everything above
// Transport is transport-agnostic, so the same Peer converges over Mem in a
// unit test and over a unix socket between two processes.
package transport

import (
	"errors"
	"fmt"

	"repro/internal/model"
)

// Frame payload kinds. The kind byte is the first field of the inner frame
// encoding; unknown kinds are rejected at decode time against the kindNames
// registry below — adding a kind means adding it there, and every validation
// site picks it up.
const (
	// KindEffector frames carry one canonically encoded effector
	// (Effector.AppendBinary), the broadcast of one operation's second phase.
	KindEffector byte = 1
	// KindSnapshot frames carry one snapshot response (see Snapshot): the
	// serving peer's checkpoint state plus the retained effector suffix, the
	// state transfer that lets a fresh replica catch up without replaying the
	// whole broadcast log.
	KindSnapshot byte = 2
	// KindDone frames carry the origin's count of effectful broadcasts in the
	// payload. Peers use them to detect quiescence: once every peer has
	// announced its count and every announced frame has been applied, the
	// object is stable.
	KindDone byte = 3
	// KindSnapshotRequest frames carry no payload: a late-joining peer asks
	// every peer for a snapshot response right after the handshake.
	KindSnapshotRequest byte = 4
)

// kindNames is the registry of valid frame kinds. Decode and the peer state
// machine both validate against it, so a new kind constant cannot silently
// miss a validation site.
var kindNames = map[byte]string{
	KindEffector:        "effector",
	KindSnapshot:        "snapshot",
	KindDone:            "done",
	KindSnapshotRequest: "snapshot-request",
}

// KindValid reports whether k is a registered frame kind.
func KindValid(k byte) bool { _, ok := kindNames[k]; return ok }

// KindName renders a frame kind for diagnostics.
func KindName(k byte) string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("unknown(%d)", k)
}

// ObjID names one replicated object within a multiplexed mesh. A group that
// replicates a single object uses ID 0 throughout; a Node demultiplexes many
// objects over one endpoint by the IDs its Manifest declares.
type ObjID uint64

// Frame is one addressed wire message: routing metadata plus an opaque
// canonical payload. Obj scopes the frame to one replicated object when many
// share the transport (0 for a single-object group). Deps carries the
// sender's causal frontier (per origin, the highest mid it had applied, in
// the object's own mid space) for algorithms that require causal delivery
// and under the snapshot protocol; it is empty otherwise.
type Frame struct {
	Kind    byte
	Obj     ObjID
	MID     model.MsgID
	From    model.NodeID
	Deps    []model.MsgID
	Payload []byte
}

// Sentinel errors shared by the transports.
var (
	// ErrClosed: the endpoint was closed (locally or by a peer hangup).
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrTimeout: a blocking Recv outwaited its deadline.
	ErrTimeout = errors.New("transport: receive timed out")
	// ErrExhausted: every peer hung up and the receive queue is drained — the
	// endpoint can never produce another frame.
	ErrExhausted = errors.New("transport: every peer hung up with the frame queue drained")
)

// Transport is one node's endpoint on the network of a replicated object:
// the whole contract the replica layer uses. Implementations must deliver
// each sent frame to its destination at most once, unmodified (corruption is
// detected by the codec frame checksum and surfaces as an error, never as a
// mangled Frame).
type Transport interface {
	// Self is the node this endpoint belongs to.
	Self() model.NodeID
	// N is the number of nodes in the object's replication group.
	N() int
	// Broadcast ships one frame from Self to every other node. The endpoint
	// may queue the frame itself until a flush, holding f's Deps and Payload
	// slices until then, so callers must not modify them after the call.
	Broadcast(f Frame) error
	// Send ships one frame from Self to exactly one other node: the snapshot
	// protocol's response channel. Pending broadcasts flush first, so the
	// unicast cannot overtake them.
	Send(to model.NodeID, f Frame) error
	// Recv returns the next frame that has arrived for Self. With wait=false
	// it never blocks and reports ok=false when nothing has arrived; with
	// wait=true it blocks until a frame arrives, the endpoint closes, or the
	// implementation's receive deadline passes.
	Recv(wait bool) (f Frame, ok bool, err error)
	// Flush forces any pending broadcasts down to the wire. The replica layer
	// flushes before it blocks waiting for peers, which keeps pipelining live
	// under any BatchPolicy.
	Flush() error
	// Stats returns a snapshot of the endpoint's batching and IO counters.
	Stats() Stats
	// ConnectedPeers lists the peers the endpoint is connected to: the set
	// the compaction frontier waits for. A late joiner appears once admitted.
	ConnectedPeers() []model.NodeID
	// Close releases the endpoint. Further operations fail with ErrClosed.
	Close() error
}
