package transport

import (
	"time"

	"repro/internal/model"
)

// BatchPolicy configures write batching on a transport endpoint: queued
// broadcasts coalesce into one batch container per flush instead of paying
// one wire write per frame. A flush happens when any trigger fires:
//
//   - MaxFrames queued frames (≤1 disables batching: every frame flushes),
//   - MaxBytes of pending nested envelopes (0 = no byte cap),
//   - MaxDelay after the first frame of a pending batch was queued
//     (0 = no timer; on the virtual-clock Mem transport the delay trigger
//     does not apply and pending frames wait for a cap or explicit flush),
//   - an explicit Flush, or the endpoint closing (Close drains the pending
//     batch to the peers before hanging up, so no queued frame is lost).
type BatchPolicy struct {
	MaxFrames int
	MaxBytes  int
	MaxDelay  time.Duration
}

// normalized clamps the policy to its documented contract, which every
// endpoint applies before use:
//
//   - MaxFrames < 1 (the zero value, or a nonsensical negative cap) becomes
//     1: every frame flushes immediately, the unbatched default.
//   - MaxBytes < 0 becomes 0: no byte cap. A negative cap is never a valid
//     threshold, so it must not be distinguishable from "unset".
//   - MaxDelay < 0 becomes 0: no flush timer, for the same reason.
//
// After normalization MaxFrames ≥ 1, MaxBytes ≥ 0, and MaxDelay ≥ 0 hold, so
// downstream trigger checks may treat zero as "disabled" without re-guarding
// against negatives.
func (p BatchPolicy) normalized() BatchPolicy {
	if p.MaxFrames < 1 {
		p.MaxFrames = 1
	}
	if p.MaxBytes < 0 {
		p.MaxBytes = 0
	}
	if p.MaxDelay < 0 {
		p.MaxDelay = 0
	}
	return p
}

// FlushStats counts batch flushes by the trigger that fired them.
type FlushStats struct {
	// Frames: the frame cap; Bytes: the byte cap; Delay: the flush timer;
	// Explicit: a Flush call; Close: the endpoint closing with frames
	// pending.
	Frames, Bytes, Delay, Explicit, Close int
}

// Total sums the flushes across triggers.
func (f FlushStats) Total() int {
	return f.Frames + f.Bytes + f.Delay + f.Explicit + f.Close
}

// Flush triggers. trigClose doubles as the hangup drain: Close flushes the
// pending batch before the connections go down.
const (
	trigFrames = iota
	trigBytes
	trigDelay
	trigExplicit
	trigClose
)

// PeerIO counts one direction of traffic with one peer.
type PeerIO struct {
	// Frames is the number of transport frames moved, Batches the number of
	// batch containers they travelled in, Bytes the wire bytes (length
	// prefix + container) they cost.
	Frames, Batches, Bytes int
}

func (a PeerIO) add(b PeerIO) PeerIO {
	return PeerIO{Frames: a.Frames + b.Frames, Batches: a.Batches + b.Batches, Bytes: a.Bytes + b.Bytes}
}

// ObjIO counts one endpoint's frame traffic for a single object. Only frames
// are split by object: batch containers and wire bytes are shared across the
// objects coalesced into them and stay per-peer.
type ObjIO struct {
	// SentFrames counts frame deliveries written (each broadcast frame once
	// per peer it went to), RecvFrames the frames read. Summed over objects
	// they equal the per-peer totals — the balance invariant noteSent and
	// noteRecv maintain by construction.
	SentFrames, RecvFrames int
}

// Stats is a snapshot of one endpoint's batching and IO counters: what the
// unix/TCP mesh (and the batched Mem endpoints mirroring it) did on the
// wire, per peer and per object.
type Stats struct {
	// FramesQueued counts frames accepted by Broadcast, flushed or still
	// pending; FramesRejected counts nested frames received whose own
	// checksum or encoding failed and whose delivery was rejected alone.
	FramesQueued   int
	FramesRejected int
	// Flushes breaks the batch flushes down by trigger.
	Flushes FlushStats
	// Sent and Recv are indexed by peer node ID (the self entry stays
	// zero): Sent what this endpoint wrote to that peer, Recv what it read.
	Sent []PeerIO
	Recv []PeerIO
	// Objects splits the frame counters by object ID (key 0 for a
	// single-object group). Nil until the first frame moves.
	Objects map[ObjID]ObjIO
	// Sched is the per-object send-queue ledger: queue depths, drain counts
	// and flush-trigger attribution. See SchedStats.
	Sched SchedStats
}

// noteQueued records one broadcast accepted into obj's send queue.
func (s *Stats) noteQueued(obj ObjID) {
	s.FramesQueued++
	s.Sched.noteQueued(obj)
}

// noteFlush counts one flush under its trigger, however many containers it
// takes. A cap trigger is attributed to the object whose enqueue crossed the
// cap, a delay trigger to the object whose frame armed the deadline.
func (s *Stats) noteFlush(trigger int, cause ObjID) {
	switch trigger {
	case trigFrames:
		s.Flushes.Frames++
		s.Sched.noteCapFlush(cause)
	case trigBytes:
		s.Flushes.Bytes++
		s.Sched.noteCapFlush(cause)
	case trigDelay:
		s.Flushes.Delay++
		s.Sched.noteDeadlineFlush(cause)
	case trigExplicit:
		s.Flushes.Explicit++
	case trigClose:
		s.Flushes.Close++
	}
}

// noteSent records one container write to peer carrying the listed frames'
// objects: len(objs) frames, batches containers, wireBytes bytes. The
// per-peer counters and the per-object split update in the same call — the
// only write path either has — so sum-over-objects == per-peer totals can
// never drift.
func (s *Stats) noteSent(peer model.NodeID, batches, wireBytes int, objs []ObjID) {
	s.Sent[peer].Frames += len(objs)
	s.Sent[peer].Batches += batches
	s.Sent[peer].Bytes += wireBytes
	for _, o := range objs {
		if s.Objects == nil {
			s.Objects = map[ObjID]ObjIO{}
		}
		io := s.Objects[o]
		io.SentFrames++
		s.Objects[o] = io
	}
}

// noteRecv is noteSent's receive-side twin.
func (s *Stats) noteRecv(peer model.NodeID, batches, wireBytes int, objs []ObjID) {
	s.Recv[peer].Frames += len(objs)
	s.Recv[peer].Batches += batches
	s.Recv[peer].Bytes += wireBytes
	for _, o := range objs {
		if s.Objects == nil {
			s.Objects = map[ObjID]ObjIO{}
		}
		io := s.Objects[o]
		io.RecvFrames++
		s.Objects[o] = io
	}
}

// noteRecvDropped retracts frames a closing endpoint counted received but
// never handed to the receive pipeline: they can never be dispatched, so
// leaving them in the ledger would break the received == dispatched ==
// applied audit (RecvStats.Balance). Batch and byte counters stay — the
// container did cross the wire.
func (s *Stats) noteRecvDropped(peer model.NodeID, objs []ObjID) {
	s.Recv[peer].Frames -= len(objs)
	for _, o := range objs {
		io := s.Objects[o]
		io.RecvFrames--
		s.Objects[o] = io
	}
}

// TotalSent sums the per-peer send counters.
func (s Stats) TotalSent() PeerIO {
	var t PeerIO
	for _, p := range s.Sent {
		t = t.add(p)
	}
	return t
}

// TotalRecv sums the per-peer receive counters.
func (s Stats) TotalRecv() PeerIO {
	var t PeerIO
	for _, p := range s.Recv {
		t = t.add(p)
	}
	return t
}

// clone deep-copies the snapshot so callers can keep it across updates.
func (s Stats) clone() Stats {
	s.Sent = append([]PeerIO(nil), s.Sent...)
	s.Recv = append([]PeerIO(nil), s.Recv...)
	if s.Objects != nil {
		objs := make(map[ObjID]ObjIO, len(s.Objects))
		for k, v := range s.Objects {
			objs[k] = v
		}
		s.Objects = objs
	}
	s.Sched = s.Sched.clone()
	return s
}
