package transport

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/model"
)

// BatchPolicy configures write batching on a transport endpoint: queued
// broadcasts coalesce into one batch container per flush instead of paying
// one wire write per frame. A flush happens when any trigger fires:
//
//   - MaxFrames queued frames (≤1 disables batching: every frame flushes),
//   - MaxDelay after the first frame of a pending batch was queued
//     (0 = no timer; on the virtual-clock Mem transport the delay trigger
//     does not apply and pending frames wait for a cap or explicit flush),
//   - an explicit Flush, or the endpoint closing (Close drains the pending
//     batch to the peers before hanging up, so no queued frame is lost).
type BatchPolicy struct {
	MaxFrames int
	MaxDelay  time.Duration
}

// normalized clamps the policy to its documented contract, which every
// endpoint applies before use: MaxFrames < 1 (the zero value, or a
// nonsensical negative cap) becomes 1, so every frame flushes immediately,
// the unbatched default; MaxDelay < 0 becomes 0, no flush timer, since a
// negative delay must not be distinguishable from "unset".
func (p BatchPolicy) normalized() BatchPolicy {
	p.MaxFrames = max(p.MaxFrames, 1)
	p.MaxDelay = max(p.MaxDelay, 0)
	return p
}

// FlushStats counts batch flushes by the trigger that fired them.
type FlushStats struct {
	// Frames: the frame cap; Delay: the flush timer; Explicit: a Flush call;
	// Close: the endpoint closing with frames pending.
	Frames, Delay, Explicit, Close int
}

// Total sums the flushes across triggers.
func (f FlushStats) Total() int {
	return f.Frames + f.Delay + f.Explicit + f.Close
}

// Flush triggers. trigClose doubles as the hangup drain: Close flushes the
// pending batch before the connections go down.
const (
	trigFrames = iota
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

// ObjStats is one object's slice of an endpoint's ledger. Every counter
// splits an endpoint total, and SchedBalance audits each split. Only frames
// are split by object: batch containers and wire bytes are shared across the
// objects coalesced into them and stay per-peer.
type ObjStats struct {
	// SentFrames counts frame deliveries written (each broadcast frame once
	// per peer it went to), RecvFrames the frames read: they split the
	// per-peer Frames totals.
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
	// Objects is the per-object ledger, keyed by object ID (key 0 for a
	// single-object group). Nil until the first frame is sent or received.
	Objects map[ObjID]ObjStats
}

// The note helpers below are the only write paths of the per-object splits.
// Each updates a split and the endpoint total it splits in the same call (on
// a Stream, under its stats lock), so SchedBalance holds by construction.

// setObj stores object id's ledger entry.
func (s *Stats) setObj(id ObjID, o ObjStats) {
	if s.Objects == nil {
		s.Objects = map[ObjID]ObjStats{}
	}
	s.Objects[id] = o
}

// noteFlush counts one flush under its trigger, however many containers it
// takes.
func (s *Stats) noteFlush(trigger int) {
	switch trigger {
	case trigFrames:
		s.Flushes.Frames++
	case trigDelay:
		s.Flushes.Delay++
	case trigExplicit:
		s.Flushes.Explicit++
	case trigClose:
		s.Flushes.Close++
	}
}

// noteSent records one container write to peer carrying the listed frames'
// objects: len(objs) frames, batches containers, wireBytes bytes.
func (s *Stats) noteSent(peer model.NodeID, batches, wireBytes int, objs []ObjID) {
	s.Sent[peer].Frames += len(objs)
	s.Sent[peer].Batches += batches
	s.Sent[peer].Bytes += wireBytes
	for _, id := range objs {
		o := s.Objects[id]
		o.SentFrames++
		s.setObj(id, o)
	}
}

// noteRecv is noteSent's receive-side twin.
func (s *Stats) noteRecv(peer model.NodeID, batches, wireBytes int, objs []ObjID) {
	s.Recv[peer].Frames += len(objs)
	s.Recv[peer].Batches += batches
	s.Recv[peer].Bytes += wireBytes
	for _, id := range objs {
		o := s.Objects[id]
		o.RecvFrames++
		s.setObj(id, o)
	}
}

// noteRecvDropped retracts frames a closing endpoint counted received but
// never handed to the receive pipeline: they can never be dispatched, so
// leaving them in the ledger would break the received == dispatched ==
// applied audit (RecvStats.Balance). Batch and byte counters stay — the
// container did cross the wire.
func (s *Stats) noteRecvDropped(peer model.NodeID, objs []ObjID) {
	s.Recv[peer].Frames -= len(objs)
	for _, id := range objs {
		o := s.Objects[id]
		o.RecvFrames--
		s.setObj(id, o)
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

// SchedBalance audits every per-object split of the ledger against the
// endpoint total it splits: Σ SentFrames and Σ RecvFrames against the
// per-peer frame totals. The note helpers keep every split by construction,
// so a non-nil return is an accounting bug.
func (s Stats) SchedBalance() error {
	var sum ObjStats
	for _, o := range s.Objects {
		sum.SentFrames += o.SentFrames
		sum.RecvFrames += o.RecvFrames
	}
	for _, c := range []struct {
		split      string
		sum, total int
	}{
		{"sent frames", sum.SentFrames, s.TotalSent().Frames},
		{"received frames", sum.RecvFrames, s.TotalRecv().Frames},
	} {
		if c.sum != c.total {
			return fmt.Errorf("transport: ledger out of balance: Σ_obj %s %d != endpoint total %d", c.split, c.sum, c.total)
		}
	}
	return nil
}

// clone deep-copies the snapshot so callers can keep it across updates.
func (s Stats) clone() Stats {
	s.Sent = slices.Clone(s.Sent)
	s.Recv = slices.Clone(s.Recv)
	s.Objects = maps.Clone(s.Objects)
	return s
}
