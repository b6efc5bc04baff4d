package transport

import "fmt"

// sendQueue is the pending batch of a batching endpoint: broadcasts held by
// value, in arrival order, until a flush drains them into wire containers.
// One FIFO is all the replica layer asks of the send side — per-object FIFO
// (DESIGN.md, "Send queue"). It is not safe for concurrent use; the owning
// endpoint serializes access (Stream under its mutex, Mem endpoints
// single-threaded).
type sendQueue struct {
	items []sendItem
	bytes int // Σ items' wire sizes
}

// sendItem is one queued broadcast: the frame, held by value until a flush
// encodes it, and its envelope size (Frame.wireLen), its byte cost against
// the caps and the container limit.
type sendItem struct {
	frame Frame
	wire  int
}

// push appends one broadcast to the pending batch.
func (q *sendQueue) push(f Frame) {
	w := f.wireLen()
	q.items = append(q.items, sendItem{frame: f, wire: w})
	q.bytes += w
}

// capTrigger reports the flush trigger whose cap the pending batch has
// reached under p, if any: the frame cap first, then the byte cap.
func (q *sendQueue) capTrigger(p BatchPolicy) (int, bool) {
	switch {
	case len(q.items) >= p.MaxFrames:
		return trigFrames, true
	case p.MaxBytes > 0 && q.bytes >= p.MaxBytes:
		return trigBytes, true
	}
	return 0, false
}

// reset empties the queue after a flush, dropping its frame references but
// keeping the backing array for the next batch.
func (q *sendQueue) reset() {
	clear(q.items)
	q.items, q.bytes = q.items[:0], 0
}

// containerLen returns how many of the non-empty items, from the front, one
// wire container takes: as many as fit within limit bytes of nested
// envelopes, and at least one, so an oversized frame still ships alone.
func containerLen(items []sendItem, limit int) int {
	n, bytes := 1, items[0].wire
	for n < len(items) && bytes+items[n].wire <= limit {
		bytes += items[n].wire
		n++
	}
	return n
}

// ---- Send-queue ledger --------------------------------------------------

// SchedObj is one object's slice of the send-queue ledger. The counters obey
// Queued == Drained + Depth by construction: the enqueue and flush paths
// update them in the same critical sections that move the frames.
type SchedObj struct {
	// Queued counts broadcasts accepted into the send queue, Drained the
	// frames handed to wire containers, Depth the frames still pending;
	// MaxDepth is the high-water mark of Depth.
	Queued, Drained, Depth, MaxDepth int
	// CapFlushes counts flushes tripped by this object's enqueue crossing
	// the frame or byte cap; DeadlineFlushes counts BatchPolicy.MaxDelay
	// flushes of pending batches whose first frame was this object's.
	CapFlushes, DeadlineFlushes int
}

// SchedStats is the per-object send-queue section of an endpoint's Stats.
type SchedStats struct {
	Objects map[ObjID]*SchedObj
}

func (ss *SchedStats) obj(id ObjID) *SchedObj {
	o := ss.Objects[id]
	if o == nil {
		if ss.Objects == nil {
			ss.Objects = map[ObjID]*SchedObj{}
		}
		o = &SchedObj{}
		ss.Objects[id] = o
	}
	return o
}

func (ss *SchedStats) noteQueued(id ObjID) {
	o := ss.obj(id)
	o.Queued++
	o.Depth++
	if o.Depth > o.MaxDepth {
		o.MaxDepth = o.Depth
	}
}

func (ss *SchedStats) noteDrained(id ObjID) {
	o := ss.obj(id)
	o.Drained++
	o.Depth--
}

func (ss *SchedStats) noteCapFlush(id ObjID)      { ss.obj(id).CapFlushes++ }
func (ss *SchedStats) noteDeadlineFlush(id ObjID) { ss.obj(id).DeadlineFlushes++ }

func (ss SchedStats) clone() SchedStats {
	if ss.Objects != nil {
		objs := make(map[ObjID]*SchedObj, len(ss.Objects))
		for k, v := range ss.Objects {
			cp := *v
			objs[k] = &cp
		}
		ss.Objects = objs
	}
	return ss
}

// SchedBalance verifies the send-queue ledger against the endpoint totals:
// Σ_obj Queued must equal FramesQueued, and every object must satisfy
// Queued == Drained + Depth with Depth ≥ 0. Both hold by construction — the
// enqueue and flush paths update the ledger and the queue in the same
// critical sections — so a non-nil return is an accounting bug.
func (s Stats) SchedBalance() error {
	sum := 0
	for id, o := range s.Sched.Objects {
		sum += o.Queued
		if o.Depth < 0 || o.Queued != o.Drained+o.Depth {
			return fmt.Errorf("transport: scheduler ledger for object %d out of balance: queued %d != drained %d + depth %d",
				id, o.Queued, o.Drained, o.Depth)
		}
	}
	if sum != s.FramesQueued {
		return fmt.Errorf("transport: scheduler ledger out of balance: Σ_obj queued %d != FramesQueued %d", sum, s.FramesQueued)
	}
	return nil
}
