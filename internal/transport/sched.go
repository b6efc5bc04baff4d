package transport

import (
	"fmt"
	"math/bits"
	"slices"
	"time"
)

// SchedPolicy configures the per-object delivery scheduler of a batching
// endpoint. Every object gets its own send queue, and a flush drains the
// queues into batch containers by deficit-weighted round-robin:
//
//   - Weights biases the drain: each round-robin visit grants an object a
//     deficit of Weights[obj] frames (at least 1, and 1 for objects not
//     listed), so an object with weight 8 lands roughly 8 frames in a
//     container for every 1 frame of a weight-1 competitor. Within one
//     object, frames stay in FIFO order; across flushes, deficits reset once
//     a queue drains empty. The zero policy weighs every object 1, and with
//     a single object the drain is the arrival order.
//   - MaxDelay overrides the shared BatchPolicy.MaxDelay per object: a quiet
//     object's first queued frame arms its own flush deadline, and when that
//     deadline fires only that object's queue is drained — the chatty
//     objects keep batching under the shared policy. On the virtual-clock
//     Mem transport there are no timers, so (like BatchPolicy.MaxDelay) the
//     overrides do not apply there.
//   - ChunkFrames caps the frames packed into one wire container during a
//     drain (0 = the whole backlog in one container). Smaller chunks put the
//     weighted order on the wire sooner: the first containers of a drain
//     carry the high-weight objects' frames.
//
// The wire format is untouched — scheduling only reorders which frames land
// in which container on the send side.
type SchedPolicy struct {
	Weights     map[ObjID]int
	MaxDelay    map[ObjID]time.Duration
	ChunkFrames int
}

// normalized clamps the policy to its documented contract: weights below 1
// become 1, non-positive max-delay overrides are dropped, and a negative
// chunk size means no chunking.
func (p SchedPolicy) normalized() SchedPolicy {
	if p.ChunkFrames < 0 {
		p.ChunkFrames = 0
	}
	if len(p.Weights) > 0 {
		ws := make(map[ObjID]int, len(p.Weights))
		for id, w := range p.Weights {
			ws[id] = max(w, 1)
		}
		p.Weights = ws
	}
	if len(p.MaxDelay) > 0 {
		ds := make(map[ObjID]time.Duration, len(p.MaxDelay))
		for id, d := range p.MaxDelay {
			if d > 0 {
				ds[id] = d
			}
		}
		p.MaxDelay = ds
	}
	return p
}

// weight returns the drain quantum for one object.
func (p SchedPolicy) weight(id ObjID) int { return max(p.Weights[id], 1) }

// delayFor returns the flush deadline delay for one object: the per-object
// override when set, the shared policy delay otherwise (0 = no deadline).
func (p SchedPolicy) delayFor(id ObjID, shared time.Duration) time.Duration {
	if d, ok := p.MaxDelay[id]; ok {
		return d
	}
	return shared
}

// schedItem is one queued broadcast awaiting a flush: the frame itself, held
// by value until a drain hands it to the wire (both endpoints queue the same
// way). wire is the frame's envelope size (Frame.wireLen), its byte cost
// against caps and container limits, and at stamps the enqueue time when
// delay sampling is on.
type schedItem struct {
	frame Frame
	wire  int
	at    time.Time
}

// objQueue is one object's FIFO send queue plus its DRR state. head indexes
// the consumed prefix so a drain never reallocates; deficit is the classic
// deficit-round-robin counter in frames.
type objQueue struct {
	id      ObjID
	items   []schedItem
	head    int
	deficit int
	active  bool
}

func (q *objQueue) pending() int { return len(q.items) - q.head }

// sched is the pending-broadcast store of a batching endpoint: per-object
// queues drained by deficit-weighted round-robin. It is not safe for
// concurrent use; the owning endpoint serializes access (Stream under its
// mutex, Mem endpoints single-threaded).
type sched struct {
	pol    SchedPolicy
	sample bool // stamp enqueue times for the delay histogram

	// ring holds the non-empty queues in first-activation order, rr the
	// persistent round-robin pointer.
	queues map[ObjID]*objQueue
	ring   []*objQueue
	rr     int

	pendN     int
	pendBytes int

	// out is the container a drain fills, reused by every drain: its items
	// are valid until the next one. outBytes sums their cost.
	out      []schedItem
	outBytes int
}

func newSched(pol SchedPolicy, sample bool) *sched {
	return &sched{pol: pol.normalized(), sample: sample, queues: map[ObjID]*objQueue{}}
}

// enqueue appends one item to its object's queue.
func (s *sched) enqueue(it schedItem) {
	id := it.frame.Obj
	q := s.queues[id]
	if q == nil {
		q = &objQueue{id: id}
		s.queues[id] = q
	}
	if !q.active {
		q.active = true
		s.ring = append(s.ring, q)
	}
	q.items = append(q.items, it)
	s.pendN++
	s.pendBytes += it.wire
}

// capTrigger reports the flush trigger whose cap the pending backlog has
// reached under p, if any: the frame cap first, then the byte cap.
func (s *sched) capTrigger(p BatchPolicy) (int, bool) {
	switch {
	case s.pendN >= p.MaxFrames:
		return trigFrames, true
	case p.MaxBytes > 0 && s.pendBytes >= p.MaxBytes:
		return trigBytes, true
	}
	return 0, false
}

// objPending returns one object's queued frame count.
func (s *sched) objPending(id ObjID) int {
	if q := s.queues[id]; q != nil {
		return q.pending()
	}
	return 0
}

// deactivate removes ring[idx] (drained empty) and resets its queue for
// reuse, keeping the round-robin pointer on the element that followed it.
func (s *sched) deactivate(idx int) {
	q := s.ring[idx]
	q.active = false
	q.deficit = 0
	q.items = q.items[:0]
	q.head = 0
	s.ring = append(s.ring[:idx], s.ring[idx+1:]...)
	if s.rr > idx {
		s.rr--
	}
	if s.rr >= len(s.ring) {
		s.rr = 0
	}
}

// fits reports whether one more item of cost wire may join a container that
// already holds n frames of size bytes. A container always takes at least
// one frame, whatever its size.
func fits(n, bytes, wire, limitFrames, limitBytes int) bool {
	if n == 0 {
		return true
	}
	if limitFrames > 0 && n >= limitFrames {
		return false
	}
	return limitBytes <= 0 || bytes+wire <= limitBytes
}

// startDrain empties the drain scratch for the next container.
func (s *sched) startDrain() {
	clear(s.out)
	s.out, s.outBytes = s.out[:0], 0
}

// take moves q's head item into the container being drained, unless the
// container is full: limitFrames caps its frames (0 = all), limitBytes its
// summed item cost (0 = no cap; a single oversized item still ships alone).
func (s *sched) take(q *objQueue, limitFrames, limitBytes int) bool {
	it := q.items[q.head]
	if !fits(len(s.out), s.outBytes, it.wire, limitFrames, limitBytes) {
		return false
	}
	q.items[q.head] = schedItem{}
	q.head++
	s.out = append(s.out, it)
	s.outBytes += it.wire
	s.pendN--
	s.pendBytes -= it.wire
	return true
}

// drainChunk removes and returns the next container's worth of items (see
// take for the limits) by deficit-weighted round-robin across the
// per-object queues. The items are valid until the next drain; none are
// returned when nothing is pending.
func (s *sched) drainChunk(limitFrames, limitBytes int) []schedItem {
	s.startDrain()
	for s.pendN > 0 && len(s.ring) > 0 {
		q := s.ring[s.rr]
		if q.pending() == 0 {
			s.deactivate(s.rr)
			continue
		}
		if q.deficit <= 0 {
			q.deficit += s.pol.weight(q.id)
		}
		for q.deficit > 0 && q.pending() > 0 {
			if !s.take(q, limitFrames, limitBytes) {
				// Container full mid-service: keep the remaining deficit and
				// the pointer here so the next container resumes this queue.
				return s.out
			}
			q.deficit--
		}
		if q.pending() == 0 {
			s.deactivate(s.rr)
		} else if q.deficit <= 0 {
			s.rr = (s.rr + 1) % len(s.ring)
		}
	}
	return s.out
}

// drainObj removes and returns up to one container's worth of items from a
// single object's queue — the per-object max-delay flush path.
func (s *sched) drainObj(id ObjID, limitFrames, limitBytes int) []schedItem {
	s.startDrain()
	q := s.queues[id]
	if q == nil {
		return s.out
	}
	for q.pending() > 0 && s.take(q, limitFrames, limitBytes) {
	}
	if q.pending() == 0 && q.active {
		s.deactivate(slices.Index(s.ring, q))
	}
	return s.out
}

// ---- Scheduler stats ----------------------------------------------------

// delayBucketCount sizes the enqueue→wire delay histogram: 8 sub-buckets per
// power-of-two octave (~12.5% resolution) up to ~2.4 hours.
const delayBucketCount = 320

// delayBucketIdx maps a delay in nanoseconds to its histogram bucket.
func delayBucketIdx(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	if ns < 8 {
		return int(ns)
	}
	exp := bits.Len64(uint64(ns)) - 4
	idx := (exp+1)*8 + int((uint64(ns)>>uint(exp))&7)
	if idx >= delayBucketCount {
		idx = delayBucketCount - 1
	}
	return idx
}

// delayBucketUpper returns the inclusive upper bound of one bucket.
func delayBucketUpper(idx int) time.Duration {
	if idx < 8 {
		return time.Duration(idx)
	}
	exp := idx/8 - 1
	sub := idx % 8
	return time.Duration((uint64(sub)+9)<<uint(exp) - 1)
}

// SchedObj is one object's slice of the scheduler ledger. The counters obey
// Queued == Drained + Depth by construction: the enqueue and drain paths
// update them in the same critical sections that move the frames.
type SchedObj struct {
	// Queued counts broadcasts accepted into this object's send queue,
	// Drained the frames handed to wire containers, Depth the frames still
	// pending; MaxDepth is the high-water mark of Depth.
	Queued, Drained, Depth, MaxDepth int
	// CapFlushes counts flushes tripped by this object's enqueue crossing
	// the shared frame or byte cap; DeadlineFlushes counts fires of this
	// object's max-delay deadline (the per-object QoS override, or the
	// shared MaxDelay without one).
	CapFlushes, DeadlineFlushes int
	// Delay histogram (socket endpoints built WithScheduler only): the
	// enqueue→wire latency of each drained frame, in ~12.5%-resolution
	// power-of-two buckets.
	DelaySamples int
	DelayMax     time.Duration
	DelayBuckets [delayBucketCount]int32
}

// DelayQuantile returns an upper bound on the q-quantile (0 < q ≤ 1) of the
// recorded enqueue→wire delays, 0 when nothing was sampled.
func (o *SchedObj) DelayQuantile(q float64) time.Duration {
	if o.DelaySamples == 0 || q <= 0 {
		return 0
	}
	target := int(q * float64(o.DelaySamples))
	if float64(target) < q*float64(o.DelaySamples) {
		target++
	}
	if target < 1 {
		target = 1
	}
	if target > o.DelaySamples {
		target = o.DelaySamples
	}
	cum := 0
	for i, c := range o.DelayBuckets {
		cum += int(c)
		if cum >= target {
			u := delayBucketUpper(i)
			if u > o.DelayMax {
				u = o.DelayMax
			}
			return u
		}
	}
	return o.DelayMax
}

// SchedStats is the per-object scheduler section of an endpoint's Stats.
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

func (ss *SchedStats) noteDrained(id ObjID, delay time.Duration, sampled bool) {
	o := ss.obj(id)
	o.Drained++
	o.Depth--
	if sampled {
		o.DelaySamples++
		if delay > o.DelayMax {
			o.DelayMax = delay
		}
		o.DelayBuckets[delayBucketIdx(delay.Nanoseconds())]++
	}
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

// SchedBalance verifies the scheduler ledger against the endpoint totals:
// Σ_obj Queued must equal FramesQueued, and every object must satisfy
// Queued == Drained + Depth with Depth ≥ 0. Both hold by construction — the
// enqueue and drain paths update the ledger and the frame stores in the same
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
