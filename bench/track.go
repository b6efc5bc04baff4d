package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/model"
	"repro/internal/transport"
)

// clock is a run's monotonic time base: every timestamp the harness records
// is nanoseconds since the run's epoch.
type clock struct{ epoch time.Time }

func newClock() clock { return clock{epoch: time.Now()} }

func (c clock) now() int64 { return int64(time.Since(c.epoch)) }

// sleepUntil blocks until the run clock reaches t. It sleeps in the
// nanosleep system call rather than time.Sleep: the runtime's timers wake
// up to a millisecond late here, which would swamp the sub-millisecond
// invoke latencies an open loop at 1000 ops/s measures from each due time;
// nanosleep overshoots by the kernel's ~50µs timer slack.
func (c clock) sleepUntil(t int64) {
	for d := t - c.now(); d > 0; d = t - c.now() {
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// pendingOp is one effectful operation not yet visible at every remote.
type pendingOp struct {
	due   int64 // when the generator was due to issue it
	sent  int64 // when the origin's Broadcast returned (traced runs only)
	left  int   // remotes that have not applied it yet
	block int   // its block of the measured operations; -1 for set-up traffic
}

// tracker follows every effectful operation from its origin's Prepare until
// it is visible at all N−1 remote replicas, then forgets it. Entries are
// sharded by object (mid spaces are per object), so the generator and the
// three receive workers rarely contend on one lock.
type tracker struct {
	remotes int
	shards  []trackShard

	inflight atomic.Int64
	wake     chan struct{} // cap-1 signal: some operation became fully visible
	lastDone atomic.Int64  // latest completion time (run clock)
}

type trackShard struct {
	mu      sync.Mutex
	pending map[model.MsgID]*pendingOp
}

// newTracker tracks operations on object IDs below nobj for a mesh of n
// replicas.
func newTracker(n, nobj int) *tracker {
	t := &tracker{remotes: n - 1, shards: make([]trackShard, nobj), wake: make(chan struct{}, 1)}
	for i := range t.shards {
		t.shards[i].pending = map[model.MsgID]*pendingOp{}
	}
	return t
}

// issue registers an effectful operation at its origin.
func (t *tracker) issue(obj transport.ObjID, mid model.MsgID, due int64, block int) {
	s := &t.shards[obj]
	s.mu.Lock()
	s.pending[mid] = &pendingOp{due: due, left: t.remotes, block: block}
	s.mu.Unlock()
	t.inflight.Add(1)
}

// cancel forgets an operation whose Invoke failed after Prepare.
func (t *tracker) cancel(obj transport.ObjID, mid model.MsgID) {
	s := &t.shards[obj]
	s.mu.Lock()
	_, ok := s.pending[mid]
	delete(s.pending, mid)
	s.mu.Unlock()
	if ok {
		t.done()
	}
}

// sent records when the origin's Broadcast of (obj, mid) returned.
func (t *tracker) sent(obj transport.ObjID, mid model.MsgID, at int64) {
	s := &t.shards[obj]
	s.mu.Lock()
	if p := s.pending[mid]; p != nil {
		p.sent = at
	}
	s.mu.Unlock()
}

// sentAt returns the Broadcast return time of (obj, mid), if still tracked.
func (t *tracker) sentAt(obj transport.ObjID, mid model.MsgID) (int64, bool) {
	s := &t.shards[obj]
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.pending[mid]; p != nil && p.sent > 0 {
		return p.sent, true
	}
	return 0, false
}

// visible records that one remote applied (obj, mid) at time at. It returns
// the latency from the operation's due time and the operation's block (-1
// for set-up traffic); an operation visible more often than it has remotes
// is an error.
func (t *tracker) visible(obj transport.ObjID, mid model.MsgID, at int64) (int64, int, error) {
	s := &t.shards[obj]
	s.mu.Lock()
	p := s.pending[mid]
	if p == nil {
		s.mu.Unlock()
		return 0, 0, fmt.Errorf("object %d op %s became visible but is not outstanding", obj, mid)
	}
	p.left--
	last := p.left == 0
	if last {
		delete(s.pending, mid)
	}
	lat, block := at-p.due, p.block
	s.mu.Unlock()
	if last {
		t.completed(at)
		t.done()
	}
	return lat, block, nil
}

// completed advances the latest completion time to at.
func (t *tracker) completed(at int64) {
	for {
		cur := t.lastDone.Load()
		if at <= cur || t.lastDone.CompareAndSwap(cur, at) {
			return
		}
	}
}

func (t *tracker) done() {
	t.inflight.Add(-1)
	select {
	case t.wake <- struct{}{}:
	default:
	}
}

// waitBelow blocks until fewer than limit operations are outstanding, or
// the deadline passes; it reports whether the condition was met.
func (t *tracker) waitBelow(limit int64, deadline time.Time) bool {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for t.inflight.Load() >= limit {
		select {
		case <-t.wake:
		case <-timer.C:
			return t.inflight.Load() < limit
		}
	}
	return true
}

// holdMirror replays Peer's causal hold-back rule from the deps each frame
// carries: a frame applies once every dep is applied, and each application
// retries the held frames until nothing more releases. It tells the receive
// handler which operations a delivery made visible, which Peer does not
// expose; the handler checks the count against the Peer.Applied delta.
type holdMirror struct {
	mu      sync.Mutex
	applied map[model.MsgID]bool
	held    map[model.MsgID][]model.MsgID
}

func newHoldMirror() *holdMirror {
	return &holdMirror{applied: map[model.MsgID]bool{}, held: map[model.MsgID][]model.MsgID{}}
}

// own records an operation the local replica issued (applied at once).
func (m *holdMirror) own(mid model.MsgID) {
	m.mu.Lock()
	m.applied[mid] = true
	m.mu.Unlock()
}

// deliver applies the hold-back rule to one received frame and returns the
// operations it released, the frame itself first when it applied at once.
// An empty result means the frame was held (or was a duplicate).
func (m *holdMirror) deliver(mid model.MsgID, deps []model.MsgID) []model.MsgID {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.applied[mid] {
		return nil
	}
	if !m.met(deps) {
		m.held[mid] = deps // decoded frames own their deps slice
		return nil
	}
	m.applied[mid] = true
	released := []model.MsgID{mid}
	for progress := true; progress; {
		progress = false
		for h, hdeps := range m.held {
			if m.met(hdeps) {
				delete(m.held, h)
				m.applied[h] = true
				released = append(released, h)
				progress = true
			}
		}
	}
	return released
}

func (m *holdMirror) met(deps []model.MsgID) bool {
	for _, d := range deps {
		if !m.applied[d] {
			return false
		}
	}
	return true
}
