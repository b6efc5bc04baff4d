package transport

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// RecvPolicy configures the parallel receive pipeline of an endpoint: frames
// read off the wire are dispatched to per-object apply shards — a bounded
// worker pool where every object ID is pinned to exactly one shard, so
// per-object FIFO delivery (and with it causal hold-back, dedup, and snapshot
// catch-up, all of which are per-object state) is untouched while distinct
// objects apply concurrently. The zero policy runs one shard.
type RecvPolicy struct {
	// Workers is the number of apply shards (goroutines). Each object is
	// pinned to shard obj mod Workers, so one object's frames always apply on
	// one goroutine in arrival order. Workers < 1 means one shard.
	Workers int
}

// normalized clamps the policy to its documented contract: Workers < 1
// becomes one shard.
func (p RecvPolicy) normalized() RecvPolicy {
	p.Workers = max(p.Workers, 1)
	return p
}

// recvQueueFrames bounds every receive queue: a Stream's frame queue and each
// shard's apply queue. A full queue blocks whoever feeds it — a shard's
// stalls the dispatcher, which stops draining the endpoint, and a Stream's
// stalls its receive loops — so backpressure propagates into the reader
// (and, over sockets, the sender's TCP flow control) instead of buffering
// frames without bound.
const recvQueueFrames = 64

// recvPolicied is implemented by the endpoints that embed endpointConfig
// (Stream and Mem endpoints). Node's StartReceiver reads the policy from the
// endpoint so the pipeline shape is configured where the endpoint is built,
// like every other transport policy.
type recvPolicied interface {
	recvPolicy() RecvPolicy
}

// pipeFrame is one decoded frame travelling through the pipeline together
// with the pooled container its payload borrows from (nil when the payload
// owns its bytes).
type pipeFrame struct {
	f   Frame
	buf *rxBuf
}

// release drops the frame's reference to its container, if it has one.
func (pf pipeFrame) release() {
	if pf.buf != nil {
		pf.buf.release()
	}
}

// RecvShard is one apply shard's ledger.
type RecvShard struct {
	// Dispatched counts frames the dispatcher routed to this shard, Applied
	// the frames its worker handled successfully. After the pipeline drains,
	// Dispatched == Applied unless a handler failed.
	Dispatched, Applied int
	// MaxQueue is the high-water mark of the shard's bounded queue depth.
	MaxQueue int
}

// RecvStats is a snapshot of the receive pipeline's ledgers.
type RecvStats struct {
	Workers int
	Shards  []RecvShard
	// Exhausted reports that the endpoint can produce no more frames (every
	// peer hung up, or the endpoint closed).
	Exhausted bool
}

// TotalDispatched sums the per-shard dispatch counters.
func (s RecvStats) TotalDispatched() int {
	t := 0
	for _, sh := range s.Shards {
		t += sh.Dispatched
	}
	return t
}

// TotalApplied sums the per-shard apply counters.
func (s RecvStats) TotalApplied() int {
	t := 0
	for _, sh := range s.Shards {
		t += sh.Applied
	}
	return t
}

// Balance checks the pipeline ledger against the endpoint's wire totals:
// every frame the endpoint counted received must have been dispatched to
// exactly one shard, and every dispatched frame applied. Call it once the
// pipeline has drained (after Done is closed, or at quiescence — when no
// frame can be in flight between the reader and the shards).
func (s RecvStats) Balance(recvFrames int) error {
	if d := s.TotalDispatched(); d != recvFrames {
		return fmt.Errorf("transport: receive pipeline dispatched %d frames but the endpoint received %d", d, recvFrames)
	}
	if d, a := s.TotalDispatched(), s.TotalApplied(); d != a {
		return fmt.Errorf("transport: receive pipeline dispatched %d frames but applied %d", d, a)
	}
	return nil
}

// Receiver runs the parallel receive pipeline over one endpoint: a dispatcher
// goroutine drains the endpoint and routes each frame to its object's shard,
// and each shard's worker applies frames in arrival order through the
// handler. Build one with NewReceiver (custom handler) or Node.StartReceiver
// (frames routed to the registered replicas). The pipeline owns the
// endpoint's receive side: a Stream's Recv refuses once it is claimed, and
// Recv/Step must not be called on other endpoints while it runs.
//
// The pipeline stops when the endpoint is exhausted (every peer hung up) or
// closed, or when the handler returns an error; Done is closed once every
// in-flight frame has been drained, and Err reports the first handler or
// transport failure.
type Receiver struct {
	t      Transport
	pol    RecvPolicy
	handle func(Frame) error

	shards  []chan pipeFrame
	applied chan struct{} // cap-1 wakeup for await
	done    chan struct{}

	mu        sync.Mutex
	failure   error
	exhausted bool
	broken    atomic.Bool

	dispatched []atomic.Int64
	appliedN   []atomic.Int64
	maxQueue   []atomic.Int64
}

// NewReceiver claims t's receive side and starts the pipeline: pol.Workers
// shard workers plus the dispatcher. handle is called for every received
// frame, on the shard its object is pinned to; a frame's payload may borrow
// from a pooled receive buffer, so a handler that retains it past the call
// must copy it (Peer does, via Frame.Retain).
func NewReceiver(t Transport, pol RecvPolicy, handle func(Frame) error) *Receiver {
	pol = pol.normalized()
	if _, mem := t.(*memEndpoint); mem {
		// Mem is deterministic by construction and not goroutine-safe: one
		// shard applies in its virtual clock's order, whatever was asked.
		pol.Workers = 1
	}
	if st, ok := t.(*Stream); ok {
		st.claimed.Store(true) // Recv refuses from now on
	}
	r := &Receiver{
		t: t, pol: pol, handle: handle,
		shards:     make([]chan pipeFrame, pol.Workers),
		applied:    make(chan struct{}, 1),
		done:       make(chan struct{}),
		dispatched: make([]atomic.Int64, pol.Workers),
		appliedN:   make([]atomic.Int64, pol.Workers),
		maxQueue:   make([]atomic.Int64, pol.Workers),
	}
	var wg sync.WaitGroup
	for i := range r.shards {
		r.shards[i] = make(chan pipeFrame, recvQueueFrames)
		wg.Add(1)
		go r.worker(i, &wg)
	}
	go r.pump()
	go func() {
		wg.Wait()
		close(r.done)
	}()
	return r
}

// pump drains the endpoint and dispatches each frame to its object's shard.
// A full shard queue blocks the dispatch — and with it the drain, which is
// the backpressure contract. Receive timeouts are not failures here (the
// pipeline idles between bursts; deadlines belong to the waiters), so the
// pump retries them.
func (r *Receiver) pump() {
	defer func() {
		for _, ch := range r.shards {
			close(ch)
		}
	}()
	// A Stream hands over pooled zero-copy frames; any other endpoint's
	// frames own their bytes.
	recv := func(wait bool) (pipeFrame, bool, error) {
		f, ok, err := r.t.Recv(wait)
		return pipeFrame{f: f}, ok, err
	}
	if st, ok := r.t.(*Stream); ok {
		recv = st.recvPipe
	}
	for {
		pf, ok, err := recv(true)
		if err != nil {
			switch {
			case errors.Is(err, ErrTimeout):
				continue
			case errors.Is(err, ErrExhausted), errors.Is(err, ErrClosed):
				r.stop(nil)
			default:
				r.stop(err)
			}
			return
		}
		if !ok {
			// A drained deterministic endpoint (Mem at quiescence).
			r.stop(nil)
			return
		}
		if pf.buf != nil && pf.f.Kind != KindEffector {
			// Non-effector payloads can outlive the handler call (a decoded
			// snapshot state, the suffix frames nested in it): detach them
			// from the pooled container buffer. They are rare — snapshots and
			// done announcements — so the copy does not show on the hot path.
			pf.f = pf.f.Retain()
			pf.release()
			pf.buf = nil
		}
		shard := int(uint64(pf.f.Obj) % uint64(len(r.shards)))
		r.dispatched[shard].Add(1)
		if d := int64(len(r.shards[shard])) + 1; d > r.maxQueue[shard].Load() {
			r.maxQueue[shard].Store(d)
		}
		r.shards[shard] <- pf
	}
}

// worker applies one shard's frames in arrival order. The goroutine carries
// pprof labels — the shard index, plus the object of the frame being applied,
// updated only when it changes — so a CPU profile attributes apply time to
// objects. Each object's labelled context is built once per worker, so an
// object switch costs no allocation. After a failure the worker keeps
// draining (releasing buffers) without applying, so the dispatcher can never
// deadlock on a dead shard.
func (r *Receiver) worker(i int, wg *sync.WaitGroup) {
	defer wg.Done()
	shardCtx := pprof.WithLabels(context.Background(), pprof.Labels("transport-recv-shard", strconv.Itoa(i)))
	pprof.SetGoroutineLabels(shardCtx)
	defer pprof.SetGoroutineLabels(context.Background())
	objCtx := map[ObjID]context.Context{}
	var lastObj ObjID
	haveObj := false
	for pf := range r.shards[i] {
		if r.broken.Load() {
			pf.release()
			continue
		}
		if !haveObj || pf.f.Obj != lastObj {
			lastObj, haveObj = pf.f.Obj, true
			ctx, ok := objCtx[lastObj]
			if !ok {
				ctx = pprof.WithLabels(shardCtx, pprof.Labels("transport-recv-obj", strconv.FormatUint(uint64(lastObj), 10)))
				objCtx[lastObj] = ctx
			}
			pprof.SetGoroutineLabels(ctx)
		}
		err := r.handle(pf.f)
		pf.release()
		if err != nil {
			r.stop(err)
		} else {
			r.appliedN[i].Add(1)
		}
		select {
		case r.applied <- struct{}{}:
		default:
		}
	}
}

// stop records the pipeline outcome: a nil err marks clean exhaustion, a
// non-nil err the first failure (later ones are dropped).
func (r *Receiver) stop(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err == nil {
		r.exhausted = true
		return
	}
	if r.failure == nil {
		r.failure = err
		r.broken.Store(true)
	}
}

// Err returns the first handler or transport failure (nil while healthy; a
// clean exhaustion is not a failure).
func (r *Receiver) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failure
}

// Done is closed once the pipeline has fully drained: the endpoint is
// exhausted, closed, or failed, and every dispatched frame has been handled
// or released.
func (r *Receiver) Done() <-chan struct{} { return r.done }

// Stats returns a snapshot of the pipeline ledgers.
func (r *Receiver) Stats() RecvStats {
	s := RecvStats{Workers: r.pol.Workers}
	s.Shards = make([]RecvShard, len(r.shards))
	for i := range r.shards {
		s.Shards[i] = RecvShard{
			Dispatched: int(r.dispatched[i].Load()),
			Applied:    int(r.appliedN[i].Load()),
			MaxQueue:   int(r.maxQueue[i].Load()),
		}
	}
	r.mu.Lock()
	s.Exhausted = r.exhausted
	r.mu.Unlock()
	return s
}

// await blocks until pred holds, waking on every applied frame. onTimeout and
// onDrain render the caller's failure messages: the deadline passing, and the
// pipeline draining for good with pred still false. Node.wait pumps Step
// instead when no pipeline drains the receive side.
func (r *Receiver) await(deadline time.Duration, pred func() bool, onTimeout, onDrain func() error) error {
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	for {
		if err := r.Err(); err != nil {
			return err
		}
		if pred() {
			return nil
		}
		select {
		case <-r.applied:
		case <-r.done:
			// The pipeline can apply nothing further: one final check (a
			// wakeup may still be pending), then report the stall.
			if err := r.Err(); err != nil {
				return err
			}
			if pred() {
				return nil
			}
			return onDrain()
		case <-timer.C:
			return onTimeout()
		}
	}
}
