package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/crdt"
	"repro/internal/model"
)

// This file implements the parallel counterpart of ExploreSchedules: a
// worker-pool frontier search over delivery interleavings with a sharded
// seen-set and a commutativity reduction. ExploreSchedules (explore.go) is
// kept unchanged as the sequential oracle; the differential tests in
// parallel_test.go assert terminal-state-set equality between the two on
// every registry algorithm.
//
// Both explorers dedup on 64-bit fingerprints of Cluster.AppendBinary, the
// cluster's canonical binary encoding, which includes the fault-layer state
// (remaining duplicate copies, arrival ticks, crash flags, virtual clock):
// two states that agree on replica contents but differ in queued fault
// pathology have different futures and are never merged, so the dedup stays
// sound on faulty schedules. The explorers themselves build clean clusters,
// where those fields are constant and the keys collapse to the original
// form.
//
// # Commutativity reduction
//
// In the op-based effector model of sim.go, a delivery (dst, mid) mutates
// only node dst's slice of the cluster (states[dst], causal context
// applied[dst], inbox[dst]), and an invocation at node t mutates only node
// t's slice plus the inboxes of the other nodes (by *adding* a fresh message). Consequently
// two deliveries to different destination nodes commute — executing them in
// either order yields the same cluster state and neither enables nor
// disables the other — and a delivery to dst commutes with the scripted
// invocation whenever the invocation happens at a different node. Deliveries
// to the *same* node do not commute in general (effectors need not), and a
// delivery to the invoking node never commutes with the invocation (it
// changes the state Prepare reads and the dependency set the new message
// carries).
//
// The reduction canonicalizes delivery runs: within a maximal run of
// deliveries (no invocation in between), destination indices must be
// non-decreasing. Stably sorting a run by destination keeps every delivery
// enabled (per-destination order is preserved, messages are only created at
// invocations, and — under causal delivery — deliverability at a node
// depends only on that node's own applied set) and reaches the same state at
// the end of the run, so every terminal state remains reachable through a
// canonical path. Once the script is exhausted no new messages can appear
// and the rule degenerates to "drain the lowest-indexed node with
// deliverable messages first", which is a persistent set in the
// partial-order-reduction sense: all quiescent (terminal) states are
// preserved.
//
// Because the canonical-path argument constrains continuations by the
// destination of the preceding delivery, the seen-set records, per state,
// the lowest destination floor it has been expanded with; re-encountering a
// state with a lower floor re-expands only the delivery range the earlier
// visit pruned. Causal delivery never invalidates the reduction: it only
// restricts which messages are deliverable at a node as a function of that
// node's own applied set, which deliveries to other nodes do not touch.

// ErrExploreAborted wraps an error returned by a terminal callback; workers
// stop promptly once any callback fails.
var ErrExploreAborted = errors.New("sim: exploration aborted by callback")

// errStopped is the internal sentinel workers use to unwind after another
// worker has already recorded the run's error.
var errStopped = errors.New("sim: exploration stopped")

// ParallelConfig tunes ExploreSchedulesParallel.
type ParallelConfig struct {
	// Workers is the worker-pool size; 0 means GOMAXPROCS.
	Workers int
	// MaxStates is the distinct-state budget, the same account
	// ExploreSchedules keeps; 0 means 200000.
	MaxStates int
	// NoPrune disables the commutativity reduction, making the engine
	// expand exactly the state graph of the sequential oracle (used by the
	// differential tests and the pruning ablation).
	NoPrune bool
}

// ExploreStats reports what one parallel exploration did. States, Terminals
// and the budget outcome are determined by the script and configuration
// alone — they are reproducible regardless of the worker count. Deduped,
// Pruned and Revisits can shift marginally between runs when workers race to
// discover the same state with different destination floors; PeakFrontier
// and WorkerItems describe scheduling and are inherently run-specific.
type ExploreStats struct {
	// States is the number of distinct non-terminal states expanded — the
	// quantity charged against MaxStates. On a budget error it equals
	// MaxStates exactly.
	States int64
	// Terminals is the number of distinct terminal states (callback calls).
	Terminals int64
	// Deduped counts child states dropped because their key was already
	// expanded at an equal or lower floor.
	Deduped int64
	// Pruned counts delivery transitions skipped by the commutativity
	// reduction.
	Pruned int64
	// Revisits counts re-expansions of a known state at a lower floor.
	Revisits int64
	// PeakFrontier is the maximum work-queue length observed.
	PeakFrontier int64
	// WorkerItems is the number of queue items each worker processed.
	WorkerItems []int64
}

// exploreItem is one unit of work: expand the successors of cluster c at
// script position next, considering deliveries to destinations in [lo, hi)
// and the scripted invocation iff invoke is set (revisit items re-expand
// only a delivery range).
type exploreItem struct {
	c      *Cluster
	next   int
	lo, hi int
	invoke bool
}

const seenShards = 64

// seenShard is one lock stripe of the seen-set, keyed on 64-bit state
// fingerprints. The value is the lowest destination floor the state has
// been expanded with.
type seenShard struct {
	mu sync.Mutex
	m  map[uint64]int
}

type explorer struct {
	script    Script
	nodes     int
	prune     bool
	maxStates int64
	fn        func(*Cluster) error

	shards [seenShards]seenShard
	states atomic.Int64

	termMu    sync.Mutex
	terminals map[uint64]bool

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*exploreItem
	busy    int
	stopped bool
	err     error

	stop atomic.Bool

	deduped  atomic.Int64
	pruned   atomic.Int64
	revisits atomic.Int64
	peak     int64 // guarded by mu
	items    []int64
}

// ExploreSchedulesParallel explores the same schedule space as
// ExploreSchedules — at every point the next scripted operation may be
// issued or any deliverable message delivered — using a pool of workers over
// a shared frontier, a lock-striped seen-set keyed on Cluster.Fingerprint,
// and the
// commutativity reduction documented above. fn is called exactly once per
// *distinct* terminal state (the sequential oracle may call it once per
// terminal visit); calls are serialized, so fn needs no internal locking.
// The returned count is the number of distinct terminal states, which —
// like the budget outcome — is reproducible for a fixed script and
// configuration regardless of Workers.
func ExploreSchedulesParallel(obj crdt.Object, nodes int, script Script, causal bool, cfg ParallelConfig, fn func(*Cluster) error) (int, ExploreStats, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	maxStates := cfg.MaxStates
	if maxStates == 0 {
		maxStates = 200000
	}
	var opts []Option
	if causal {
		opts = append(opts, WithCausalDelivery())
	}
	e := &explorer{
		script:    script,
		nodes:     nodes,
		prune:     !cfg.NoPrune,
		maxStates: int64(maxStates),
		fn:        fn,
		terminals: map[uint64]bool{},
		items:     make([]int64, workers),
	}
	e.cond = sync.NewCond(&e.mu)
	for i := range e.shards {
		e.shards[i].m = map[uint64]int{}
	}
	if err := e.push(NewCluster(obj, nodes, opts...), 0, 0); err != nil {
		e.recordErr(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			e.worker(id)
		}(w)
	}
	wg.Wait()
	stats := ExploreStats{
		States:       e.states.Load(),
		Terminals:    int64(len(e.terminals)),
		Deduped:      e.deduped.Load(),
		Pruned:       e.pruned.Load(),
		Revisits:     e.revisits.Load(),
		PeakFrontier: e.peak,
		WorkerItems:  e.items,
	}
	return int(stats.Terminals), stats, e.err
}

// shardOf stripes the seen-set by the state fingerprint.
func (e *explorer) shardOf(key uint64) *seenShard {
	return &e.shards[key%seenShards]
}

// push routes a freshly produced cluster: terminal states go to the
// deduplicated callback, everything else through the seen-set and onto the
// frontier. floor is the destination of the delivery that produced c (0
// after an invocation), bounding which destinations its expansion considers.
func (e *explorer) push(c *Cluster, next, floor int) error {
	if e.stop.Load() {
		return errStopped
	}
	if next == len(e.script) {
		if c.Pending() == 0 {
			return e.terminal(c)
		}
		// Drain-phase expansion ignores the floor (the lowest-node rule is
		// arrival-independent), so store 0 and never revisit.
		floor = 0
	}
	if !e.prune {
		floor = 0
	}
	key := c.Fingerprint(uint64(next))
	sh := e.shardOf(key)
	sh.mu.Lock()
	old, ok := sh.m[key]
	switch {
	case ok && old <= floor:
		sh.mu.Unlock()
		e.deduped.Add(1)
		return nil
	case ok: // old > floor: re-expand the delivery range the first visit pruned
		sh.m[key] = floor
		sh.mu.Unlock()
		e.revisits.Add(1)
		e.enqueue(&exploreItem{c: c, next: next, lo: floor, hi: old})
		return nil
	}
	sh.m[key] = floor
	sh.mu.Unlock()
	if n := e.states.Add(1); n > e.maxStates {
		e.states.Add(-1)
		return fmt.Errorf("%w (%d states)", ErrScheduleBudget, e.maxStates)
	}
	e.enqueue(&exploreItem{c: c, next: next, lo: floor, hi: e.nodes, invoke: true})
	return nil
}

// terminal deduplicates terminal states and runs the callback, serialized.
func (e *explorer) terminal(c *Cluster) error {
	e.termMu.Lock()
	defer e.termMu.Unlock()
	key := c.Fingerprint(uint64(len(e.script)))
	if e.terminals[key] {
		e.deduped.Add(1)
		return nil
	}
	e.terminals[key] = true
	if e.fn != nil {
		if err := e.fn(c); err != nil {
			return fmt.Errorf("%w: %w", ErrExploreAborted, err)
		}
	}
	return nil
}

func (e *explorer) enqueue(it *exploreItem) {
	e.mu.Lock()
	e.queue = append(e.queue, it)
	if n := int64(len(e.queue)); n > e.peak {
		e.peak = n
	}
	e.mu.Unlock()
	e.cond.Signal()
}

// recordErr stores the first error and stops all workers.
func (e *explorer) recordErr(err error) {
	e.mu.Lock()
	if !e.stopped {
		e.stopped = true
		e.err = err
		e.stop.Store(true)
	}
	e.mu.Unlock()
	e.cond.Broadcast()
}

// worker pops items LIFO (bounding frontier memory, DFS-style) while the
// pool collectively provides breadth; it exits when the queue is drained and
// no peer is mid-expansion, or when the run is stopped.
func (e *explorer) worker(id int) {
	for {
		e.mu.Lock()
		for len(e.queue) == 0 && e.busy > 0 && !e.stopped {
			e.cond.Wait()
		}
		if e.stopped || len(e.queue) == 0 {
			e.mu.Unlock()
			e.cond.Broadcast()
			return
		}
		it := e.queue[len(e.queue)-1]
		e.queue = e.queue[:len(e.queue)-1]
		e.busy++
		e.mu.Unlock()

		err := e.expand(it)
		e.items[id]++

		e.mu.Lock()
		e.busy--
		idle := len(e.queue) == 0 && e.busy == 0
		e.mu.Unlock()
		if err != nil && !errors.Is(err, errStopped) {
			e.recordErr(err)
		} else if idle {
			e.cond.Broadcast()
		}
	}
}

// expand produces the successors of one work item.
func (e *explorer) expand(it *exploreItem) error {
	c, next := it.c, it.next
	if next == len(e.script) {
		return e.expandDrain(c, next)
	}
	if it.invoke {
		cp := c.Clone()
		if _, _, err := cp.Invoke(e.script[next].Node, e.script[next].Op); err != nil {
			if !errors.Is(err, crdt.ErrAssume) {
				return err
			}
			// Blocked by an assume: this branch waits for deliveries.
		} else if err := e.push(cp, next+1, 0); err != nil {
			return err
		}
	}
	for dst := it.lo; dst < it.hi; dst++ {
		for _, mid := range c.Deliverable(model.NodeID(dst)) {
			cp := c.Clone()
			if err := cp.Deliver(model.NodeID(dst), mid); err != nil {
				return err
			}
			if err := e.push(cp, next, dst); err != nil {
				return err
			}
		}
	}
	if e.prune && it.invoke && it.lo > 0 {
		for dst := 0; dst < it.lo; dst++ {
			e.pruned.Add(int64(len(c.Deliverable(model.NodeID(dst)))))
		}
	}
	return nil
}

// expandDrain handles script-exhausted states: with pruning, only the
// lowest-indexed node with deliverable messages is drained (the persistent
// set — no invocation can ever refill a lower node).
func (e *explorer) expandDrain(c *Cluster, next int) error {
	found := false
	for dst := 0; dst < c.N(); dst++ {
		mids := c.Deliverable(model.NodeID(dst))
		if len(mids) == 0 {
			continue
		}
		found = true
		for _, mid := range mids {
			cp := c.Clone()
			if err := cp.Deliver(model.NodeID(dst), mid); err != nil {
				return err
			}
			if err := e.push(cp, next, dst); err != nil {
				return err
			}
		}
		if e.prune {
			for d2 := dst + 1; d2 < c.N(); d2++ {
				e.pruned.Add(int64(len(c.Deliverable(model.NodeID(d2)))))
			}
			return nil
		}
	}
	if !found && c.Pending() > 0 {
		return fmt.Errorf("sim: undeliverable messages remain during exploration (broken causal dependencies)")
	}
	return nil
}
