package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/crdt"
	"repro/internal/model"
	"repro/internal/transport"
)

// setupRepeats is how many times a run sets up its workload; setup_s is the
// median. The first set-up is the one measured; the others follow the
// measured phase, so their memory never counts in its harness.max_rss_mb.
const setupRepeats = 3

// drainTimeout bounds how long a run waits, after its last operation, for
// every effect to become visible everywhere.
const drainTimeout = 30 * time.Second

// harness observes one mesh from outside the replicas: it knows when each
// operation was due, sees every frame a replica handles, and (traced runs
// only) records spans around each layer's calls.
type harness struct {
	clk     clock
	track   *tracker
	tr      *tracer
	mirrors [][]*holdMirror // [node][object ID]; nil for non-causal objects
	recv    []*recvState

	// counting turns on the receive workers' frame counters once set-up
	// traffic has drained.
	counting atomic.Bool

	// Generator state, touched only by the generator goroutine (Prepare runs
	// synchronously inside the generator's Invoke). curBlock is -1 during
	// set-up.
	curDue   int64
	curBlock int
	issued   struct {
		ok  bool
		obj transport.ObjID
		mid model.MsgID
	}
}

func newHarness(w meshWorkload, traced bool) *harness {
	nobj := len(w.cfg.kinds) + 1
	h := &harness{clk: newClock(), track: newTracker(meshNodes, nobj), curBlock: -1}
	if traced {
		h.tr = newTracer(h.clk, meshNodes, nobj, w.sample)
	}
	for i := 0; i < meshNodes; i++ {
		ms := make([]*holdMirror, nobj)
		for j, k := range w.cfg.kinds {
			if k == "aw-set" { // the only causal algorithm the mesh workloads run
				ms[j+1] = newHoldMirror()
			}
		}
		h.mirrors = append(h.mirrors, ms)
		h.recv = append(h.recv, &recvState{h: h, idx: i, visible: newBlockHist(), heldAt: map[heldKey]int64{}})
	}
	return h
}

// harnessObject is the crdt.Object each replica registers. Prepare receives
// the operation's mid, so it is where an effectful operation enters the
// tracker with its due time; in traced runs it also times the crdt layer and
// wraps the effector so its encode and apply are timed.
type harnessObject struct {
	crdt.Object
	h      *harness
	obj    transport.ObjID
	mirror *holdMirror
}

func (o *harnessObject) Prepare(op model.Op, s crdt.State, origin model.NodeID, mid model.MsgID) (model.Value, crdt.Effector, error) {
	h, tr := o.h, o.h.tr
	var t0 int64
	if tr != nil {
		tr.gen.setMID(mid)
		t0 = h.clk.now()
	}
	ret, eff, err := o.Object.Prepare(op, s, origin, mid)
	if tr != nil {
		tr.gen.child(spanPrepare, t0, h.clk.now(), 0)
	}
	if err != nil || crdt.IsIdentity(eff) {
		return ret, eff, err
	}
	h.track.issue(o.obj, mid, h.curDue, h.curBlock)
	h.issued.ok, h.issued.obj, h.issued.mid = true, o.obj, mid
	if o.mirror != nil {
		o.mirror.own(mid)
	}
	if tr != nil {
		tr.invoking[origin][o.obj].Store(true)
		eff = &tracedEffector{Effector: eff, ctx: tr.gen}
	}
	return ret, eff, err
}

type heldKey struct {
	obj transport.ObjID
	mid model.MsgID
}

// recvState is one node's receive handler and what it measured. Only that
// node's receive worker touches it until the pipeline has drained.
type recvState struct {
	h       *harness
	idx     int
	node    *transport.Node
	visible *blockHist
	frames  int // effector frames handled
	held    int // frames the hold-back rule kept waiting
	deps    int // deps carried by handled frames
	err     error
	heldAt  map[heldKey]int64 // traced runs: arrival of each held frame
}

// handle is the receive pipeline's handler. It routes the frame exactly as
// Node.StartReceiver's route does (Node.Peer, then Peer.Handle) — the
// benchmark replaces that handler only to observe the call: it compares
// Peer.Applied before and after, and learns from the hold-back mirror which
// operations the delivery made visible, stamping each with the end of this
// Handle.
func (r *recvState) handle(f transport.Frame) error {
	h, tr := r.h, r.h.tr
	enter := h.clk.now()
	p, ok := r.node.Peer(f.Obj)
	if !ok {
		return fmt.Errorf("node %d: frame for unregistered object %d", r.idx, f.Obj)
	}
	if f.Kind != transport.KindEffector {
		return fmt.Errorf("node %d: unexpected %s frame", r.idx, transport.KindName(f.Kind))
	}
	var ctx *spanCtx
	if tr != nil {
		ctx = tr.recv[r.idx]
		ctx.begin(spanHandle, r.idx, f.Obj, enter)
		ctx.setMID(f.MID)
		if ctx.open {
			if sent, ok := h.track.sentAt(f.Obj, f.MID); ok {
				ctx.standalone(spanWire, r.idx, f.Obj, int64(f.MID), sent, enter, 0)
			}
		}
	}
	before := p.Applied()
	err := p.Handle(f)
	after := p.Applied()
	end := h.clk.now()
	if tr != nil {
		ctx.finish(end, len(f.Deps))
	}
	if err != nil {
		return err
	}
	counting := h.counting.Load()
	if counting {
		r.frames++
		r.deps += len(f.Deps)
	}
	released := []model.MsgID{f.MID}
	if m := h.mirrors[r.idx][f.Obj]; m != nil {
		released = m.deliver(f.MID, f.Deps)
	}
	if len(released) == 0 {
		if counting {
			r.held++
		}
		if tr != nil {
			r.heldAt[heldKey{f.Obj, f.MID}] = enter
		}
	}
	if len(released) != after-before {
		r.fail(fmt.Errorf("node %d object %d: the hold-back mirror released %d frames on %s but Peer.Applied grew by %d",
			r.idx, f.Obj, len(released), f.MID, after-before))
	}
	for _, mid := range released {
		lat, block, err := h.track.visible(f.Obj, mid, end)
		if err != nil {
			r.fail(fmt.Errorf("node %d: %w", r.idx, err))
			continue
		}
		if block >= 0 {
			r.visible[block].record(lat)
		}
		if tr == nil || mid == f.MID {
			continue
		}
		if at, ok := r.heldAt[heldKey{f.Obj, mid}]; ok {
			delete(r.heldAt, heldKey{f.Obj, mid})
			if tr.sampled(mid) {
				ctx.standalone(spanHoldback, r.idx, f.Obj, int64(mid), at, end, 0)
			}
		}
	}
	return nil
}

func (r *recvState) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// driveStats is what the generator observed while issuing operations.
type driveStats struct {
	invoke    *blockHist
	late      *hist
	reads     int
	effectful int
	failed    int
	err       error // first Invoke failure
}

// drive issues ops from the generator goroutine: open loop at rate ops/s,
// each operation due at start + i/rate whatever the previous ones cost, or
// (rate 0) closed loop, flushing and waiting whenever window operations are
// not yet visible everywhere. Latencies run from each operation's due time;
// each operation is expanded from the script before it is due. Set-up
// traffic (measured false) is issued the same way but not reported.
func (h *harness) drive(m *mesh, sc *script, ops []scriptOp, rate, window int, measured bool) driveStats {
	ds := driveStats{invoke: newBlockHist(), late: newHist()}
	tr := h.tr
	start := h.clk.now()
	for i, so := range ops {
		op := sc.op(so)
		var due int64
		if rate > 0 {
			due = start + int64(i)*int64(time.Second)/int64(rate)
			h.clk.sleepUntil(due)
			ds.late.record(h.clk.now() - due)
		} else {
			if h.track.inflight.Load() >= int64(window) {
				if err := m.flush(); err != nil {
					ds.fail(err)
					break
				}
				if !h.track.waitBelow(int64(window), time.Now().Add(drainTimeout)) {
					ds.fail(fmt.Errorf("closed loop: %d operations still not visible after %s", h.track.inflight.Load(), drainTimeout))
					break
				}
			}
			due = h.clk.now()
		}
		h.curDue, h.curBlock = due, -1
		if measured {
			h.curBlock = blockOf(i, len(ops))
		}
		h.issued.ok = false
		if tr != nil {
			tr.gen.begin(spanInvoke, int(so.node), transport.ObjID(so.obj), h.clk.now())
		}
		_, err := m.peers[so.node][so.obj].Invoke(op)
		ret := h.clk.now()
		if tr != nil {
			tr.gen.finish(ret, 0)
		}
		if measured {
			ds.invoke[h.curBlock].record(ret - due)
		}
		switch {
		case err != nil:
			if h.issued.ok {
				h.track.cancel(h.issued.obj, h.issued.mid)
			}
			ds.fail(fmt.Errorf("invoke %s at node %d object %d: %w", op, so.node, so.obj, err))
		case h.issued.ok:
			ds.effectful++
		default:
			ds.reads++
			h.track.completed(ret)
		}
	}
	return ds
}

func (ds *driveStats) fail(err error) {
	ds.failed++
	if ds.err == nil {
		ds.err = err
	}
}

// settle flushes every node and waits until all effects are visible.
func (h *harness) settle(m *mesh) error {
	if err := m.flush(); err != nil {
		return err
	}
	if !h.track.waitBelow(1, time.Now().Add(drainTimeout)) {
		return fmt.Errorf("%d operations not visible at every replica %s after the last was issued",
			h.track.inflight.Load(), drainTimeout)
	}
	return nil
}

// setUp connects a fresh mesh and runs the workload's preload, and returns
// how long that took.
func setUp(w meshWorkload, sc *script, traced bool, tag string) (*harness, *mesh, time.Duration, error) {
	runtime.GC() // so no set-up pays for collecting what came before it
	t0 := time.Now()
	h := newHarness(w, traced)
	m, err := startMesh(w.cfg, h, tag)
	if err != nil {
		return nil, nil, 0, err
	}
	if len(sc.preload) > 0 {
		ds := h.drive(m, sc, sc.preload, 0, 256, false)
		if err := errors.Join(ds.err, h.settle(m)); err != nil {
			m.close()
			return nil, nil, 0, fmt.Errorf("preload: %w", err)
		}
	}
	return h, m, time.Since(t0), nil
}

// runMesh runs one mesh workload: set-up, the measured operations, the
// drain and the correctness gates, then the remaining timed set-ups.
func runMesh(w meshWorkload, o runOpts) (*outcome, error) {
	sc := w.script(o.seed)
	out := &outcome{attempted: len(sc.ops)}
	h, m, d, err := setUp(w, sc, o.trace, "0")
	if err != nil {
		return nil, err
	}
	out.setups = append(out.setups, d)

	st0 := m.stats()
	res0 := sampleResources()
	h.counting.Store(true)
	if h.tr != nil {
		h.tr.on.Store(true)
	}
	start := h.clk.now()
	ds := h.drive(m, sc, sc.ops, w.rate, w.window, true)
	settleErr := h.settle(m)
	res1 := sampleResources()
	out.liveHeap = liveHeap()
	closeErr := m.close()
	st1 := m.stats()

	out.failed = ds.failed + int(h.track.inflight.Load())
	out.completed = ds.reads + ds.effectful - int(h.track.inflight.Load())
	out.window = h.track.lastDone.Load() - start
	out.invoke, out.late = ds.invoke, ds.late
	out.visible = newBlockHist()
	for _, r := range h.recv {
		out.visible.merge(r.visible)
	}
	out.res = res1.since(res0)
	out.wireBytes = st1.wireBytes - st0.wireBytes
	out.effectful = ds.effectful
	out.problems = appendErr(out.problems, ds.err, settleErr, closeErr)
	out.problems = appendErr(out.problems, h.gates(m, st1)...)
	if h.tr != nil {
		out.spans = h.tr.allSpans()
	}
	out.layer = h.layerMetrics(m, st0, st1, out.spans)

	for r := 1; r < setupRepeats; r++ {
		_, m, d, err := setUp(w, sc, false, fmt.Sprint(r))
		if err != nil {
			return nil, err
		}
		out.setups = append(out.setups, d)
		if err := m.close(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// gates checks the run's correctness. Call it once the mesh has closed and
// every receive pipeline has drained.
func (h *harness) gates(m *mesh, st meshStats) []error {
	var errs []error
	for obj := 1; obj < len(m.peers[0]); obj++ {
		ref := m.peers[0][obj].CanonicalState()
		for i := 1; i < meshNodes; i++ {
			if !bytes.Equal(m.peers[i][obj].CanonicalState(), ref) {
				errs = append(errs, fmt.Errorf("object %d: node %d's canonical state differs from node 0's", obj, i))
			}
		}
	}
	for i, st := range st.perNode {
		if err := m.recvs[i].Stats().Balance(st.TotalRecv().Frames); err != nil {
			errs = append(errs, fmt.Errorf("node %d: %w", i, err))
		}
		if err := st.SchedBalance(); err != nil {
			errs = append(errs, fmt.Errorf("node %d: %w", i, err))
		}
		if st.FramesRejected != 0 {
			errs = append(errs, fmt.Errorf("node %d rejected %d frames", i, st.FramesRejected))
		}
	}
	for _, r := range h.recv {
		if r.err != nil {
			errs = append(errs, r.err)
		}
	}
	if n := h.track.inflight.Load(); n != 0 {
		errs = append(errs, fmt.Errorf("%d effectful operations never became visible at every replica", n))
	}
	return errs
}

func appendErr(errs []error, more ...error) []error {
	for _, e := range more {
		if e != nil {
			errs = append(errs, e)
		}
	}
	return errs
}

// meshStats is every node's transport counters at one instant.
type meshStats struct {
	perNode   []transport.Stats
	wireBytes int64
}

func (m *mesh) stats() meshStats {
	var ms meshStats
	for _, st := range m.streams {
		s := st.Stats()
		ms.perNode = append(ms.perNode, s)
		ms.wireBytes += int64(s.TotalSent().Bytes)
	}
	return ms
}
