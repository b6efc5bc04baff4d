package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"

	"repro/internal/crdt"
	"repro/internal/model"
	"repro/internal/transport"
)

// Span names. Each is a call into one layer's public API, timed from the
// benchmark's side of the call.
const (
	spanInvoke    uint8 = iota // Peer.Invoke
	spanHandle                 // Peer.Handle
	spanPrepare                // Object.Prepare
	spanApply                  // Effector.Apply
	spanEncode                 // Effector.AppendBinary
	spanDecode                 // the registry's DecodeEffector
	spanBroadcast              // Transport.Broadcast
	spanFlush                  // Flusher.Flush
	spanWire                   // origin's Broadcast return → remote handler entry
	spanHoldback               // a held frame's arrival → the Handle that released it
	spanACC                    // core.CheckACCWitness
	spanXACC                   // core.CheckXACCWitness
	spanCvT                    // core.CheckConvergenceFrom
	spanTraceGen               // sim.Workload.Run
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"peer.invoke", "peer.handle", "crdt.prepare", "crdt.apply", "codec.encode",
	"codec.decode", "stream.broadcast", "stream.flush", "recv.wire", "peer.holdback",
	"core.acc_witness", "core.xacc_witness", "core.cvt", "sim.trace_gen",
}

// span is one timed call. Spans of one operation share (obj, mid); on the
// verify workload obj is the algorithm and mid the trace's corpus index.
// n carries a size: payload bytes for codec spans, deps for peer.handle,
// events for core spans.
type span struct {
	sid, parent int64
	start, end  int64
	mid         int64
	obj         uint32
	n           int32
	name        uint8
	node        int8
}

// spanCtx collects the spans of one goroutine: the generator, or one node's
// receive worker. Only that goroutine touches it until the run has ended.
// A root span (peer.invoke or peer.handle) is open while its call runs;
// child spans recorded meanwhile are parented to it. Unsampled operations
// open no root, and their children are dropped.
type spanCtx struct {
	tr    *tracer
	spans []span
	root  span
	open  bool
}

// tracer owns a traced run's spans. It is nil in untraced runs, and every
// hook checks for that first, so an untraced run pays for none of this.
type tracer struct {
	clk    clock
	sample int64 // trace operations whose mid is divisible by sample
	on     atomic.Bool
	sids   atomic.Int64
	gen    *spanCtx
	recv   []*spanCtx
	// invoking[node][obj] is set from an effectful Prepare until the origin's
	// Broadcast: a decode at that replica in between is Invoke's own
	// validation decode, not a receive.
	invoking [][]atomic.Bool
}

func newTracer(clk clock, nodes, nobj int, sample int64) *tracer {
	t := &tracer{clk: clk, sample: sample, invoking: make([][]atomic.Bool, nodes)}
	t.gen = &spanCtx{tr: t}
	for i := 0; i < nodes; i++ {
		t.recv = append(t.recv, &spanCtx{tr: t})
		t.invoking[i] = make([]atomic.Bool, nobj)
	}
	return t
}

func (t *tracer) sampled(mid model.MsgID) bool {
	return t.on.Load() && int64(mid)%t.sample == 0
}

// begin opens a root span; start is taken before the operation's mid is
// known (Invoke allocates it), so setMID decides sampling afterwards.
func (c *spanCtx) begin(name uint8, node int, obj transport.ObjID, start int64) {
	c.root = span{name: name, node: int8(node), obj: uint32(obj), start: start}
	c.open = false
}

// setMID names the open root's operation and samples it.
func (c *spanCtx) setMID(mid model.MsgID) {
	c.root.mid = int64(mid)
	if c.tr.sampled(mid) {
		c.open = true
		c.root.sid = c.tr.sids.Add(1)
	}
}

// finish closes the root span.
func (c *spanCtx) finish(end int64, n int) {
	if c.open {
		c.root.end, c.root.n = end, int32(n)
		c.spans = append(c.spans, c.root)
	}
	c.open = false
}

// child records a span inside the open root.
func (c *spanCtx) child(name uint8, start, end int64, n int) {
	if !c.open {
		return
	}
	c.spans = append(c.spans, span{
		sid: c.tr.sids.Add(1), parent: c.root.sid, start: start, end: end,
		mid: c.root.mid, obj: c.root.obj, n: int32(n), name: name, node: c.root.node,
	})
}

// standalone records a root-level span outside any operation (flushes,
// waits, checker calls).
func (c *spanCtx) standalone(name uint8, node int, obj transport.ObjID, mid int64, start, end int64, n int) {
	if !c.tr.on.Load() {
		return
	}
	c.spans = append(c.spans, span{
		sid: c.tr.sids.Add(1), start: start, end: end, mid: mid, obj: uint32(obj),
		n: int32(n), name: name, node: int8(node),
	})
}

// allSpans returns every recorded span. Call it once the run has ended.
func (t *tracer) allSpans() []span {
	out := append([]span(nil), t.gen.spans...)
	for _, c := range t.recv {
		out = append(out, c.spans...)
	}
	return out
}

// writeSpans writes spans as JSON lines: one object per span with its id
// (<obj>/<mid>), name, node, start and end (ns since the run began), its
// own sid and its parent's sid (0 for none), and the size it carries.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, `{"id":"%d/%d","name":%q,"node":%d,"start_ns":%d,"end_ns":%d,"sid":%d,"parent":%d,"n":%d}`+"\n",
			s.obj, s.mid, spanNames[s.name], s.node, s.start, s.end, s.sid, s.parent, s.n)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedEffector times Apply (crdt layer) and AppendBinary (codec layer).
// Identity effectors are never wrapped: Peer recognises them by type.
type tracedEffector struct {
	crdt.Effector
	ctx *spanCtx
}

func (e *tracedEffector) Apply(s crdt.State) crdt.State {
	t0 := e.ctx.tr.clk.now()
	s = e.Effector.Apply(s)
	e.ctx.child(spanApply, t0, e.ctx.tr.clk.now(), 0)
	return s
}

func (e *tracedEffector) AppendBinary(b []byte) []byte {
	t0 := e.ctx.tr.clk.now()
	out := e.Effector.AppendBinary(b)
	e.ctx.child(spanEncode, t0, e.ctx.tr.clk.now(), len(out)-len(b))
	return out
}

// decoder wraps one replica's registered decoder for one object, timing the
// codec layer and wrapping what it decodes so the apply is timed too.
func (t *tracer) decoder(dec crdt.EffectorDecoder, node int, obj transport.ObjID) crdt.EffectorDecoder {
	return func(b []byte) (crdt.Effector, error) {
		ctx := t.recv[node]
		if t.invoking[node][obj].Load() {
			ctx = t.gen
		}
		t0 := t.clk.now()
		eff, err := dec(b)
		ctx.child(spanDecode, t0, t.clk.now(), len(b))
		if err != nil || crdt.IsIdentity(eff) || ctx == t.gen {
			return eff, err
		}
		return &tracedEffector{Effector: eff, ctx: ctx}, nil
	}
}

// tracedStream is the Transport a traced run hands NewNode: it forwards
// every call to the socket endpoint and times Broadcast and Flush.
type tracedStream struct {
	*transport.Stream
	tr    *tracer
	track *tracker
	node  int
}

func (s *tracedStream) Broadcast(f transport.Frame) error {
	ctx := s.tr.gen
	t0 := s.tr.clk.now()
	err := s.Stream.Broadcast(f)
	t1 := s.tr.clk.now()
	ctx.child(spanBroadcast, t0, t1, 0)
	s.tr.invoking[s.node][f.Obj].Store(false)
	if ctx.open {
		s.track.sent(f.Obj, f.MID, t1)
	}
	return err
}

func (s *tracedStream) Flush() error {
	t0 := s.tr.clk.now()
	err := s.Stream.Flush()
	s.tr.gen.standalone(spanFlush, s.node, 0, 0, t0, s.tr.clk.now(), 0)
	return err
}
