package main

import (
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// metricDef is one reported metric. BENCHMARK.json lists the same names and
// units, with the direction and regression bound of each.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees that hold steady
// enough on every workload, on the reference machine, to carry a
// BENCHMARK.json bound; every workload reports them. On verify,
// wire_bytes_per_op is the checksummed frame size of the corpus's effectors.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wire_bytes_per_op", "B"},
	{"live_heap_mb", "MB"},
}

// userBounded are the user-facing latency, throughput, CPU and memory
// metrics whose run-to-run spread on the reference machine exceeds 10% on at
// least one workload, so BENCHMARK.json lists them per-layer, as
// harness.<name>, with no bound (see README.md). -compare still holds each
// workload's value to userBound, and reports a workload whose spread exceeds
// it as unresolved.
var userBounded = []string{
	"harness.ops_per_s",
	"harness.visible_p50_ms",
	"harness.visible_p99_ms",
	"harness.invoke_p50_us",
	"harness.invoke_p99_us",
	"harness.cpu_ms_per_kop",
	"harness.max_rss_mb",
}

const userBound = 0.10

// perLayer are the traced run's metrics, named after the module each layer
// is; a layer a workload does not use reports 0. Every run prints the
// harness.* group, traced or not.
var perLayer = []metricDef{
	{"crdt.prepare_us.p50", "us"},
	{"crdt.prepare_us.p99", "us"},
	{"crdt.prepare.count", "count"},
	{"crdt.apply_us.p50", "us"},
	{"crdt.apply_us.p99", "us"},
	{"crdt.apply.count", "count"},
	{"codec.encode_us.p50", "us"},
	{"codec.encode_us.p99", "us"},
	{"codec.decode_us.p50", "us"},
	{"codec.decode_us.p99", "us"},
	{"codec.decode.count", "count"},
	{"codec.payload_bytes.mean", "B"},
	{"peer.invoke_us.p50", "us"},
	{"peer.invoke_us.p99", "us"},
	{"peer.invoke_self_us.p50", "us"},
	{"peer.invoke_self_us.p99", "us"},
	{"peer.handle_us.p50", "us"},
	{"peer.handle_us.p99", "us"},
	{"peer.handle_self_us.p99", "us"},
	{"peer.deps_per_frame.mean", "count"},
	{"peer.held_ratio", "ratio"},
	{"peer.holdback_wait_ms.p99", "ms"},
	{"stream.broadcast_us.p50", "us"},
	{"stream.broadcast_us.p99", "us"},
	{"stream.flush_us.p99", "us"},
	{"stream.frames_per_container", "frames"},
	{"stream.wire_bytes_per_frame", "B"},
	{"stream.flushes.frames", "count"},
	{"stream.flushes.delay", "count"},
	{"stream.flushes.explicit", "count"},
	{"stream.frames_rejected", "count"},
	{"recv.wire_wait_ms.p50", "ms"},
	{"recv.wire_wait_ms.p99", "ms"},
	{"recv.shard_max_queue", "frames"},
	{"core.acc_witness_ms.p50", "ms"},
	{"core.acc_witness_ms.p99", "ms"},
	{"core.xacc_witness_ms.p50", "ms"},
	{"core.xacc_witness_ms.p99", "ms"},
	{"core.cvt_ms.p50", "ms"},
	{"core.events_per_trace.mean", "count"},
	{"sim.trace_gen_ms.total", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_pause_ms.total", "ms"},
	{"harness.ops_per_s", "1/s"},
	{"harness.visible_p50_ms", "ms"},
	{"harness.visible_p99_ms", "ms"},
	{"harness.invoke_p50_us", "us"},
	{"harness.invoke_p99_us", "us"},
	{"harness.cpu_ms_per_kop", "ms"},
	{"harness.max_rss_mb", "MB"},
	{"harness.gen_late_ms.p99", "ms"},
	{"harness.visible_samples", "count"},
	{"harness.trace_overhead_pct", "%"},
}

// runOpts are one run's inputs.
type runOpts struct {
	seed  int64
	trace bool
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed, completed int
	problems                     []error // correctness gate violations
	setups                       []time.Duration
	window                       int64 // ns from the measured phase's start to its last completion
	invoke, visible              *blockHist
	late                         *hist
	res                          resources
	liveHeap                     uint64 // see liveHeap
	wireBytes                    int64
	effectful                    int
	layer                        map[string]float64
	spans                        []span // traced runs only
}

func (o *outcome) fail(err error) {
	o.failed++
	o.problems = append(o.problems, err)
}

// resources is the process's CPU and memory accounting at one instant (or,
// after since, over an interval).
type resources struct {
	cpu                time.Duration // user + system
	maxRSS             int64         // peak resident set, bytes; never a delta
	gcCycles           uint32
	allocBytes, allocs uint64
	gcPause            time.Duration
}

func sampleResources() resources {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return resources{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSS:     ru.Maxrss * 1024,
		gcCycles:   ms.NumGC,
		allocBytes: ms.TotalAlloc,
		allocs:     ms.Mallocs,
		gcPause:    time.Duration(ms.PauseTotalNs),
	}
}

// liveHeap collects garbage and returns the bytes the Go heap still holds.
// Taken once a run's operations are done, while its replicas (or corpus)
// are still in use, it is what they keep in memory. Unlike the process's
// peak resident set it does not depend on how far the heap overshot its
// collection goal at some instant, so it is steady from run to run.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func (r resources) since(r0 resources) resources {
	return resources{
		cpu:        r.cpu - r0.cpu,
		maxRSS:     r.maxRSS,
		gcCycles:   r.gcCycles - r0.gcCycles,
		allocBytes: r.allocBytes - r0.allocBytes,
		allocs:     r.allocs - r0.allocs,
		gcPause:    r.gcPause - r0.gcPause,
	}
}

// values computes every metric a run measured, end-to-end and per-layer.
// Latency quantiles are block medians (see blockHist); on verify an
// operation is one trace checked, invoke times its witness check and
// visible its whole verdict.
func (o *outcome) values() map[string]float64 {
	setups := slices.Clone(o.setups)
	slices.Sort(setups)
	ops := float64(o.attempted)
	v := map[string]float64{
		"setup_s":                    setups[len(setups)/2].Seconds(),
		"wire_bytes_per_op":          ratio(float64(o.wireBytes), float64(o.effectful)),
		"harness.ops_per_s":          ratio(float64(o.completed), float64(o.window)/1e9),
		"harness.visible_p50_ms":     float64(o.visible.quantile(0.50)) / 1e6,
		"harness.visible_p99_ms":     float64(o.visible.quantile(0.99)) / 1e6,
		"harness.invoke_p50_us":      float64(o.invoke.quantile(0.50)) / 1e3,
		"harness.invoke_p99_us":      float64(o.invoke.quantile(0.99)) / 1e3,
		"harness.cpu_ms_per_kop":     ratio(float64(o.res.cpu)/1e6, ops/1000),
		"live_heap_mb":               float64(o.liveHeap) / (1 << 20),
		"harness.max_rss_mb":         float64(o.res.maxRSS) / (1 << 20),
		"harness.gen_late_ms.p99":    float64(o.late.quantile(0.99)) / 1e6,
		"harness.visible_samples":    float64(o.visible.count()),
		"runtime.gc_cycles":          float64(o.res.gcCycles),
		"runtime.alloc_bytes_per_op": ratio(float64(o.res.allocBytes), ops),
		"runtime.allocs_per_op":      ratio(float64(o.res.allocs), ops),
		"runtime.gc_pause_ms.total":  float64(o.res.gcPause) / 1e6,
	}
	for k, x := range o.layer {
		v[k] = x
	}
	return v
}

// spanMetrics derives the per-layer timings from a traced run's spans. Self
// time is a root span's duration minus the time its child spans cover.
func spanMetrics(spans []span) map[string]float64 {
	var durs, sizes [numSpanNames]*hist
	for i := range durs {
		durs[i], sizes[i] = newHist(), newHist()
	}
	childNs := map[int64]int64{}
	for _, s := range spans {
		durs[s.name].record(s.end - s.start)
		sizes[s.name].record(int64(s.n))
		if s.parent != 0 {
			childNs[s.parent] += s.end - s.start
		}
	}
	invokeSelf, handleSelf := newHist(), newHist()
	for _, s := range spans {
		switch s.name {
		case spanInvoke:
			invokeSelf.record(s.end - s.start - childNs[s.sid])
		case spanHandle:
			handleSelf.record(s.end - s.start - childNs[s.sid])
		}
	}
	us := func(h *hist, q float64) float64 { return float64(h.quantile(q)) / 1e3 }
	ms := func(h *hist, q float64) float64 { return float64(h.quantile(q)) / 1e6 }
	events := newHist()
	events.merge(sizes[spanACC])
	events.merge(sizes[spanXACC])
	return map[string]float64{
		"crdt.prepare_us.p50":        us(durs[spanPrepare], 0.50),
		"crdt.prepare_us.p99":        us(durs[spanPrepare], 0.99),
		"crdt.prepare.count":         float64(durs[spanPrepare].n),
		"crdt.apply_us.p50":          us(durs[spanApply], 0.50),
		"crdt.apply_us.p99":          us(durs[spanApply], 0.99),
		"crdt.apply.count":           float64(durs[spanApply].n),
		"codec.encode_us.p50":        us(durs[spanEncode], 0.50),
		"codec.encode_us.p99":        us(durs[spanEncode], 0.99),
		"codec.decode_us.p50":        us(durs[spanDecode], 0.50),
		"codec.decode_us.p99":        us(durs[spanDecode], 0.99),
		"codec.decode.count":         float64(durs[spanDecode].n),
		"codec.payload_bytes.mean":   sizes[spanEncode].mean(),
		"peer.invoke_us.p50":         us(durs[spanInvoke], 0.50),
		"peer.invoke_us.p99":         us(durs[spanInvoke], 0.99),
		"peer.invoke_self_us.p50":    us(invokeSelf, 0.50),
		"peer.invoke_self_us.p99":    us(invokeSelf, 0.99),
		"peer.handle_us.p50":         us(durs[spanHandle], 0.50),
		"peer.handle_us.p99":         us(durs[spanHandle], 0.99),
		"peer.handle_self_us.p99":    us(handleSelf, 0.99),
		"peer.holdback_wait_ms.p99":  ms(durs[spanHoldback], 0.99),
		"stream.broadcast_us.p50":    us(durs[spanBroadcast], 0.50),
		"stream.broadcast_us.p99":    us(durs[spanBroadcast], 0.99),
		"stream.flush_us.p99":        us(durs[spanFlush], 0.99),
		"recv.wire_wait_ms.p50":      ms(durs[spanWire], 0.50),
		"recv.wire_wait_ms.p99":      ms(durs[spanWire], 0.99),
		"core.acc_witness_ms.p50":    ms(durs[spanACC], 0.50),
		"core.acc_witness_ms.p99":    ms(durs[spanACC], 0.99),
		"core.xacc_witness_ms.p50":   ms(durs[spanXACC], 0.50),
		"core.xacc_witness_ms.p99":   ms(durs[spanXACC], 0.99),
		"core.cvt_ms.p50":            ms(durs[spanCvT], 0.50),
		"core.events_per_trace.mean": events.mean(),
		"sim.trace_gen_ms.total":     durs[spanTraceGen].sum / 1e6,
	}
}

// layerMetrics adds the mesh's transport counters over the measured window
// (and, traced, the span timings) to a run's per-layer metrics.
func (h *harness) layerMetrics(m *mesh, st0, st1 meshStats, spans []span) map[string]float64 {
	layer := map[string]float64{}
	if h.tr != nil {
		layer = spanMetrics(spans)
	}
	var frames, batches, bytes, rejected, byCap, byDelay, explicit int
	for i := range st1.perNode {
		a, b := st0.perNode[i], st1.perNode[i]
		frames += b.TotalSent().Frames - a.TotalSent().Frames
		batches += b.TotalSent().Batches - a.TotalSent().Batches
		bytes += b.TotalSent().Bytes - a.TotalSent().Bytes
		rejected += b.FramesRejected
		byCap += b.Flushes.Frames - a.Flushes.Frames
		byDelay += b.Flushes.Delay - a.Flushes.Delay
		explicit += b.Flushes.Explicit - a.Flushes.Explicit
	}
	maxQueue, handled, held, deps := 0, 0, 0, 0
	for i, r := range m.recvs {
		for _, sh := range r.Stats().Shards {
			maxQueue = max(maxQueue, sh.MaxQueue)
		}
		handled += h.recv[i].frames
		held += h.recv[i].held
		deps += h.recv[i].deps
	}
	layer["stream.frames_per_container"] = ratio(float64(frames), float64(batches))
	layer["stream.wire_bytes_per_frame"] = ratio(float64(bytes), float64(frames))
	layer["stream.flushes.frames"] = float64(byCap)
	layer["stream.flushes.delay"] = float64(byDelay)
	layer["stream.flushes.explicit"] = float64(explicit)
	layer["stream.frames_rejected"] = float64(rejected)
	layer["recv.shard_max_queue"] = float64(maxQueue)
	layer["peer.held_ratio"] = ratio(float64(held), float64(handled))
	layer["peer.deps_per_frame.mean"] = ratio(float64(deps), float64(handled))
	return layer
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}
