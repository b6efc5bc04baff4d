package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/crdt"
	"repro/internal/crdts/registry"
	"repro/internal/model"
	"repro/internal/spec"
)

// tiny shrinks a mesh workload so a whole run takes well under a second.
func tiny(w meshWorkload) meshWorkload {
	w.ops = 240
	if w.rate > 0 {
		w.rate = 4000
	} else {
		w.ops, w.window = 3000, 256
	}
	if w.preload > 0 {
		w.preload = 60
	}
	return w
}

// TestWorkloadsTiny runs every workload end to end at tiny sizes, untraced
// and traced, and checks it passes its correctness gates and reports every
// metric.
func TestWorkloadsTiny(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			o := runOpts{seed: 3, trace: traced}
			var oc *outcome
			var err error
			if name == "verify" {
				oc, err = runVerify(6, o)
			} else {
				oc, err = runMesh(tiny(meshWorkloads[name]), o)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if len(oc.problems) > 0 || oc.failed > 0 {
				t.Fatalf("%s traced=%v: %d failed, problems %v", name, traced, oc.failed, oc.problems)
			}
			values := oc.values()
			for _, d := range endToEnd {
				if v, ok := values[d.name]; !ok || v <= 0 {
					t.Errorf("%s traced=%v: %s = %v, want > 0", name, traced, d.name, v)
				}
			}
			if !traced {
				continue
			}
			if len(oc.spans) == 0 {
				t.Errorf("%s: a traced run recorded no spans", name)
			}
			if name == "verify" {
				for _, k := range []string{"core.acc_witness_ms.p50", "core.xacc_witness_ms.p50", "core.cvt_ms.p50", "sim.trace_gen_ms.total"} {
					if values[k] <= 0 {
						t.Errorf("verify: %s = %v, want > 0", k, values[k])
					}
				}
			} else {
				for _, d := range perLayer {
					// The trace overhead needs the untraced child run.
					if _, ok := values[d.name]; !ok && d.name != "harness.trace_overhead_pct" {
						t.Errorf("%s: per-layer metric %s missing", name, d.name)
					}
				}
			}
			path := filepath.Join(t.TempDir(), "spans.jsonl")
			if err := writeSpans(path, oc.spans); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestTracedLayersDoWork checks that a traced edit run times every mesh
// layer: each operation is prepared, encoded and decoded at its origin and
// decoded and applied at both remotes.
func TestTracedLayersDoWork(t *testing.T) {
	oc, err := runMesh(tiny(meshWorkloads["edit"]), runOpts{seed: 5, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	ops := float64(oc.attempted)
	if got := oc.layer["crdt.prepare.count"]; got != ops {
		t.Errorf("crdt.prepare.count = %v, want %v", got, ops)
	}
	if got := oc.layer["codec.decode.count"]; got != meshNodes*ops {
		t.Errorf("codec.decode.count = %v, want %d per effectful op", got, meshNodes)
	}
	if got := oc.layer["crdt.apply.count"]; got != meshNodes*ops {
		t.Errorf("crdt.apply.count = %v, want %d per effectful op", got, meshNodes)
	}
	for _, name := range []string{"peer.invoke_us.p50", "peer.handle_us.p50", "stream.broadcast_us.p50", "recv.wire_wait_ms.p50", "codec.payload_bytes.mean"} {
		if oc.layer[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, oc.layer[name])
		}
	}
}

// midRecorder remembers the mid of the last effectful operation it
// prepared, as the benchmark's object wrapper does.
type midRecorder struct {
	crdt.Object
	last model.MsgID
}

func (o *midRecorder) Prepare(op model.Op, s crdt.State, origin model.NodeID, mid model.MsgID) (model.Value, crdt.Effector, error) {
	o.last = mid
	return o.Object.Prepare(op, s, origin, mid)
}

// TestHoldMirrorMatchesPeer drives real causal AW-set replicas over the
// in-memory network, delivering frames in random order with Mem.Take, and
// checks after every Handle that the mirror released exactly as many frames
// as Peer.Applied grew by.
func TestHoldMirrorMatchesPeer(t *testing.T) {
	alg := registry.AWSet()
	rng := rand.New(rand.NewSource(11))
	objs := make([]*midRecorder, meshNodes)
	wrapped := make([]crdt.Object, meshNodes)
	mirrors := make([]*holdMirror, meshNodes)
	for i := range objs {
		objs[i] = &midRecorder{Object: alg.New()}
		wrapped[i] = objs[i]
		mirrors[i] = newHoldMirror()
	}
	mem, peers := memPeers(alg, wrapped)
	elems := []model.Value{model.Str("a"), model.Str("b"), model.Str("c")}
	held := 0
	deliver := func(dst int, mid model.MsgID) {
		q, ok := mem.Take(model.NodeID(dst), mid)
		if !ok {
			t.Fatalf("no frame %s queued for node %d", mid, dst)
		}
		before := peers[dst].Applied()
		if err := peers[dst].Handle(q.Frame); err != nil {
			t.Fatal(err)
		}
		released := mirrors[dst].deliver(q.Frame.MID, q.Frame.Deps)
		if len(released) == 0 {
			held++
		}
		if got := peers[dst].Applied() - before; got != len(released) {
			t.Fatalf("node %d frame %s: mirror released %v, Peer.Applied grew by %d", dst, mid, released, got)
		}
	}
	for step := 0; step < 400; step++ {
		dst := rng.Intn(meshNodes)
		if queued := mem.Mids(model.NodeID(dst)); len(queued) > 0 && rng.Intn(2) == 0 {
			deliver(dst, queued[rng.Intn(len(queued))])
			continue
		}
		op := model.Op{Name: spec.OpAdd, Arg: elems[rng.Intn(len(elems))]}
		if rng.Intn(2) == 0 {
			op.Name = spec.OpRemove
		}
		if _, err := peers[dst].Invoke(op); err != nil {
			t.Fatal(err)
		}
		mirrors[dst].own(objs[dst].last)
	}
	for dst := 0; dst < meshNodes; dst++ {
		for queued := mem.Mids(model.NodeID(dst)); len(queued) > 0; queued = mem.Mids(model.NodeID(dst)) {
			deliver(dst, queued[len(queued)-1]) // newest first: maximal hold-back
		}
	}
	if held == 0 {
		t.Fatal("no frame was ever held back; the test exercised nothing")
	}
	for i := 1; i < meshNodes; i++ {
		if !slices.Equal(peers[i].CanonicalState(), peers[0].CanonicalState()) {
			t.Fatalf("node %d diverged from node 0", i)
		}
	}
}

// TestHistQuantileExact checks the histogram against exact nearest-rank
// quantiles: equal below 2·subCount, within half a bucket above.
func TestHistQuantileExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, limit := range []int64{2 * subCount, 1e9} {
		h := newHist()
		var vals []int64
		for i := 0; i < 5000; i++ {
			v := rng.Int63n(limit)
			vals = append(vals, v)
			h.record(v)
		}
		slices.Sort(vals)
		for _, q := range []float64{0.001, 0.25, 0.5, 0.9, 0.99, 1} {
			rank := int(q*float64(len(vals))+0.999999) - 1
			exact := vals[max(rank, 0)]
			got := h.quantile(q)
			_, width := bucketRange(bucketOf(exact))
			if d := got - exact; d < -width/2 || d > width/2 {
				t.Errorf("limit %d q %v: got %d, exact %d (bucket width %d)", limit, q, got, exact, width)
			}
			if limit == 2*subCount && got != exact {
				t.Errorf("q %v: got %d, want exactly %d", q, got, exact)
			}
		}
	}
	for i := 0; i < 100000; i++ {
		v := rng.Int63() >> uint(rng.Intn(63))
		lo, w := bucketRange(bucketOf(v))
		if v < lo || v-lo >= w || w*subCount > max(lo, subCount) {
			t.Fatalf("value %d landed in bucket [%d, %d)", v, lo, lo+w)
		}
	}
	if got := newHist().quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %d", got)
	}
}

// TestBlockQuantile checks the median-over-blocks rule, including the
// merging of blocks too sparse for a p99.
func TestBlockQuantile(t *testing.T) {
	b := newBlockHist()
	for blk := range b {
		for i := 0; i < minBlockSamples; i++ {
			b[blk].record(int64(blk)) // block k's every quantile is k
		}
	}
	if got := b.quantile(0.99); got != latencyBlocks/2 {
		t.Errorf("median over %d uniform blocks = %d, want %d", latencyBlocks, got, latencyBlocks/2)
	}
	sparse := newBlockHist()
	for blk := range sparse {
		for i := 0; i < minBlockSamples/5; i++ {
			sparse[blk].record(int64(10 * blk))
		}
	}
	// Blocks merge five at a time into three groups with p50s 20, 70, 120.
	if got := sparse.quantile(0.5); got != 70 {
		t.Errorf("sparse blocks: median = %d, want 70", got)
	}
}

// TestScripts checks that a seed always produces the same op script, that
// seeds differ, and that no scripted operation trips ErrAssume — whether a
// replica has seen none of the other replicas' operations or all of them.
func TestScripts(t *testing.T) {
	for _, name := range workloadNames[:3] {
		w := meshWorkloads[name]
		w.ops = 3000
		if w.preload > 0 {
			w.preload = 300
		}
		a, b := w.script(7), w.script(7)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: seed 7 produced two different scripts", name)
		}
		if reflect.DeepEqual(a.ops, w.script(8).ops) {
			t.Fatalf("%s: seeds 7 and 8 produced the same script", name)
		}
		for _, sees := range []string{"own", "all"} {
			replayScript(t, name+"/"+sees, w, a, sees == "all")
		}
	}
}

// replayScript runs a script's Prepare/Apply sequentially: each replica
// applies its own effectors, and with all set every other replica's too.
func replayScript(t *testing.T, name string, w meshWorkload, sc *script, all bool) {
	t.Helper()
	objs := make([]crdt.Object, len(w.cfg.kinds)+1)
	states := make([][]crdt.State, meshNodes)
	for j, k := range w.cfg.kinds {
		alg, _ := registry.ByName(k)
		objs[j+1] = alg.New()
	}
	for i := range states {
		states[i] = make([]crdt.State, len(objs))
		for j := 1; j < len(objs); j++ {
			states[i][j] = objs[j].Init()
		}
	}
	mid := model.MsgID(0)
	for _, so := range append(slices.Clone(sc.preload), sc.ops...) {
		mid++
		op := sc.op(so)
		_, eff, err := objs[so.obj].Prepare(op, states[so.node][so.obj], model.NodeID(so.node), mid)
		if errors.Is(err, crdt.ErrAssume) {
			t.Fatalf("%s: %s at node %d object %d trips its assume precondition", name, op, so.node, so.obj)
		}
		if err != nil {
			t.Fatalf("%s: %s: %v", name, op, err)
		}
		for i := range states {
			if i == int(so.node) || all {
				states[i][so.obj] = eff.Apply(states[i][so.obj])
			}
		}
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric names and units the
// program reports in step with BENCHMARK.json.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: program reports %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: program %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
}

// TestRunRefusesOtherLengths checks that -seconds takes only the length the
// fixed op counts are sized for, so no run can measure different work.
func TestRunRefusesOtherLengths(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-workload", "edit", "-seconds", "5"}, &out, &out); code != 2 {
		t.Errorf("-seconds 5: exit code %d, want 2", code)
	}
}

// TestQuartilesMatchPython pins the spread computation to Python's
// statistics.quantiles(n=4), which the benchmark's acceptance uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
