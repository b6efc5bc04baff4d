package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/crdts/registry"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// checkAlg is one corpus algorithm with the checker inputs built once.
type checkAlg struct {
	alg    registry.Algorithm
	steps  int
	causal bool
	p      core.Problem
}

// corpusTrace is one simulator trace to check.
type corpusTrace struct {
	alg int // index into the run's checkAlgs
	tr  trace.Trace
}

func verifyCheckAlgs() []checkAlg {
	var out []checkAlg
	for _, v := range verifyAlgs {
		alg, _ := registry.ByName(v.name)
		out = append(out, checkAlg{alg: alg, steps: v.steps, causal: v.causal,
			p: core.Problem{Object: alg.New(), Spec: alg.Spec, Abs: alg.Abs}})
	}
	return out
}

// genCorpus simulates n 3-node executions, cycling through the algorithms,
// each from a simulator seed drawn from seed. Every trace is drained to
// quiescence, so convergence is decided on complete executions.
func genCorpus(algs []checkAlg, seed int64, n int, tr *tracer) []corpusTrace {
	rng := rand.New(rand.NewSource(seed))
	out := make([]corpusTrace, n)
	for i := range out {
		ca := algs[i%len(algs)]
		a := ca.alg
		w := sim.Workload{
			Object: a.New(), Abs: a.Abs, Gen: sim.GenFunc(a.GenOp),
			Nodes: meshNodes, Steps: ca.steps, Causal: ca.causal, FinalDrain: true,
		}
		var t0 int64
		if tr != nil {
			t0 = tr.clk.now()
		}
		out[i] = corpusTrace{alg: i % len(algs), tr: w.Run(rng.Int63()).Trace()}
		if tr != nil {
			tr.gen.standalone(spanTraceGen, 0, 0, int64(i), t0, tr.clk.now(), len(out[i].tr))
		}
	}
	return out
}

// runVerify decides ACC (UCR algorithms) or XACC (X-wins) plus convergence
// on every trace of an n-trace corpus, one trace at a time. An operation
// here is one trace checked: invoke_* times the witness decision and
// visible_* the whole verdict, both from when the check was due (closed
// loop: when the previous verdict returned). Like a mesh run it generates
// the corpus setupRepeats times, checking the first and timing them all.
func runVerify(n int, o runOpts) (*outcome, error) {
	algs := verifyCheckAlgs()
	clk := newClock()
	var tr *tracer
	if o.trace {
		tr = newTracer(clk, 1, 1, 1)
		tr.on.Store(true)
	}
	out := &outcome{attempted: n}
	runtime.GC()
	t0 := time.Now()
	corpus := genCorpus(algs, o.seed, n, tr)
	out.setups = append(out.setups, time.Since(t0))

	out.invoke, out.visible, out.late = newBlockHist(), newBlockHist(), newHist()
	res0 := sampleResources()
	start := clk.now()
	for i, c := range corpus {
		a := algs[c.alg]
		t0 := clk.now()
		var res core.Result
		var err error
		name := spanACC
		if a.alg.IsX() {
			name = spanXACC
			res, err = core.CheckXACCWitness(c.tr, core.XProblem{Problem: a.p, XSpec: a.alg.XSpec})
		} else {
			res, err = core.CheckACCWitness(c.tr, a.p, a.alg.TSOrder)
		}
		t1 := clk.now()
		cvErr := core.CheckConvergenceFrom(c.tr, a.alg.New().Init(), a.alg.Abs)
		t2 := clk.now()
		out.invoke[blockOf(i, n)].record(t1 - t0)
		out.visible[blockOf(i, n)].record(t2 - t0)
		if tr != nil {
			tr.gen.standalone(name, 0, transport.ObjID(c.alg), int64(i), t0, t1, len(c.tr))
			tr.gen.standalone(spanCvT, 0, transport.ObjID(c.alg), int64(i), t1, t2, len(c.tr))
		}
		switch {
		case err != nil:
			out.fail(fmt.Errorf("%s trace %d: %w", a.alg.Name, i, err))
		case !res.OK:
			out.fail(fmt.Errorf("%s trace %d: witness failed: %s", a.alg.Name, i, res.Reason))
		case cvErr != nil:
			out.fail(fmt.Errorf("%s trace %d: %w", a.alg.Name, i, cvErr))
		default:
			out.completed++
		}
	}
	out.window = clk.now() - start
	out.res = sampleResources().since(res0)
	out.liveHeap = liveHeap()

	// The corpus's bytes on the wire: each effectful operation's effector as
	// the checksummed frame the simulator and the sockets ship.
	for _, c := range corpus {
		for _, e := range c.tr {
			if e.IsOrigin && !e.IsQuery() {
				out.wireBytes += int64(len(codec.AppendFrame(nil, e.Eff.AppendBinary(nil))))
				out.effectful++
			}
		}
	}
	if tr != nil {
		out.spans = tr.allSpans()
		out.layer = spanMetrics(out.spans)
	}

	for r := 1; r < setupRepeats; r++ {
		runtime.GC()
		t0 := time.Now()
		genCorpus(algs, o.seed, n, nil)
		out.setups = append(out.setups, time.Since(t0))
	}
	return out, nil
}
