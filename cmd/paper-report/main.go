// Command paper-report reruns every experiment of the reproduction in one
// shot and prints a PASS/FAIL table — the per-experiment index of DESIGN.md
// as an executable artifact:
//
//	go run ./cmd/paper-report
package main

import (
	"fmt"
	"math/big"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/crdts/cseq"
	"repro/internal/crdts/registry"
	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/model"
	"repro/internal/proofmethod"
	"repro/internal/refine"
	"repro/internal/sim"
	"repro/internal/spec"
)

type experiment struct {
	id    string
	claim string
	run   func() error
}

func main() {
	experiments := []experiment{
		{"E-Fig2", "RGA tree reads acdb", fig2},
		{"E-Fig3a", "concurrent inserts read acb; ACC holds", fig3a},
		{"E-Fig4", "cseq reads apqced; per-node orders differ", fig4},
		{"E-Fig5", "add-wins survives; Fig 5(b) needs XACC, not ACC", fig5},
		{"E-Sec2.5", "the client separates aw from rw/lww sets", sec25},
		{"E-Fig9/12", "the rely-guarantee client proof checks", fig12},
		{"E-Thm7", "Π ⊑φ (Γ,⊲⊳) for all nine algorithms", thm7},
		{"E-Lem5", "randomized traces satisfy consistency + SEC", lem5},
		{"E-Sec8", "seven UCR algorithms pass CRDT-TS", sec8},
		{"E-FW1", "X-wins client logic proves the done-flag post", fw1},
	}
	failed := 0
	for _, e := range experiments {
		start := time.Now()
		err := e.run()
		status := "PASS"
		if err != nil {
			status = "FAIL: " + err.Error()
			failed++
		}
		fmt.Printf("%-10s %-50s %8s  %s\n", e.id, e.claim, time.Since(start).Round(time.Millisecond), status)
	}
	if failed > 0 {
		fmt.Printf("\n%d experiment(s) failed\n", failed)
		os.Exit(1)
	}
	fmt.Printf("\nall %d experiments reproduce\n", len(experiments))
}

func addAfter(a, b string) model.Op {
	anchor := model.Str(a)
	if anchor.Equal(spec.Sentinel) {
		anchor = spec.Sentinel
	}
	return model.Op{Name: spec.OpAddAfter, Arg: model.Pair(anchor, model.Str(b))}
}

func invoke(c *sim.Cluster, n model.NodeID, op model.Op) (model.Value, model.MsgID, error) {
	return c.Invoke(n, op)
}

func fig2() error {
	alg := registry.RGA()
	c := sim.NewCluster(alg.New(), 1)
	for _, op := range []model.Op{
		addAfter("◦", "a"), addAfter("a", "e"), addAfter("a", "b"),
		addAfter("a", "c"), addAfter("c", "d"),
		{Name: spec.OpRemove, Arg: model.Str("e")},
	} {
		if _, _, err := invoke(c, 0, op); err != nil {
			return err
		}
	}
	ret, _, err := invoke(c, 0, model.Op{Name: spec.OpRead})
	if err != nil {
		return err
	}
	want := model.List(model.Str("a"), model.Str("c"), model.Str("d"), model.Str("b"))
	if !ret.Equal(want) {
		return fmt.Errorf("read %s, want acdb", ret)
	}
	return nil
}

func fig3a() error {
	alg := registry.RGA()
	c := sim.NewCluster(alg.New(), 2)
	_, mA, _ := invoke(c, 0, addAfter("◦", "a"))
	if err := c.Deliver(1, mA); err != nil {
		return err
	}
	_, mB, _ := invoke(c, 0, addAfter("a", "b"))
	_, mC, _ := invoke(c, 1, addAfter("a", "c"))
	if err := c.Deliver(1, mB); err != nil {
		return err
	}
	if err := c.Deliver(0, mC); err != nil {
		return err
	}
	want := model.List(model.Str("a"), model.Str("c"), model.Str("b"))
	for n := model.NodeID(0); n < 2; n++ {
		ret, _, _ := invoke(c, n, model.Op{Name: spec.OpRead})
		if !ret.Equal(want) {
			return fmt.Errorf("node %s read %s, want acb", n, ret)
		}
	}
	res, err := core.CheckACC(c.Trace(), core.Problem{Object: alg.New(), Spec: alg.Spec, Abs: alg.Abs})
	if err != nil {
		return err
	}
	if !res.OK {
		return fmt.Errorf("ACC: %s", res.Reason)
	}
	return nil
}

func fig4() error {
	chosen := map[model.MsgID]*big.Rat{
		3: big.NewRat(-2, 1), 4: big.NewRat(5, 1),
		5: big.NewRat(4, 1), 6: big.NewRat(-1, 1),
	}
	obj := cseq.NewWithChooser(func(lo, hi *big.Rat, origin model.NodeID, mid model.MsgID) *big.Rat {
		if r, ok := chosen[mid]; ok {
			return r
		}
		return cseq.Midpoint(lo, hi, origin, mid)
	})
	alg := registry.CSeq()
	c := sim.NewCluster(obj, 2)
	_, mA, _ := invoke(c, 0, addAfter("◦", "a"))
	_ = c.Deliver(1, mA)
	_, mC, _ := invoke(c, 0, addAfter("a", "c"))
	_ = c.Deliver(1, mC)
	_, m1, _ := invoke(c, 0, addAfter("a", "p"))
	_, m2, _ := invoke(c, 0, addAfter("c", "d"))
	_, m3, _ := invoke(c, 1, addAfter("c", "e"))
	_, m4, _ := invoke(c, 1, addAfter("a", "q"))
	for _, d := range []struct {
		n model.NodeID
		m model.MsgID
	}{{1, m1}, {1, m2}, {0, m3}, {0, m4}} {
		if err := c.Deliver(d.n, d.m); err != nil {
			return err
		}
	}
	want := model.List(model.Str("a"), model.Str("p"), model.Str("q"),
		model.Str("c"), model.Str("e"), model.Str("d"))
	ret, _, _ := invoke(c, 0, model.Op{Name: spec.OpRead})
	if !ret.Equal(want) {
		return fmt.Errorf("read %s, want apqced", ret)
	}
	res, err := core.CheckACC(c.Trace(), core.Problem{Object: obj, Spec: alg.Spec, Abs: alg.Abs})
	if err != nil {
		return err
	}
	if !res.OK {
		return fmt.Errorf("ACC: %s", res.Reason)
	}
	return nil
}

func fig5() error {
	alg := registry.AWSet()
	c := sim.NewCluster(alg.New(), 2, sim.WithCausalDelivery())
	add0 := model.Op{Name: spec.OpAdd, Arg: model.Int(0)}
	rmv0 := model.Op{Name: spec.OpRemove, Arg: model.Int(0)}
	_, m1, _ := invoke(c, 0, add0)
	_, m2, _ := invoke(c, 1, add0)
	_, m3, _ := invoke(c, 0, rmv0)
	_, m4, _ := invoke(c, 1, rmv0)
	for _, d := range []struct {
		n model.NodeID
		m model.MsgID
	}{{0, m2}, {0, m4}, {1, m1}, {1, m3}} {
		if err := c.Deliver(d.n, d.m); err != nil {
			return err
		}
	}
	p := core.XProblem{
		Problem: core.Problem{Object: alg.New(), Spec: alg.Spec, Abs: alg.Abs},
		XSpec:   alg.XSpec,
	}
	xres, err := core.CheckXACC(c.Trace(), p)
	if err != nil {
		return err
	}
	if !xres.OK {
		return fmt.Errorf("XACC: %s", xres.Reason)
	}
	ares, err := core.CheckACC(c.Trace(), p.Problem)
	if err != nil {
		return err
	}
	if ares.OK {
		return fmt.Errorf("plain ACC unexpectedly accepted Fig 5(b)")
	}
	return nil
}

func sec25() error {
	prog := lang.MustParse(`
		node t1 { add(0); remove(0); x := read(); }
		node t2 { add(0); remove(0); y := read(); }`)
	count := func(alg registry.Algorithm) (int, error) {
		behaviors, err := refine.Explorer{}.Behaviors(prog, func() refine.Runtime {
			return refine.NewConcrete(alg, 2)
		})
		if err != nil {
			return 0, err
		}
		n := 0
		for _, b := range behaviors {
			if b.Envs[0]["x"].Contains(model.Int(0)) && b.Envs[1]["y"].Contains(model.Int(0)) {
				n++
			}
		}
		return n, nil
	}
	aw, err := count(registry.AWSet())
	if err != nil {
		return err
	}
	rw, err := count(registry.RWSet())
	if err != nil {
		return err
	}
	lww, err := count(registry.LWWSet())
	if err != nil {
		return err
	}
	if aw == 0 || rw != 0 || lww != 0 {
		return fmt.Errorf("violations: aw=%d rw=%d lww=%d (want >0, 0, 0)", aw, rw, lww)
	}
	return nil
}

func fig12() error {
	prog := lang.MustParse(`
		node t1 { addAfter("a", "b"); x := read(); }
		node t2 { u := read(); if ("b" in u) { addAfter("a", "c"); } }
		node t3 { v := read(); if ("c" in v) { addAfter("c", "d"); } y := read(); }`)
	alphaB := logic.Act(0, spec.OpAddAfter, model.Pair(model.Str("a"), model.Str("b")))
	alphaC := logic.Act(1, spec.OpAddAfter, model.Pair(model.Str("a"), model.Str("c")))
	alphaD := logic.Act(2, spec.OpAddAfter, model.Pair(model.Str("c"), model.Str("d")))
	g1 := logic.RG{{Issues: alphaB}}
	g2 := logic.RG{{Requires: []logic.Action{alphaB}, Issues: alphaC}}
	g3 := logic.RG{{Requires: []logic.Action{alphaC}, Issues: alphaD}}
	post := parseExpr(`!(s == ["a","c","d","b"]) || (y == s || y == ["a","c","d"])`)
	pf := logic.Proof{
		Ctx:  logic.Ctx{Spec: spec.ListSpec{}},
		Init: model.List(model.Str("a")),
		Threads: []logic.ThreadProof{
			{Thread: prog.Threads[0], R: append(append(logic.RG{}, g2...), g3...), G: g1},
			{Thread: prog.Threads[1], R: append(append(logic.RG{}, g1...), g3...), G: g2},
			{Thread: prog.Threads[2], R: append(append(logic.RG{}, g1...), g2...), G: g3, Post: post},
		},
	}
	return pf.Check()
}

func thm7() error {
	clients := map[string]string{
		"counter":  `node t1 { inc(1); x := read(); } node t2 { dec(2); y := read(); }`,
		"register": `node t1 { write(1); x := read(); } node t2 { write(2); y := read(); }`,
		"g-set":    `node t1 { add("a"); x := lookup("b"); } node t2 { add("b"); y := lookup("a"); }`,
		"set":      `node t1 { add("a"); x := lookup("a"); } node t2 { remove("a"); y := lookup("a"); }`,
		"list": `node t1 { addAfter(sentinel, "a"); x := read(); }
		         node t2 { u := read(); if ("a" in u) { addAfter("a", "b"); } y := read(); }`,
	}
	for _, alg := range registry.All() {
		name := alg.Spec.Name()
		if name == "aw-set" || name == "rw-set" {
			name = "set"
		}
		prog, err := lang.Parse(clients[name])
		if err != nil {
			return err
		}
		res, err := refine.Check(alg, prog, refine.Explorer{})
		if err != nil {
			return fmt.Errorf("%s: %w", alg.Name, err)
		}
		if !res.OK {
			return fmt.Errorf("%s: refinement violated", alg.Name)
		}
	}
	return nil
}

func lem5() error {
	for _, alg := range registry.All() {
		for seed := int64(1); seed <= 5; seed++ {
			w := sim.Workload{
				Object: alg.New(), Abs: alg.Abs, Gen: sim.GenFunc(alg.GenOp),
				Nodes: 3, Steps: 30, Causal: alg.NeedsCausal,
			}
			tr := w.Run(seed).Trace()
			p := core.Problem{Object: alg.New(), Spec: alg.Spec, Abs: alg.Abs}
			var res core.Result
			var err error
			if alg.IsX() {
				res, err = core.CheckXACCWitness(tr, core.XProblem{Problem: p, XSpec: alg.XSpec})
			} else {
				res, err = core.CheckACCWitness(tr, p, alg.TSOrder)
			}
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", alg.Name, seed, err)
			}
			if !res.OK {
				return fmt.Errorf("%s seed %d: %s", alg.Name, seed, res.Reason)
			}
			if err := core.CheckConvergenceFrom(tr, alg.New().Init(), alg.Abs); err != nil {
				return fmt.Errorf("%s seed %d: %w", alg.Name, seed, err)
			}
		}
	}
	return nil
}

func sec8() error {
	for _, rep := range proofmethod.CheckAll(proofmethod.Config{Seeds: 3, Steps: 30}) {
		if err := rep.Err(); err != nil {
			return err
		}
	}
	return nil
}

func fw1() error {
	prog := lang.MustParse(`
		node t1 { add(0); remove(0); add("d1"); x := read(); }
		node t2 { add(0); remove(0); add("d2"); y := read(); }`)
	add1 := logic.Action{ID: "add1", Node: 0, Op: model.Op{Name: spec.OpAdd, Arg: model.Int(0)}}
	rmv1 := logic.Action{ID: "rmv1", Node: 0, Op: model.Op{Name: spec.OpRemove, Arg: model.Int(0)}}
	d1 := logic.Action{ID: "d1", Node: 0, Op: model.Op{Name: spec.OpAdd, Arg: model.Str("d1")}}
	add2 := logic.Action{ID: "add2", Node: 1, Op: model.Op{Name: spec.OpAdd, Arg: model.Int(0)}}
	rmv2 := logic.Action{ID: "rmv2", Node: 1, Op: model.Op{Name: spec.OpRemove, Arg: model.Int(0)}}
	d2 := logic.Action{ID: "d2", Node: 1, Op: model.Op{Name: spec.OpAdd, Arg: model.Str("d2")}}
	g1 := logic.RG{{Issues: add1}, {Requires: []logic.Action{add1}, Issues: rmv1}, {Requires: []logic.Action{rmv1}, Issues: d1}}
	g2 := logic.RG{{Issues: add2}, {Requires: []logic.Action{add2}, Issues: rmv2}, {Requires: []logic.Action{rmv2}, Issues: d2}}
	for _, xsp := range []spec.XSpec{spec.AWSetSpec{}, spec.RWSetSpec{}} {
		pf := logic.XProof{
			Ctx:  logic.XCtx{XSpec: xsp},
			Init: model.List(),
			Threads: []logic.ThreadProof{
				{Thread: prog.Threads[0], R: g2, G: g1, Post: parseExpr(`!("d2" in s) || !(0 in s)`)},
				{Thread: prog.Threads[1], R: g1, G: g2, Post: parseExpr(`!("d1" in s) || !(0 in s)`)},
			},
		}
		if err := pf.Check(); err != nil {
			return fmt.Errorf("%s: %w", xsp.Name(), err)
		}
	}
	return nil
}

func parseExpr(src string) lang.Expr {
	prog := lang.MustParse("node t { p := " + src + "; }")
	return prog.Threads[0].Body[0].(lang.Assign).E
}
