// Client-verify machine-checks the paper's motivating client proof (Figs 9
// and 12) with the rely-guarantee logic of Sec 7, then cross-validates the
// verified postcondition by exhaustively model-checking the same client
// against the abstract machine of Sec 6 AND against the concrete RGA
// implementation — the two sides that the Abstraction Theorem connects.
package main

import (
	"fmt"
	"log"

	"repro/internal/crdts/registry"
	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/model"
	"repro/internal/refine"
	"repro/internal/spec"
)

const clientSrc = `
node t1 { addAfter("a", "b"); x := read(); }
node t2 { u := read(); if ("b" in u) { addAfter("a", "c"); } }
node t3 { v := read(); if ("c" in v) { addAfter("c", "d"); } y := read(); }`

func main() {
	prog := lang.MustParse(clientSrc)
	fmt.Println("the Fig 9 client of the list CRDT (initial list: a):")
	fmt.Println(clientSrc)

	// ------------------------------------------------------------------
	// 1. The rely-guarantee proof of Fig 12.
	// ------------------------------------------------------------------
	alphaB := logic.Act(0, spec.OpAddAfter, model.Pair(model.Str("a"), model.Str("b")))
	alphaC := logic.Act(1, spec.OpAddAfter, model.Pair(model.Str("a"), model.Str("c")))
	alphaD := logic.Act(2, spec.OpAddAfter, model.Pair(model.Str("c"), model.Str("d")))
	g1 := logic.RG{{Issues: alphaB}}                                   // true ; [α_b]
	g2 := logic.RG{{Requires: []logic.Action{alphaB}, Issues: alphaC}} // ⌈α_b⌉ ; [α_c]
	g3 := logic.RG{{Requires: []logic.Action{alphaC}, Issues: alphaD}} // ⌈α_c⌉ ; [α_d]

	post1 := parseExpr(`!("d" in x) || (s == x && x == ["a","c","d","b"])`)
	post3 := parseExpr(`!(s == ["a","c","d","b"]) || (y == s || y == ["a","c","d"])`)

	pf := logic.Proof{
		Ctx:  logic.Ctx{Spec: spec.ListSpec{}},
		Init: model.List(model.Str("a")),
		Threads: []logic.ThreadProof{
			{Thread: prog.Threads[0], R: append(append(logic.RG{}, g2...), g3...), G: g1, Post: post1},
			{Thread: prog.Threads[1], R: append(append(logic.RG{}, g1...), g3...), G: g2},
			{Thread: prog.Threads[2], R: append(append(logic.RG{}, g1...), g2...), G: g3, Post: post3},
		},
	}
	if err := pf.Check(); err != nil {
		log.Fatalf("Fig 12 proof REJECTED: %v", err)
	}
	fmt.Println("① rely-guarantee proof (Fig 12) checked:")
	fmt.Println("   G_t1 = true ; [α_b]     G_t2 = ⌈α_b⌉ ; [α_c]     G_t3 = ⌈α_c⌉ ; [α_d]")
	fmt.Println("   ⊢ { s = a } C1 ∥ C2 ∥ C3 { d∈x ⇒ s=x=acdb  ∧  s=acdb ⇒ (y=s ∨ y=acd) }")

	// ------------------------------------------------------------------
	// 2. Cross-validation by model checking (the soundness of the logic is
	//    stated w.r.t. the abstract semantics; the Abstraction Theorem
	//    transfers it to the concrete implementation).
	// ------------------------------------------------------------------
	alg := registry.RGA()
	initOps := []model.Op{{Name: spec.OpAddAfter, Arg: model.Pair(spec.Sentinel, model.Str("a"))}}
	for _, side := range []struct {
		name string
		mk   func() refine.Runtime
	}{
		{"abstract machine (Sec 6)", func() refine.Runtime {
			rt := refine.NewAbstract(alg, 3)
			mustSetup(rt, initOps)
			return rt
		}},
		{"concrete RGA cluster", func() refine.Runtime {
			rt := refine.NewConcrete(alg, 3)
			mustSetup(rt, initOps)
			return rt
		}},
	} {
		behaviors, err := refine.Explorer{MaxStates: 500000}.Behaviors(prog, side.mk)
		if err != nil {
			log.Fatal(err)
		}
		violations := 0
		for _, b := range behaviors {
			x, y := b.Envs[0]["x"], b.Envs[2]["y"]
			if x.Contains(model.Str("d")) {
				acdb := model.List(model.Str("a"), model.Str("c"), model.Str("d"), model.Str("b"))
				acd := model.List(model.Str("a"), model.Str("c"), model.Str("d"))
				if !x.Equal(acdb) || (!y.Equal(x) && !y.Equal(acd)) {
					violations++
				}
			}
		}
		fmt.Printf("② model-checked %d terminated behaviours on the %s: %d postcondition violations\n",
			len(behaviors), side.name, violations)
		if violations > 0 {
			log.Fatal("the verified postcondition was violated — soundness bug!")
		}
	}
	fmt.Println("\nthe proof and the model checker agree: verification at the abstract level")
	fmt.Println("is sound for clients of the concrete implementation (Abstraction Theorem)")
}

func parseExpr(src string) lang.Expr {
	prog := lang.MustParse("node t { p := " + src + "; }")
	return prog.Threads[0].Body[0].(lang.Assign).E
}

func mustSetup(rt refine.Runtime, ops []model.Op) {
	for _, op := range ops {
		if _, err := rt.Invoke(0, op); err != nil {
			log.Fatal(err)
		}
	}
	for {
		chs := rt.Choices()
		if len(chs) == 0 {
			return
		}
		if err := rt.Apply(chs[0]); err != nil {
			log.Fatal(err)
		}
	}
}
