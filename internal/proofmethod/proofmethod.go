// Package proofmethod implements CRDT-TS, the paper's generic proof method
// for verifying ACC of UCR-CRDT implementations (Sec 8, Theorem 8). The user
// supplies the timestamp order ↣ over effectors and the view function V from
// replica states to applied effectors; the method then discharges four
// families of proof obligations. The paper's obligations are first-order
// formulae over states and effectors — no trace induction — so they are
// discharged here by systematic property checking over the reachable states
// and effectors of randomized executions:
//
//  1. Commutative effectors — all generated effectors commute pairwise.
//  2. Same return value — Prepare and Γ agree on results at φ-related states.
//  3. State correspondence — a valid effector (one that ↣ does not order
//     before anything in V(S)) and its abstract operation lead φ-related
//     states to φ-related states.
//  4. Well-formedness of ↣ and V — ↣ is a strict partial order that relates
//     the effectors of all conflicting operations; V(init) is empty; V(S)
//     only reports effectors actually applied; and freshly generated
//     effectors are valid at their origin.
//
// Theorem 8 (CRDT-TS ⇒ ACC) is exercised end-to-end by the witness-mode ACC
// checker in internal/core, which constructs arbitration orders from the
// same ↣.
package proofmethod

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/crdt"
	"repro/internal/crdts/registry"
	"repro/internal/model"
	"repro/internal/sim"
)

// Config bounds the sampling effort.
type Config struct {
	// Seeds is the number of randomized executions to sample (default 6).
	Seeds int
	// Steps is the scheduler steps per execution (default 40).
	Steps int
}

const (
	// nodes is the cluster size of every sampled execution.
	nodes = 3
	// maxPairs caps the number of effector pairs checked per obligation per
	// execution.
	maxPairs = 4000
)

func (c Config) withDefaults() Config {
	if c.Seeds == 0 {
		c.Seeds = 6
	}
	if c.Steps == 0 {
		c.Steps = 40
	}
	return c
}

// Obligation is one checked proof obligation.
type Obligation struct {
	Name    string
	Checked int   // number of instances examined
	Err     error // first violation, if any
}

// Report is the outcome of running CRDT-TS for one algorithm.
type Report struct {
	Algorithm   string
	Obligations []Obligation
}

// Err returns the first violated obligation's error, or nil.
func (r Report) Err() error {
	for _, o := range r.Obligations {
		if o.Err != nil {
			return fmt.Errorf("%s: obligation %q: %w", r.Algorithm, o.Name, o.Err)
		}
	}
	return nil
}

// String renders the report as a table row block.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n", r.Algorithm)
	for _, o := range r.Obligations {
		status := "ok"
		if o.Err != nil {
			status = "FAIL: " + o.Err.Error()
		}
		fmt.Fprintf(&b, "  %-24s %6d checked  %s\n", o.Name, o.Checked, status)
	}
	return b.String()
}

// sample is the execution evidence the obligations quantify over.
type sample struct {
	// states are reachable replica states, deduplicated by Key.
	states []crdt.State
	// effs are the distinct effectors generated, with their operations.
	effs []effSample
	// originPairs pairs each origin event's effector with the origin
	// replica state immediately before the operation ran.
	originPairs []originSample
}

type effSample struct {
	op  model.Op
	eff crdt.Effector
}

type originSample struct {
	op     model.Op
	eff    crdt.Effector
	before crdt.State
	ret    model.Value
}

// collect replays one randomized execution and gathers states, effectors and
// origin pairs.
func collect(alg registry.Algorithm, seed int64, cfg Config) sample {
	w := sim.Workload{
		Object: alg.New(),
		Abs:    alg.Abs,
		Gen:    sim.GenFunc(alg.GenOp),
		Nodes:  nodes,
		Steps:  cfg.Steps,
		Causal: alg.NeedsCausal,
	}
	c := w.Run(seed)
	tr := c.Trace()
	obj := alg.New()

	var out sample
	seenState := map[string]bool{}
	addState := func(s crdt.State) {
		if k := s.Key(); !seenState[k] {
			seenState[k] = true
			out.states = append(out.states, s)
		}
	}
	seenEff := map[string]bool{}
	states := map[model.NodeID]crdt.State{}
	for _, t := range tr.Nodes() {
		states[t] = obj.Init()
		addState(states[t])
	}
	for _, e := range tr {
		before := states[e.Node]
		if e.IsOrigin {
			out.originPairs = append(out.originPairs, originSample{op: e.Op, eff: e.Eff, before: before, ret: e.Ret})
		}
		if !e.IsQuery() {
			if k := e.Eff.String(); !seenEff[k] {
				seenEff[k] = true
				out.effs = append(out.effs, effSample{op: e.Op, eff: e.Eff})
			}
		}
		states[e.Node] = e.Eff.Apply(before)
		addState(states[e.Node])
	}
	return out
}

// valid reports whether δ is valid at state S: ↣ does not order δ before any
// effector in V(S).
func valid(alg registry.Algorithm, d crdt.Effector, s crdt.State) bool {
	for _, applied := range alg.View(s) {
		if alg.TSOrder(d, applied) {
			return false
		}
	}
	return true
}

// Check runs the CRDT-TS obligations for one UCR algorithm.
func Check(alg registry.Algorithm, cfg Config) Report {
	cfg = cfg.withDefaults()
	if alg.IsX() {
		return Report{Algorithm: alg.Name, Obligations: []Obligation{{
			Name: "applicability",
			Err:  errors.New("CRDT-TS applies to UCR algorithms only; X-wins algorithms are verified against XACC"),
		}}}
	}
	var samples []sample
	for seed := int64(1); seed <= int64(cfg.Seeds); seed++ {
		samples = append(samples, collect(alg, seed, cfg))
	}
	report := Report{Algorithm: alg.Name}
	add := func(name string, checked int, err error) {
		report.Obligations = append(report.Obligations, Obligation{Name: name, Checked: checked, Err: err})
	}
	add(checkCommutativity(alg, samples))
	add(checkSameReturn(alg, samples))
	add(checkStateCorrespondence(alg, samples))
	add(checkTSOrderStrict(alg, samples))
	add(checkConflictCoverage(alg, samples))
	add(checkViewSound(alg))
	add(checkFreshValid(alg, samples))
	return report
}

// CheckAll runs the proof method for all seven UCR algorithms of Sec 8.
func CheckAll(cfg Config) []Report {
	var out []Report
	for _, alg := range registry.UCR() {
		out = append(out, Check(alg, cfg))
	}
	return out
}

// checkCommutativity: obligation 1 — every pair of generated effectors
// commutes on every sampled state.
func checkCommutativity(alg registry.Algorithm, samples []sample) (string, int, error) {
	checked := 0
	for _, sm := range samples {
		pairs := 0
		for i, d1 := range sm.effs {
			for _, d2 := range sm.effs[i:] {
				if pairs >= maxPairs {
					break
				}
				pairs++
				for _, s := range sm.states {
					checked++
					a := d2.eff.Apply(d1.eff.Apply(s))
					b := d1.eff.Apply(d2.eff.Apply(s))
					if a.Key() != b.Key() {
						return "commutative effectors", checked, fmt.Errorf(
							"effectors %s and %s do not commute on state %s", d1.eff, d2.eff, s.Key())
					}
				}
			}
		}
	}
	return "commutative effectors", checked, nil
}

// checkSameReturn: obligation 2 — at every sampled state where an operation's
// precondition holds, Prepare's return value equals Γ's at the φ-related
// abstract state.
func checkSameReturn(alg registry.Algorithm, samples []sample) (string, int, error) {
	obj := alg.New()
	checked := 0
	for _, sm := range samples {
		for _, os := range sm.originPairs {
			for _, s := range sm.states {
				ret, _, err := obj.Prepare(os.op, s, 0, 1<<20)
				if err != nil {
					continue // precondition fails here; obligation does not apply
				}
				checked++
				wantRet, _ := alg.Spec.Apply(os.op, alg.Abs(s))
				if !ret.Equal(wantRet) {
					return "same return value", checked, fmt.Errorf(
						"%s at state %s returns %s concretely but %s abstractly", os.op, s.Key(), ret, wantRet)
				}
			}
		}
	}
	return "same return value", checked, nil
}

// checkStateCorrespondence: obligation 3 — applying a valid effector and the
// corresponding abstract operation preserves φ-relatedness.
func checkStateCorrespondence(alg registry.Algorithm, samples []sample) (string, int, error) {
	checked := 0
	for _, sm := range samples {
		n := 0
		for _, es := range sm.effs {
			for _, s := range sm.states {
				if n >= maxPairs {
					break
				}
				n++
				if !valid(alg, es.eff, s) {
					continue
				}
				checked++
				got := alg.Abs(es.eff.Apply(s))
				_, want := alg.Spec.Apply(es.op, alg.Abs(s))
				if !got.Equal(want) {
					return "state correspondence", checked, fmt.Errorf(
						"valid effector %s of %s at state %s yields %s, abstract op yields %s",
						es.eff, es.op, s.Key(), got, want)
				}
			}
		}
	}
	return "state correspondence", checked, nil
}

// checkTSOrderStrict: well-formedness — ↣ is irreflexive, antisymmetric, and
// acyclic on the sampled effectors (its transitive closure is then a strict
// partial order; the raw relation need not be transitive — the paper's own
// RGA instance has Add ↣ Add ↣ Rmv chains whose endpoints are unrelated).
func checkTSOrderStrict(alg registry.Algorithm, samples []sample) (string, int, error) {
	checked := 0
	for _, sm := range samples {
		effs := sm.effs
		for i, a := range effs {
			if alg.TSOrder(a.eff, a.eff) {
				return "↣ strict partial order", checked, fmt.Errorf("↣ is reflexive on %s", a.eff)
			}
			for _, b := range effs[i+1:] {
				checked++
				if alg.TSOrder(a.eff, b.eff) && alg.TSOrder(b.eff, a.eff) {
					return "↣ strict partial order", checked, fmt.Errorf("↣ is symmetric on %s, %s", a.eff, b.eff)
				}
			}
		}
		// Acyclicity via iterative DFS three-colouring.
		n := len(effs)
		adj := make([][]int, n)
		for i := range effs {
			for j := range effs {
				if i != j && alg.TSOrder(effs[i].eff, effs[j].eff) {
					adj[i] = append(adj[i], j)
				}
			}
		}
		color := make([]int, n) // 0 white, 1 grey, 2 black
		var stack []int
		for root := 0; root < n; root++ {
			if color[root] != 0 {
				continue
			}
			stack = append(stack[:0], root)
			for len(stack) > 0 {
				i := stack[len(stack)-1]
				if color[i] == 0 {
					color[i] = 1
				}
				advanced := false
				for _, j := range adj[i] {
					checked++
					if color[j] == 1 {
						return "↣ strict partial order", checked, fmt.Errorf(
							"↣ is cyclic through %s and %s", effs[i].eff, effs[j].eff)
					}
					if color[j] == 0 {
						stack = append(stack, j)
						advanced = true
						break
					}
				}
				if !advanced {
					color[i] = 2
					stack = stack[:len(stack)-1]
				}
			}
		}
	}
	return "↣ strict partial order", checked, nil
}

// checkConflictCoverage: well-formedness — the effectors of conflicting
// operations are always ↣-comparable, so all nodes arbitrate them alike.
func checkConflictCoverage(alg registry.Algorithm, samples []sample) (string, int, error) {
	checked := 0
	for _, sm := range samples {
		n := 0
		for i, a := range sm.effs {
			for _, b := range sm.effs[i+1:] {
				if n >= maxPairs {
					break
				}
				n++
				if !alg.Spec.Conflict(a.op, b.op) {
					continue
				}
				checked++
				if !alg.TSOrder(a.eff, b.eff) && !alg.TSOrder(b.eff, a.eff) {
					return "⊲⊳ covered by ↣", checked, fmt.Errorf(
						"conflicting %s and %s have ↣-incomparable effectors %s, %s", a.op, b.op, a.eff, b.eff)
				}
			}
		}
	}
	return "⊲⊳ covered by ↣", checked, nil
}

// checkViewSound: well-formedness — V(init) is empty, and replaying any
// local trace, V(S) only ever reports effectors that were actually applied.
func checkViewSound(alg registry.Algorithm) (string, int, error) {
	obj := alg.New()
	if view := alg.View(obj.Init()); len(view) != 0 {
		return "V sound", 1, fmt.Errorf("V(init) = %v, want empty", view)
	}
	checked := 1
	w := sim.Workload{
		Object: alg.New(),
		Abs:    alg.Abs,
		Gen:    sim.GenFunc(alg.GenOp),
		Nodes:  nodes,
		Steps:  40,
		Causal: alg.NeedsCausal,
	}
	c := w.Run(99)
	tr := c.Trace()
	for _, t := range tr.Nodes() {
		applied := map[string]bool{}
		s := obj.Init()
		for _, e := range tr.Restrict(t) {
			applied[e.Eff.String()] = true
			s = e.Eff.Apply(s)
			for _, d := range alg.View(s) {
				checked++
				if !applied[d.String()] {
					return "V sound", checked, fmt.Errorf(
						"V reports %s at node %s, which was never applied", d, t)
				}
			}
		}
	}
	return "V sound", checked, nil
}

// checkFreshValid: well-formedness — an effector generated at state S is
// valid at S (↣ never orders it before something already applied there).
func checkFreshValid(alg registry.Algorithm, samples []sample) (string, int, error) {
	checked := 0
	for _, sm := range samples {
		for _, os := range sm.originPairs {
			if crdt.IsIdentity(os.eff) {
				continue
			}
			checked++
			if !valid(alg, os.eff, os.before) {
				return "fresh effectors valid", checked, fmt.Errorf(
					"fresh effector %s is invalid at its origin state %s", os.eff, os.before.Key())
			}
		}
	}
	return "fresh effectors valid", checked, nil
}
