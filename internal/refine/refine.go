// Package refine implements contextual refinement Π ⊑φ (Γ, ⊲⊳) (Def 6) and
// the experiments around the Abstraction Theorem (Thm 7: ACC ⟺ ⊑φ).
//
// A client program (internal/lang) is executed exhaustively against two
// runtimes: the concrete replicated implementation (internal/sim) under all
// bounded schedules, and the abstract machine of Sec 6 (internal/absmachine)
// under all coherent insertion choices. Each terminated execution yields an
// observable behaviour — the per-thread sequences of operation calls with
// their return values plus the final client states, which is precisely the
// client-visible projection of the paper's (obsv_φ(⌊E⌋), σc). Refinement
// holds on the program iff every concrete behaviour also arises abstractly.
package refine

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/absmachine"
	"repro/internal/crdt"
	"repro/internal/crdts/registry"
	"repro/internal/lang"
	"repro/internal/model"
	"repro/internal/sim"
)

// Runtime abstracts over the concrete cluster and the abstract machine for
// exhaustive exploration.
type Runtime interface {
	// Invoke performs op at node t and returns its result. A crdt.ErrAssume
	// error marks the branch as blocked (the paper's assume has no
	// transition); any other error is fatal.
	Invoke(t model.NodeID, op model.Op) (model.Value, error)
	// Choices enumerates the currently possible delivery steps.
	Choices() []Choice
	// Apply performs one delivery choice.
	Apply(ch Choice) error
	// Clone branches the runtime.
	Clone() Runtime
	// Key canonically renders the object state for memoization.
	Key() string
}

// Choice is one delivery step: apply the in-flight operation MID at Node
// (inserting at sequence position Pos for the abstract machine; Pos is -1
// for the concrete runtime).
type Choice struct {
	Node model.NodeID
	MID  model.MsgID
	Pos  int
}

// ---------------------------------------------------------------------------
// Concrete runtime
// ---------------------------------------------------------------------------

// Concrete wraps a sim.Cluster as a Runtime.
type Concrete struct{ C *sim.Cluster }

// NewConcrete builds a concrete runtime for the algorithm with n nodes.
func NewConcrete(alg registry.Algorithm, n int) *Concrete {
	var opts []sim.Option
	if alg.NeedsCausal {
		opts = append(opts, sim.WithCausalDelivery())
	}
	return &Concrete{C: sim.NewCluster(alg.New(), n, opts...)}
}

// Invoke implements Runtime.
func (r *Concrete) Invoke(t model.NodeID, op model.Op) (model.Value, error) {
	ret, _, err := r.C.Invoke(t, op)
	return ret, err
}

// Choices implements Runtime.
func (r *Concrete) Choices() []Choice {
	var out []Choice
	for t := 0; t < r.C.N(); t++ {
		for _, mid := range r.C.Deliverable(model.NodeID(t)) {
			out = append(out, Choice{Node: model.NodeID(t), MID: mid, Pos: -1})
		}
	}
	return out
}

// Apply implements Runtime.
func (r *Concrete) Apply(ch Choice) error { return r.C.Deliver(ch.Node, ch.MID) }

// Clone implements Runtime.
func (r *Concrete) Clone() Runtime { return &Concrete{C: r.C.Clone()} }

// Key implements Runtime. The canonical binary rendering is the cluster's
// identity; equal configurations encode byte-equal.
func (r *Concrete) Key() string { return string(r.C.AppendBinary(nil)) }

// ---------------------------------------------------------------------------
// Abstract runtime
// ---------------------------------------------------------------------------

// Abstract wraps an absmachine.Machine as a Runtime.
type Abstract struct{ M *absmachine.Machine }

// NewAbstract builds the abstract runtime for the algorithm with n nodes,
// starting from φ(initial state). X-wins algorithms get the Sec 9 machine.
func NewAbstract(alg registry.Algorithm, n int) *Abstract {
	init := alg.Abs(alg.New().Init())
	if alg.IsX() {
		return &Abstract{M: absmachine.NewX(alg.XSpec, n, init)}
	}
	return &Abstract{M: absmachine.New(alg.Spec, n, init)}
}

// Invoke implements Runtime.
func (r *Abstract) Invoke(t model.NodeID, op model.Op) (model.Value, error) {
	ret, _ := r.M.Invoke(t, op)
	return ret, nil
}

// Choices implements Runtime.
func (r *Abstract) Choices() []Choice {
	var out []Choice
	for t := 0; t < r.M.N(); t++ {
		for _, mid := range r.M.Deliverable(model.NodeID(t)) {
			for _, pos := range r.M.InsertPositions(model.NodeID(t), mid) {
				out = append(out, Choice{Node: model.NodeID(t), MID: mid, Pos: pos})
			}
		}
	}
	return out
}

// Apply implements Runtime.
func (r *Abstract) Apply(ch Choice) error { return r.M.Receive(ch.Node, ch.MID, ch.Pos) }

// Clone implements Runtime.
func (r *Abstract) Clone() Runtime { return &Abstract{M: r.M.Clone()} }

// Key implements Runtime.
func (r *Abstract) Key() string { return r.M.Key() }

// ---------------------------------------------------------------------------
// Exhaustive behaviour enumeration
// ---------------------------------------------------------------------------

// Behavior is one terminated execution's client-observable outcome: the
// per-thread call/return histories, final environments, and failures.
type Behavior struct {
	Names     []string
	Histories [][]string
	Envs      []lang.Env
	Errs      []string // "" for threads that terminated normally
}

// Key renders the behaviour canonically.
func (b Behavior) Key() string {
	var parts []string
	for i := range b.Names {
		entry := fmt.Sprintf("%s: [%s] env%s", b.Names[i],
			strings.Join(b.Histories[i], "; "), b.Envs[i].Key())
		if b.Errs[i] != "" {
			entry += " FAILED(" + b.Errs[i] + ")"
		}
		parts = append(parts, entry)
	}
	return strings.Join(parts, " ∥ ")
}

// ErrBudget is returned when exploration exceeds the configured state budget.
var ErrBudget = errors.New("refine: exploration exceeded the state budget")

// Explorer enumerates the behaviours of a program over a runtime.
type Explorer struct {
	// MaxStates bounds the number of distinct explored states (default 200k).
	MaxStates int
}

type exploreState struct {
	rt      Runtime
	threads []*lang.ThreadState
}

func (s exploreState) key() string {
	var b strings.Builder
	b.WriteString(s.rt.Key())
	for _, ts := range s.threads {
		b.WriteByte('#')
		b.WriteString(ts.Key())
	}
	return b.String()
}

func (s exploreState) clone() exploreState {
	out := exploreState{rt: s.rt.Clone()}
	for _, ts := range s.threads {
		out.threads = append(out.threads, ts.Clone())
	}
	return out
}

// Behaviors exhaustively enumerates the terminated behaviours of prog over
// the runtime produced by newRuntime.
func (e Explorer) Behaviors(prog lang.Program, newRuntime func() Runtime) (map[string]Behavior, error) {
	maxStates := e.MaxStates
	if maxStates == 0 {
		maxStates = 200000
	}
	out := map[string]Behavior{}
	seen := map[string]bool{}
	init := exploreState{rt: newRuntime()}
	for _, th := range prog.Threads {
		init.threads = append(init.threads, lang.NewThreadState(th))
	}
	var dfs func(st exploreState) error
	dfs = func(st exploreState) error {
		// Advance all threads to their next call (local steps are invisible
		// to other threads, so taking them eagerly is a sound partial-order
		// reduction).
		allDone := true
		for _, ts := range st.threads {
			if _, err := ts.Advance(); err != nil {
				// Assertion/evaluation failure: the thread stops; this still
				// terminates and its failure is part of the behaviour.
				continue
			}
			if !ts.Done() {
				allDone = false
			}
		}
		if allDone {
			b := behaviorOf(st)
			out[b.Key()] = b
			return nil
		}
		k := st.key()
		if seen[k] {
			return nil
		}
		if len(seen) >= maxStates {
			return fmt.Errorf("%w (%d states)", ErrBudget, maxStates)
		}
		seen[k] = true
		// Branch on each pending thread call.
		for i, ts := range st.threads {
			call, err := ts.Advance()
			if err != nil || call == nil {
				continue
			}
			next := st.clone()
			nts := next.threads[i]
			op, err := nts.CallOp()
			if err != nil {
				nts.Fail(err)
				if err := dfs(next); err != nil {
					return err
				}
				continue
			}
			ret, err := next.rt.Invoke(nts.Thread.Node, op)
			if err != nil {
				if errors.Is(err, crdt.ErrAssume) {
					continue // assume blocks: no transition on this branch
				}
				return err
			}
			nts.CompleteCall(op, ret)
			if err := dfs(next); err != nil {
				return err
			}
		}
		// Branch on each delivery choice.
		for _, ch := range st.rt.Choices() {
			next := st.clone()
			if err := next.rt.Apply(ch); err != nil {
				return err
			}
			if err := dfs(next); err != nil {
				return err
			}
		}
		return nil
	}
	if err := dfs(init); err != nil {
		return nil, err
	}
	return out, nil
}

func behaviorOf(st exploreState) Behavior {
	var b Behavior
	for _, ts := range st.threads {
		b.Names = append(b.Names, ts.Thread.Name)
		b.Histories = append(b.Histories, append([]string(nil), ts.History...))
		b.Envs = append(b.Envs, ts.Env.Clone())
		if err := ts.Err(); err != nil {
			b.Errs = append(b.Errs, err.Error())
		} else {
			b.Errs = append(b.Errs, "")
		}
	}
	return b
}

// ---------------------------------------------------------------------------
// Refinement checking
// ---------------------------------------------------------------------------

// Result reports a refinement check on one program.
type Result struct {
	OK bool
	// Extra lists concrete behaviours with no abstract counterpart (the
	// refinement violations), sorted.
	Extra []string
	// ConcreteCount and AbstractCount are the behaviour-set sizes.
	ConcreteCount, AbstractCount int
}

// Check decides whether the concrete implementation refines the abstract
// specification on the given client program: every observable behaviour of
// "let Π in C1 ∥ … ∥ Cn" must also be a behaviour of
// "with (Γ, ⊲⊳) do C1 ∥ … ∥ Cn".
func Check(alg registry.Algorithm, prog lang.Program, e Explorer) (Result, error) {
	n := len(prog.Threads)
	conc, err := e.Behaviors(prog, func() Runtime { return NewConcrete(alg, n) })
	if err != nil {
		return Result{}, fmt.Errorf("concrete side: %w", err)
	}
	abst, err := e.Behaviors(prog, func() Runtime { return NewAbstract(alg, n) })
	if err != nil {
		return Result{}, fmt.Errorf("abstract side: %w", err)
	}
	res := Result{OK: true, ConcreteCount: len(conc), AbstractCount: len(abst)}
	for k := range conc {
		if _, ok := abst[k]; !ok {
			res.OK = false
			res.Extra = append(res.Extra, k)
		}
	}
	sort.Strings(res.Extra)
	return res, nil
}
