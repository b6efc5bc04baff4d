// Package logic implements the rely-guarantee program logic for clients of
// CRDTs (Sec 7): the action assertions of Fig 10, the rely/guarantee
// conditions p ; [α], the stability and cmt-closure side conditions, and a
// proof-outline checker for the inference rules of Fig 11. The logic works
// at the abstraction level established by the Abstraction Theorem: client
// threads interact with the atomic specification (Γ, ⊲⊳), not with the
// implementation.
//
// Assertions denote finite sets of worlds. A world is one complete state of
// knowledge at a program point of the current thread: the initial abstract
// object state, the set of actions the thread knows to have been issued
// (each marked as arrived at the current node or merely issued somewhere),
// a strict partial order over them (the known fragment of the arbitration
// order), and the values of pinned client variables. The lifted state
// assertions of the paper quantify over every arrival superset and every
// linearization consistent with the known order — exactly the semantics
// implemented by Sat.
package logic

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/lang"
	"repro/internal/model"
	"repro/internal/spec"
)

// Action is one abstract operation instance α^i_t: operation Op issued by
// node Node, distinguished by the identifier ID.
type Action struct {
	ID   string
	Node model.NodeID
	Op   model.Op
}

// String renders the action.
func (a Action) String() string { return fmt.Sprintf("%s@%s#%s", a.Op, a.Node, a.ID) }

// Act is a convenience constructor: the ID defaults to op@node.
func Act(node model.NodeID, name model.OpName, arg model.Value) Action {
	op := model.Op{Name: name, Arg: arg}
	return Action{ID: fmt.Sprintf("%s@%s", op, node), Node: node, Op: op}
}

// World is one knowledge state: see the package comment.
type World struct {
	// Init is the initial abstract object state.
	Init model.Value
	// Actions maps action IDs to actions.
	Actions map[string]Action
	// Arrived marks the actions that have arrived at the current node.
	Arrived map[string]bool
	// Before is the strict partial order over action IDs (kept transitively
	// closed).
	Before map[[2]string]bool
	// Env holds the pinned client variables.
	Env lang.Env
	// Seen records, for X-wins reasoning (Sec 9), which actions each action
	// had received when it was issued: Seen[a][b] means a saw b. Nil in UCR
	// proofs. Conflicting actions related by Seen are causally ordered;
	// mutually-unseen ones are concurrent and subject to the ◀ discipline.
	Seen map[string]map[string]bool
}

// NewWorld returns the empty-knowledge world over the given initial state:
// the denotation of `Init ∧ emp`.
func NewWorld(init model.Value) World {
	return World{
		Init:    init,
		Actions: map[string]Action{},
		Arrived: map[string]bool{},
		Before:  map[[2]string]bool{},
		Env:     lang.Env{},
	}
}

// Clone deep-copies the world.
func (w World) Clone() World {
	out := World{Init: w.Init,
		Actions: make(map[string]Action, len(w.Actions)),
		Arrived: make(map[string]bool, len(w.Arrived)),
		Before:  make(map[[2]string]bool, len(w.Before)),
		Env:     w.Env.Clone(),
	}
	for k, v := range w.Actions {
		out.Actions[k] = v
	}
	for k := range w.Arrived {
		out.Arrived[k] = true
	}
	for k := range w.Before {
		out.Before[k] = true
	}
	if w.Seen != nil {
		out.Seen = make(map[string]map[string]bool, len(w.Seen))
		for a, set := range w.Seen {
			ns := make(map[string]bool, len(set))
			for b := range set {
				ns[b] = true
			}
			out.Seen[a] = ns
		}
	}
	return out
}

// SawBy reports whether action a saw action b at issue time.
func (w World) SawBy(a, b string) bool { return w.Seen[a][b] }

// SetSeen records that action a saw exactly the given actions at issue time.
func (w *World) SetSeen(a string, saw map[string]bool) {
	if w.Seen == nil {
		w.Seen = map[string]map[string]bool{}
	}
	cp := make(map[string]bool, len(saw))
	for b := range saw {
		cp[b] = true
	}
	w.Seen[a] = cp
}

// Key canonically renders the world.
func (w World) Key() string {
	ids := w.sortedIDs()
	var b strings.Builder
	fmt.Fprintf(&b, "init=%s;", w.Init)
	for _, id := range ids {
		a := w.Actions[id]
		mark := "[]"
		if w.Arrived[id] {
			mark = "⌈⌉"
		}
		fmt.Fprintf(&b, "%s%s;", a, mark)
	}
	pairs := make([]string, 0, len(w.Before))
	for p := range w.Before {
		pairs = append(pairs, p[0]+"<"+p[1])
	}
	sort.Strings(pairs)
	b.WriteString(strings.Join(pairs, ","))
	b.WriteByte(';')
	b.WriteString(w.Env.Key())
	if w.Seen != nil {
		var seenPairs []string
		for a, set := range w.Seen {
			for c := range set {
				seenPairs = append(seenPairs, a+"←"+c)
			}
		}
		sort.Strings(seenPairs)
		b.WriteByte(';')
		b.WriteString(strings.Join(seenPairs, ","))
	}
	return b.String()
}

func (w World) sortedIDs() []string {
	ids := make([]string, 0, len(w.Actions))
	for id := range w.Actions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Has reports whether the world knows the action (arrived or merely issued).
func (w World) Has(a Action) bool {
	_, ok := w.Actions[a.ID]
	return ok
}

// enables reports whether the rely rule r can fire in w: w knows every
// action r requires (possibly still in brackets) and not yet the one it
// issues.
func (w World) enables(r Rule) bool {
	if w.Has(r.Issues) {
		return false
	}
	for _, req := range r.Requires {
		if !w.Has(req) {
			return false
		}
	}
	return true
}

// AddAction inserts the action, optionally marking it arrived; adding an
// already-known action only upgrades its arrival flag.
func (w *World) AddAction(a Action, arrived bool) {
	w.Actions[a.ID] = a
	if arrived {
		w.Arrived[a.ID] = true
	}
}

// Order adds x before y and restores transitive closure. It reports false if
// this would create a cycle (an inconsistent world).
func (w *World) Order(x, y string) bool {
	if x == y || w.Before[[2]string{y, x}] {
		return false
	}
	w.Before[[2]string{x, y}] = true
	// Transitive closure (the worlds are tiny).
	changed := true
	for changed {
		changed = false
		for p := range w.Before {
			for q := range w.Before {
				if p[1] == q[0] && !w.Before[[2]string{p[0], q[1]}] {
					if p[0] == q[1] {
						return false // cycle
					}
					w.Before[[2]string{p[0], q[1]}] = true
					changed = true
				}
			}
		}
	}
	return true
}

// covers reports whether world v represents weaker-or-equal knowledge than w
// over the same situation: same initial state, the same actions (v may have
// downgraded arrived actions to merely-issued ones), a subset of the order,
// and a subset of the pinned variables.
func covers(v, w World) bool {
	if !v.Init.Equal(w.Init) {
		return false
	}
	if len(v.Actions) != len(w.Actions) {
		return false
	}
	for id := range v.Actions {
		if _, ok := w.Actions[id]; !ok {
			return false
		}
	}
	for id := range v.Arrived {
		if !w.Arrived[id] {
			return false
		}
	}
	for p := range v.Before {
		if !w.Before[p] {
			return false
		}
	}
	for x, val := range v.Env {
		got, ok := w.Env[x]
		if !ok || !got.Equal(val) {
			return false
		}
	}
	return true
}

// coveredBy reports whether some world of vs covers w.
func coveredBy(w World, vs []World) bool {
	return slices.ContainsFunc(vs, func(v World) bool { return covers(v, w) })
}

// arrivalSupersets enumerates every subset of the world's actions that
// contains all arrived ones (the paper's "actions that have arrived in the
// current view" — bracketed actions may or may not have arrived yet).
func (w World) arrivalSupersets(fn func(ids []string) bool) bool {
	var optional []string
	var base []string
	for _, id := range w.sortedIDs() {
		if w.Arrived[id] {
			base = append(base, id)
		} else {
			optional = append(optional, id)
		}
	}
	n := len(optional)
	for mask := 0; mask < 1<<n; mask++ {
		ids := append([]string(nil), base...)
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				ids = append(ids, optional[i])
			}
		}
		if !fn(ids) {
			return false
		}
	}
	return true
}

// run executes the actions of lin, in order, from the world's initial state
// and returns the object state they reach.
func (w World) run(sp spec.Spec, lin []string) model.Value {
	s := w.Init
	for _, id := range lin {
		_, s = sp.Apply(w.Actions[id].Op, s)
	}
	return s
}

// FinalStates enumerates the abstract object states reachable by executing
// any arrival superset of the world's actions in any order consistent with
// Before, deduplicated.
func (w World) FinalStates(sp spec.Spec) []model.Value {
	seen := map[string]model.Value{}
	w.arrivalSupersets(func(ids []string) bool {
		spec.LinearExtensions(ids, w.Before, func(lin []string) bool {
			s := w.run(sp, lin)
			seen[s.String()] = s
			return true
		})
		return true
	})
	out := make([]model.Value, 0, len(seen))
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, seen[k])
	}
	return out
}
