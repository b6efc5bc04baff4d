package registry

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/crdt"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/spec"
)

func TestInventory(t *testing.T) {
	all := All()
	if len(all) != 9 {
		t.Fatalf("algorithms = %d, want 9", len(all))
	}
	if len(UCR()) != 7 {
		t.Fatalf("UCR algorithms = %d, want 7", len(UCR()))
	}
	if len(XWins()) != 2 {
		t.Fatalf("X-wins algorithms = %d, want 2", len(XWins()))
	}
	seen := map[string]bool{}
	for _, a := range all {
		if seen[a.Name] {
			t.Errorf("duplicate algorithm name %q", a.Name)
		}
		seen[a.Name] = true
		got, ok := ByName(a.Name)
		if !ok || got.Name != a.Name {
			t.Errorf("ByName(%q) failed", a.Name)
		}
	}
	if _, ok := ByName("vaporware"); ok {
		t.Error("ByName hallucinated an algorithm")
	}
}

// TestBundlesConsistent: every bundle's pieces agree — the object constructs
// with an initial state, UCR bundles carry ↣/V, X-wins bundles carry the
// extended spec and the causal-delivery requirement.
func TestBundlesConsistent(t *testing.T) {
	// The empty abstract state of each specification, by spec name.
	empty := map[string]model.Value{
		"counter": model.Int(0), "max-register": model.Int(0), "register": model.Nil(),
		"g-set": model.List(), "set": model.List(), "aw-set": model.List(), "rw-set": model.List(),
		"list": model.List(),
	}
	for _, a := range append(All(), Extensions()...) {
		obj := a.New()
		if obj == nil || obj.Init() == nil {
			t.Errorf("%s: degenerate object", a.Name)
			continue
		}
		if a.Abs == nil || a.Spec == nil || a.GenOp == nil || a.Universe == nil {
			t.Errorf("%s: incomplete bundle", a.Name)
		}
		if a.DecodeState == nil || a.DecodeEffector == nil {
			t.Errorf("%s: bundle registers no codec decoders", a.Name)
		}
		if a.IsX() {
			if !a.NeedsCausal {
				t.Errorf("%s: X-wins algorithms assume causal delivery", a.Name)
			}
			if a.XSpec == nil {
				t.Errorf("%s: missing XSpec", a.Name)
			}
		} else {
			if a.TSOrder == nil || a.View == nil {
				t.Errorf("%s: UCR algorithms need ↣ and V", a.Name)
			}
			if a.View(obj.Init()) != nil && len(a.View(obj.Init())) != 0 {
				t.Errorf("%s: V(init) must be empty", a.Name)
			}
		}
		// φ(init) must be the spec's empty abstract state.
		if want, ok := empty[a.Spec.Name()]; !ok || !a.Abs(obj.Init()).Equal(want) {
			t.Errorf("%s: φ(init) = %s, want the empty %s state %s", a.Name, a.Abs(obj.Init()), a.Spec.Name(), want)
		}
	}
}

// TestGenOpProducesAcceptableOps: rejection sampling must succeed quickly —
// most generated operations pass their preconditions when applied at the
// states they were generated for.
func TestGenOpProducesAcceptableOps(t *testing.T) {
	pool := []model.Value{model.Str("a"), model.Str("b"), model.Str("c")}
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			obj := a.New()
			s := obj.Init()
			freshID := 0
			fresh := func() model.Value {
				freshID++
				return model.Str(fmt.Sprintf("f%d", freshID))
			}
			accepted, rejected := 0, 0
			var mid model.MsgID
			for i := 0; i < 200; i++ {
				op := a.GenOp(rng, s, a.Abs, pool, fresh)
				mid++
				_, eff, err := obj.Prepare(op, s, 0, mid)
				switch {
				case err == nil:
					accepted++
					s = eff.Apply(s)
				case errors.Is(err, crdt.ErrAssume):
					rejected++
				default:
					t.Fatalf("op %s: unexpected error %v", op, err)
				}
			}
			if accepted < rejected {
				t.Errorf("generator mostly rejected: %d accepted, %d rejected", accepted, rejected)
			}
		})
	}
}

// TestUniverseWellFormed: every bundle's sampling universe passes Def 1 and
// symmetry for its spec.
func TestUniverseWellFormed(t *testing.T) {
	for _, a := range All() {
		u := a.Universe()
		if len(u.Ops) == 0 || len(u.States) == 0 {
			t.Errorf("%s: empty universe", a.Name)
			continue
		}
		if err := spec.CheckNonComm(a.Spec, u.Ops, u.States); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
		if err := spec.CheckSymmetric(a.Spec, u.Ops); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

// TestExtensions: algorithms beyond the paper's nine resolve by name and
// keep the paper inventory intact.
func TestExtensions(t *testing.T) {
	ext := Extensions()
	if len(ext) != 1 || ext[0].Name != "max-register" {
		t.Fatalf("extensions = %v", ext)
	}
	if len(All()) != 9 {
		t.Fatal("extensions leaked into the paper inventory")
	}
	alg, ok := ByName("max-register")
	if !ok || alg.IsX() || alg.TSOrder == nil {
		t.Fatalf("ByName extension lookup: %v %v", alg, ok)
	}
	if !alg.Abs(alg.New().Init()).Equal(model.Int(0)) {
		t.Error("φ(init) mismatch for the extension")
	}
}

// collections names the algorithms whose states are collections: each of
// their effectors must implement crdt.InPlace, or a replica host would copy
// the whole state on every apply.
var collections = map[string]bool{
	"g-set": true, "2p-set": true, "lww-set": true, "cseq": true, "rga": true, "aw-set": true, "rw-set": true,
}

// TestDeclaredQueries checks, for every operation name of each bundle's
// universe, that its spec declares it a query exactly when both sides treat
// it as one:
//   - Prepare returns the identity effector for a query, and another
//     effector for any other operation, on every state that seeded 3-node
//     simulator runs reach at any node, wherever it accepts the operation
//     (the universe's instances and the runs' own);
//   - the abstract Apply of every universe instance of a query leaves every
//     universe state unchanged, and some instance of any other operation
//     changes one.
func TestDeclaredQueries(t *testing.T) {
	for _, a := range append(All(), Extensions()...) {
		t.Run(a.Name, func(t *testing.T) {
			obj, u := a.New(), a.Universe()
			w := sim.Workload{Object: obj, Abs: a.Abs, Gen: sim.GenFunc(a.GenOp), Nodes: 3, Causal: a.NeedsCausal, FinalDrain: true}
			ops := slices.Clone(u.Ops)
			var states []crdt.State
			for seed := int64(1); seed <= 3; seed++ {
				tr := w.Run(seed).Trace()
				for _, node := range tr.Nodes() {
					s := obj.Init()
					states = append(states, s)
					for _, e := range tr.Restrict(node) {
						if e.IsOrigin {
							ops = append(ops, e.Op)
						}
						s = e.Eff.Apply(s)
						states = append(states, s)
					}
				}
			}
			accepted := map[model.OpName]bool{}
			for _, op := range ops {
				query := a.Spec.IsQuery(op.Name)
				for _, s := range states {
					_, eff, err := obj.Prepare(op, s, 0, 1)
					if errors.Is(err, crdt.ErrAssume) {
						continue
					} else if err != nil {
						t.Fatalf("%s: %v", op, err)
					}
					accepted[op.Name] = true
					if crdt.IsIdentity(eff) != query {
						t.Fatalf("%s: declared query %t, but Prepare generates %s", op, query, eff)
					}
				}
			}
			changes := map[model.OpName]bool{}
			for _, op := range u.Ops {
				for _, s := range u.States {
					if _, out := a.Spec.Apply(op, s); !out.Equal(s) {
						changes[op.Name] = true
					}
				}
			}
			for _, op := range u.Ops {
				if !accepted[op.Name] {
					t.Errorf("%s: no reached state accepts it", op.Name)
				}
				if a.Spec.IsQuery(op.Name) == changes[op.Name] {
					t.Errorf("%s: declared query %t, but its abstract actions change a universe state: %t",
						op.Name, a.Spec.IsQuery(op.Name), changes[op.Name])
				}
			}
		})
	}
}

// TestInPlaceMatchesPure is the in-place counterpart of CRDT-TS's state
// correspondence obligation. It replays each node of seeded 3-node simulator
// workloads from Init() and, before every effector that implements
// crdt.InPlace, checks on the reached state s that:
//   - applying in place to an owned copy of s gives Apply(s)'s bytes;
//   - Apply(s) leaves s's bytes unchanged;
//   - two Init() states are independent: applying in place to one leaves
//     the other's bytes unchanged.
func TestInPlaceMatchesPure(t *testing.T) {
	for _, a := range append(All(), Extensions()...) {
		t.Run(a.Name, func(t *testing.T) {
			obj := a.New()
			w := sim.Workload{Object: obj, Abs: a.Abs, Gen: sim.GenFunc(a.GenOp), Nodes: 3, Causal: a.NeedsCausal, FinalDrain: true}
			checked := 0
			for seed := int64(1); seed <= 20; seed++ {
				c := w.Run(seed)
				tr := c.Trace()
				for _, node := range tr.Nodes() {
					s := obj.Init()
					for _, e := range tr.Restrict(node) {
						if _, ok := e.Eff.(crdt.InPlace); ok {
							checkInPlace(t, a, e.Eff, s)
							checked++
						} else if collections[a.Name] && !crdt.IsIdentity(e.Eff) {
							t.Fatalf("seed %d: effector %s (%T) does not implement crdt.InPlace", seed, e.Eff, e.Eff)
						}
						s = e.Eff.Apply(s)
					}
					if !bytes.Equal(s.AppendBinary(nil), c.StateOf(node).AppendBinary(nil)) {
						t.Fatalf("seed %d: replaying %s's events does not reach its state", seed, node)
					}
				}
			}
			if collections[a.Name] && checked == 0 {
				t.Fatal("the workloads applied no effector")
			}
		})
	}
}

// checkInPlace checks one in-place effector at one reached state s.
func checkInPlace(t *testing.T, a Algorithm, eff crdt.Effector, s crdt.State) {
	t.Helper()
	before := s.AppendBinary(nil)
	owned, err := a.DecodeState(before)
	if err != nil {
		t.Fatalf("state %x does not decode: %v", before, err)
	}
	pure := eff.Apply(s).AppendBinary(nil)
	if !bytes.Equal(s.AppendBinary(nil), before) {
		t.Fatalf("%s.Apply mutated its input %x", eff, before)
	}
	if got := crdt.ApplyOwned(eff, owned).AppendBinary(nil); !bytes.Equal(got, pure) {
		t.Fatalf("%s at %x: in place gives %x, Apply gives %x", eff, before, got, pure)
	}
	mutated, other := a.New().Init(), a.New().Init()
	want := other.AppendBinary(nil)
	crdt.ApplyOwned(eff, mutated)
	if !bytes.Equal(other.AppendBinary(nil), want) {
		t.Fatalf("applying %s in place to one Init() state changed another", eff)
	}
}
