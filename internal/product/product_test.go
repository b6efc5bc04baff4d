package product

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/crdt"
	"repro/internal/crdts/registry"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/spec"
)

// cartClock is the running example: a shopping cart (LWW-element set)
// composed with a counter.
func cartClock() (*Object, registry.Algorithm, registry.Algorithm) {
	cart := registry.LWWSet()
	clock := registry.Counter()
	obj := MustNew(
		Component{Name: "cart", Object: cart.New(), Spec: cart.Spec, Abs: cart.Abs, TSOrder: cart.TSOrder},
		Component{Name: "clock", Object: clock.New(), Spec: clock.Spec, Abs: clock.Abs, TSOrder: clock.TSOrder},
	)
	return obj, cart, clock
}

func op(name string, arg model.Value) model.Op {
	return model.Op{Name: model.OpName(name), Arg: arg}
}

func TestRouting(t *testing.T) {
	obj, _, _ := cartClock()
	c := sim.NewCluster(obj, 2)
	if _, _, err := c.Invoke(0, op("cart.add", model.Str("x"))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Invoke(1, op("clock.inc", model.Int(3))); err != nil {
		t.Fatal(err)
	}
	c.DeliverAll()
	abs, ok := c.Converged(obj.Abs)
	if !ok {
		t.Fatal("diverged")
	}
	want := model.List(model.List(model.Str("x")), model.Int(3))
	if !abs.Equal(want) {
		t.Fatalf("abs = %s, want %s", abs, want)
	}
	ret, _, err := c.Invoke(0, op("cart.lookup", model.Str("x")))
	if err != nil || !ret.Equal(model.True) {
		t.Fatalf("lookup: %s %v", ret, err)
	}
	ret, _, err = c.Invoke(1, op("clock.read", model.Nil()))
	if err != nil || !ret.Equal(model.Int(3)) {
		t.Fatalf("clock read: %s %v", ret, err)
	}
}

func TestRoutingErrors(t *testing.T) {
	obj, _, _ := cartClock()
	c := sim.NewCluster(obj, 1)
	if _, _, err := c.Invoke(0, op("add", model.Str("x"))); err == nil {
		t.Error("non-namespaced op accepted")
	}
	if _, _, err := c.Invoke(0, op("basket.add", model.Str("x"))); !errors.Is(err, crdt.ErrUnknownOp) {
		t.Errorf("unknown component: err = %v", err)
	}
	if _, err := New(); err == nil {
		t.Error("empty product accepted")
	}
	if _, err := New(Component{Name: "a.b"}); err == nil {
		t.Error("dotted component name accepted")
	}
	if _, err := New(Component{Name: "a"}, Component{Name: "a"}); err == nil {
		t.Error("duplicate component name accepted")
	}
}

// TestProductSpecConflicts: conflicts stay within components.
func TestProductSpecConflicts(t *testing.T) {
	obj, _, _ := cartClock()
	sp := obj.ProductSpec()
	addX := op("cart.add", model.Str("x"))
	rmvX := op("cart.remove", model.Str("x"))
	inc := op("clock.inc", model.Int(1))
	if !sp.Conflict(addX, rmvX) {
		t.Error("cart.add ⊲⊳ cart.remove expected")
	}
	if sp.Conflict(addX, inc) || sp.Conflict(inc, inc) {
		t.Error("cross-component or counter conflicts must be empty")
	}
	if err := spec.CheckSymmetric(sp, []model.Op{addX, rmvX, inc}); err != nil {
		t.Error(err)
	}
}

// TestProductNonComm: Def 1 holds for the product — operations unrelated by
// the union ⊲⊳ commute (in particular cross-component ones).
func TestProductNonComm(t *testing.T) {
	obj, _, _ := cartClock()
	sp := obj.ProductSpec()
	ops := []model.Op{
		op("cart.add", model.Str("x")), op("cart.remove", model.Str("x")),
		op("cart.add", model.Str("y")), op("clock.inc", model.Int(1)),
		op("clock.dec", model.Int(2)), op("clock.read", model.Nil()),
		op("cart.read", model.Nil()),
	}
	states := []model.Value{
		obj.Abs(obj.Init()),
		model.List(model.List(model.Str("x")), model.Int(5)),
		model.List(model.List(model.Str("x"), model.Str("y")), model.Int(-1)),
	}
	if err := spec.CheckNonComm(sp, ops, states); err != nil {
		t.Error(err)
	}
}

// productGen issues namespaced operations over both components.
func productGen(rng *rand.Rand, _ crdt.State, _ crdt.Abstraction, pool []model.Value, _ func() model.Value) model.Op {
	if rng.Intn(2) == 0 {
		switch rng.Intn(4) {
		case 0:
			return op("cart.read", model.Nil())
		case 1:
			return op("cart.lookup", pool[rng.Intn(len(pool))])
		case 2:
			return op("cart.add", pool[rng.Intn(len(pool))])
		default:
			return op("cart.remove", pool[rng.Intn(len(pool))])
		}
	}
	switch rng.Intn(3) {
	case 0:
		return op("clock.read", model.Nil())
	case 1:
		return op("clock.inc", model.Int(int64(1+rng.Intn(3))))
	default:
		return op("clock.dec", model.Int(int64(1+rng.Intn(3))))
	}
}

// TestCompositionality is the Sec 2.4 claim: the product of two ACC objects
// satisfies ACC (checked via the product ↣ witness on randomized traces and
// via the complete search on short ones) and converges.
func TestCompositionality(t *testing.T) {
	obj, _, _ := cartClock()
	p := core.Problem{Object: obj, Spec: obj.ProductSpec(), Abs: obj.Abs}
	for seed := int64(1); seed <= 8; seed++ {
		w := sim.Workload{
			Object: obj,
			Abs:    obj.Abs,
			Gen:    productGen,
			Nodes:  3,
			Steps:  30,
		}
		tr := w.Run(seed).Trace()
		res, err := core.CheckACCWitness(tr, p, obj.TSOrder)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.OK {
			t.Fatalf("seed %d: product ACC witness failed: %s\n%s", seed, res.Reason, tr)
		}
		if err := core.CheckConvergenceFrom(tr, obj.Init(), obj.Abs); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	// Complete decision on short traces.
	for seed := int64(1); seed <= 3; seed++ {
		w := sim.Workload{Object: obj, Abs: obj.Abs, Gen: productGen, Nodes: 2, Steps: 8}
		tr := w.Run(seed).Trace()
		res, err := core.CheckACC(tr, p)
		if err != nil {
			t.Skipf("seed %d: %v", seed, err)
		}
		if !res.OK {
			t.Fatalf("seed %d: product exhaustive ACC failed: %s", seed, res.Reason)
		}
	}
}

func TestProductStateAndEffectorRendering(t *testing.T) {
	obj, _, _ := cartClock()
	s := obj.Init()
	_, eff, err := obj.Prepare(op("clock.inc", model.Int(1)), s, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(eff.String(), "clock.") {
		t.Errorf("effector = %q", eff)
	}
}

// TestProductQueries: the product declares a query exactly where the named
// component's spec does; a name outside every component is no query.
func TestProductQueries(t *testing.T) {
	obj, _, _ := cartClock()
	sp := obj.ProductSpec()
	for name, want := range map[model.OpName]bool{
		"clock.read": true, "cart.lookup": true, "cart.read": true,
		"clock.inc": false, "cart.add": false, "cart.remove": false,
		"read": false, "nope.read": false, "clock.lookup": false,
	} {
		if got := sp.IsQuery(name); got != want {
			t.Errorf("IsQuery(%s) = %t, want %t", name, got, want)
		}
	}
}
