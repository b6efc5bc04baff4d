package conformance

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/crdt"
	"repro/internal/crdts/registry"
	"repro/internal/model"
	"repro/internal/spec"
)

// TestAllAlgorithmsConform: the full battery passes for all nine algorithms,
// with the applicable client programs. The battery has 14 checks: spec
// well-formedness (×3), CRDT-TS obligations, witness + SEC, exhaustive
// bounded decision, parallel schedule exploration, fault-injection
// convergence, snapshot recovery, batched transport convergence, socket
// snapshot catch-up, multi-object socket mesh, codec round-trip, and client
// refinement.
func TestAllAlgorithmsConform(t *testing.T) {
	clients := map[string]string{
		"counter":  `node t1 { inc(1); x := read(); } node t2 { dec(1); y := read(); }`,
		"register": `node t1 { write(1); x := read(); } node t2 { write(2); y := read(); }`,
		"g-set":    `node t1 { add("a"); x := lookup("a"); } node t2 { y := lookup("a"); }`,
		"set":      `node t1 { add("a"); x := lookup("a"); } node t2 { remove("a"); y := lookup("a"); }`,
		"aw-set":   `node t1 { add("a"); x := lookup("a"); } node t2 { remove("a"); y := lookup("a"); }`,
		"rw-set":   `node t1 { add("a"); x := lookup("a"); } node t2 { remove("a"); y := lookup("a"); }`,
		"list":     `node t1 { addAfter(sentinel, "a"); x := read(); } node t2 { y := read(); }`,
	}
	for _, alg := range registry.All() {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			rep := Run(alg, Config{Seeds: 4, Steps: 25, Client: clients[alg.Spec.Name()]})
			if err := rep.Err(); err != nil {
				t.Fatalf("%v\n%s", err, rep)
			}
			if len(rep.Checks) != 14 {
				t.Fatalf("checks = %d, want 14", len(rep.Checks))
			}
		})
	}
}

func TestRunAllCoversNine(t *testing.T) {
	reps := RunAll(Config{Seeds: 1, Steps: 10})
	if len(reps) != 9 {
		t.Fatalf("reports = %d", len(reps))
	}
	for _, r := range reps {
		if err := r.Err(); err != nil {
			t.Error(err)
		}
		if !strings.Contains(r.String(), r.Algorithm) {
			t.Errorf("report rendering misses the algorithm name")
		}
	}
}

// divObject is a "counter" whose effector is order-sensitive (x ↦ 2x + n),
// so different delivery orders drive replicas apart — the battery must
// reject it.
type divergingEff struct{ N int64 }

func (d divergingEff) Apply(s crdt.State) crdt.State {
	return divState{V: s.(divState).V*2 + d.N}
}
func (d divergingEff) String() string { return fmt.Sprintf("Div(%d)", d.N) }

func (d divergingEff) AppendBinary(b []byte) []byte { return append(b, d.String()...) }

type divState struct{ V int64 }

func (s divState) AppendBinary(b []byte) []byte { return fmt.Appendf(b, "div{%d}", s.V) }

type divObject struct{}

func (divObject) Init() crdt.State { return divState{} }

func (divObject) Prepare(op model.Op, s crdt.State, origin model.NodeID, mid model.MsgID) (model.Value, crdt.Effector, error) {
	switch op.Name {
	case spec.OpInc, spec.OpDec:
		n, _ := op.Arg.AsInt()
		if op.Name == spec.OpDec {
			n = -n
		}
		return model.Nil(), divergingEff{N: n}, nil
	case spec.OpRead:
		return model.Int(s.(divState).V), crdt.IdEff{}, nil
	default:
		return model.Nil(), nil, crdt.ErrUnknownOp
	}
}

func TestBatteryRejectsBrokenAlgorithm(t *testing.T) {
	base := registry.Counter()
	alg := base
	alg.Name = "diverging-counter"
	alg.New = func() crdt.Object { return divObject{} }
	alg.Abs = func(s crdt.State) model.Value { return model.Int(s.(divState).V) }
	rep := Run(alg, Config{Seeds: 4, Steps: 25})
	if rep.Err() == nil {
		t.Fatalf("broken algorithm conformed:\n%s", rep)
	}
}

// TestBatteryRejectsNegativeCounts: a negative count is an error, not a
// battery whose items pass because they checked nothing.
func TestBatteryRejectsNegativeCounts(t *testing.T) {
	for _, cfg := range []Config{{Seeds: -1}, {Steps: -1}, {ChaosSeeds: -1}} {
		rep := Run(registry.Counter(), cfg)
		if err := rep.Err(); err == nil || !strings.Contains(err.Error(), "non-negative") {
			t.Errorf("%+v: err = %v, want a refusal of the negative count", cfg, err)
		}
	}
}

func TestBatteryReportsClientParseError(t *testing.T) {
	rep := Run(registry.Counter(), Config{Seeds: 1, Steps: 10, Client: "node {"})
	if rep.Err() == nil || !strings.Contains(rep.Err().Error(), "refinement") {
		t.Fatalf("err = %v", rep.Err())
	}
}
