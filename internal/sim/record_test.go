package sim

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/crdt"
	"repro/internal/crdts/registry"
	"repro/internal/model"
	"repro/internal/trace"
)

// An operation's origin event and its deliveries share one read-only
// trace.Record. These tests pin which record each event the cluster appends
// points at, and that sharing never lets one trace change another.

// originsOf maps each origin event of tr by its MsgID.
func originsOf(tr trace.Trace) map[model.MsgID]trace.Event {
	out := map[model.MsgID]trace.Event{}
	for _, e := range tr.Origins() {
		out[e.MID] = e
	}
	return out
}

// sameEncoding reports whether two effectors encode alike.
func sameEncoding(a, b crdt.Effector) bool {
	return bytes.Equal(a.AppendBinary(nil), b.AppendBinary(nil))
}

// checkShared fails unless every delivery in tr points at its origin's
// record; it returns how many deliveries it checked.
func checkShared(t *testing.T, tr trace.Trace) int {
	t.Helper()
	origins := originsOf(tr)
	n := 0
	for i, e := range tr {
		if e.IsOrigin {
			continue
		}
		if o := origins[e.MID]; e.Record != o.Record {
			t.Fatalf("event %d %s: record %p, its origin's is %p", i, e, e.Record, o.Record)
		}
		n++
	}
	return n
}

// TestDeliveriesShareTheOriginRecord: the registry's updates return Nil, so
// every delivery, causal or not, points at its origin's record.
func TestDeliveriesShareTheOriginRecord(t *testing.T) {
	for _, alg := range registry.All() {
		for _, causal := range []bool{false, true} {
			w := Workload{Object: alg.New(), Abs: alg.Abs, Gen: GenFunc(alg.GenOp),
				Nodes: 3, Steps: 60, Causal: causal, FinalDrain: true}
			if n := checkShared(t, w.Run(7).Trace()); n == 0 {
				t.Fatalf("%s causal=%v: no deliveries to check", alg.Name, causal)
			}
		}
	}
}

// valued is an object whose every operation returns a value, updates
// included: the registry's updates all return Nil.
type valued struct{ crdt.Object }

func (o valued) Prepare(op model.Op, s crdt.State, t model.NodeID, mid model.MsgID) (model.Value, crdt.Effector, error) {
	_, eff, err := o.Object.Prepare(op, s, t, mid)
	return model.Int(1), eff, err
}

// TestDeliveryOfAValuedUpdateReturnsNothing: an origin that returned a
// value gives its deliveries a record of their own, with its operation and
// effector and a Nil return value, and keeps the value on its own record.
func TestDeliveryOfAValuedUpdateReturnsNothing(t *testing.T) {
	alg := registry.Counter()
	c := NewCluster(valued{alg.New()}, 3)
	for i := 0; i < 6; i++ {
		if _, _, err := c.Invoke(model.NodeID(i%3), model.Op{Name: "inc", Arg: model.Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	c.DeliverAll()
	tr := c.Trace()
	origins := originsOf(tr)
	deliveries := 0
	for i, e := range tr {
		o := origins[e.MID]
		switch {
		case e.IsOrigin && !e.Ret.Equal(model.Int(1)):
			t.Fatalf("event %d %s: origin returns %s, want 1", i, e, e.Ret)
		case e.IsOrigin:
		case e.Record == o.Record || !e.Ret.IsNil():
			t.Fatalf("event %d %s: a delivery shares its valued origin's record or returns %s", i, e, e.Ret)
		case !e.Op.Equal(o.Op) || !sameEncoding(e.Eff, o.Eff):
			t.Fatalf("event %d %s: delivery records %s %s, its origin %s %s", i, e, e.Op, e.Eff, o.Op, o.Eff)
		default:
			deliveries++
		}
	}
	if deliveries != 12 {
		t.Fatalf("%d deliveries, want 12", deliveries)
	}
}

// decoded marks an effector that came out of the wire decoder.
type decoded struct{ crdt.Effector }

// TestCodecDeliveryRecordsTheDecodedEffector: under WithWireCodec a
// delivery applies the effector it decoded, and its record names that
// effector, not the origin's.
func TestCodecDeliveryRecordsTheDecodedEffector(t *testing.T) {
	for _, alg := range registry.All() {
		dec := func(b []byte) (crdt.Effector, error) {
			eff, err := alg.DecodeEffector(b)
			if err != nil {
				return nil, err
			}
			return decoded{eff}, nil
		}
		script := GenScript(alg.New(), alg.Abs, GenFunc(alg.GenOp), 3, 12, 5, alg.NeedsCausal)
		var opts []Option
		if alg.NeedsCausal {
			opts = append(opts, WithCausalDelivery())
		}
		c := NewCluster(alg.New(), 3, append(opts, WithWireCodec(dec))...)
		drive(t, c, script, rand.New(rand.NewSource(5)))
		tr := c.Trace()
		origins := originsOf(tr)
		deliveries := 0
		for i, e := range tr {
			if e.IsOrigin {
				continue
			}
			o := origins[e.MID]
			if _, ok := e.Eff.(decoded); !ok || e.Record == o.Record {
				t.Fatalf("%s event %d %s: the delivery records %T, not the effector it decoded", alg.Name, i, e, e.Eff)
			}
			if !e.Ret.IsNil() || !e.Op.Equal(o.Op) || !sameEncoding(e.Eff, o.Eff) {
				t.Fatalf("%s event %d %s: delivery records %s=%s %s, its origin %s %s", alg.Name, i, e, e.Op, e.Ret, e.Eff, o.Op, o.Eff)
			}
			deliveries++
		}
		if deliveries == 0 {
			t.Fatalf("%s: no deliveries to check", alg.Name)
		}
	}
}

// TestResyncSharesTheOriginRecord: the delivery events a fresh resync
// appends, from a snapshot or from the log, point at their origins'
// records too.
func TestResyncSharesTheOriginRecord(t *testing.T) {
	for _, alg := range registry.All() {
		for _, snap := range []bool{false, true} {
			script := GenScript(alg.New(), alg.Abs, GenFunc(alg.GenOp), 3, 14, 11, alg.NeedsCausal)
			opts := []Option{WithCausalDelivery()}
			if snap {
				opts = append(opts, WithSnapshots(4, alg.DecodeState))
			}
			c := NewCluster(alg.New(), 3, opts...)
			runResync(t, c, script, 1, 11)
			notes := c.RecoveryNotes()
			if len(notes) != 1 || notes[0].FromSnapshot != snap || notes[0].NewEvents == 0 {
				t.Fatalf("%s snapshots=%v: recovery %v appended no deliveries to check", alg.Name, snap, notes)
			}
			checkShared(t, c.Trace())
		}
	}
}

// render renders every event with its record's contents.
func render(tr trace.Trace) []string {
	out := make([]string, len(tr))
	for i, e := range tr {
		out[i] = e.String() + "|" + e.Ret.String() + "|" + string(e.Eff.AppendBinary(nil))
	}
	return out
}

// TestCloneLeavesTheSourceTrace: a clone shares the source's records, and
// its later invocations and deliveries leave the source's trace as it was.
func TestCloneLeavesTheSourceTrace(t *testing.T) {
	alg := registry.RGA()
	script := GenScript(alg.New(), alg.Abs, GenFunc(alg.GenOp), 3, 16, 3, false)
	c := NewCluster(alg.New(), 3)
	rng := rand.New(rand.NewSource(3))
	invoke := func(c *Cluster, so ScriptOp) {
		// The script was generated on a drained cluster; these deliver
		// only partially, so a precondition may fail.
		if _, _, err := c.Invoke(so.Node, so.Op); err != nil && !errors.Is(err, crdt.ErrAssume) {
			t.Fatal(err)
		}
		c.DeliverRandom(rng)
	}
	for _, so := range script[:8] {
		invoke(c, so)
	}
	before, text := c.Trace(), render(c.Trace())
	cp := c.Clone()
	for _, so := range script[8:] {
		invoke(cp, so)
	}
	cp.DeliverAll()
	if !slices.Equal(c.Trace(), before) || !slices.Equal(render(c.Trace()), text) {
		t.Fatalf("the clone's steps changed the source's trace:\n%s\nwant\n%s", c.Trace(), trace.Trace(before))
	}
	if got := cp.Trace(); len(got) <= len(before) || !slices.Equal(got[:len(before)], before) {
		t.Fatalf("the clone's trace does not extend the source's, records shared")
	}
}
