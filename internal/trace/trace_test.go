package trace

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/crdt"
	"repro/internal/model"
)

// effNop is a trivial non-identity effector for trace-shape tests.
type effNop struct{ tag string }

func (e effNop) Apply(s crdt.State) crdt.State { return s }
func (e effNop) String() string                { return "Nop(" + e.tag + ")" }
func (e effNop) AppendBinary(b []byte) []byte  { return append(b, e.String()...) }

func origin(mid model.MsgID, node model.NodeID, op string) Event {
	return Event{MID: mid, Node: node, Origin: node, IsOrigin: true,
		Record: &Record{Op: model.Op{Name: model.OpName(op)}, Eff: effNop{op}}}
}

func deliver(mid model.MsgID, to, from model.NodeID, op string) Event {
	return Event{MID: mid, Node: to, Origin: from, IsOrigin: false,
		Record: &Record{Op: model.Op{Name: model.OpName(op)}, Eff: effNop{op}}}
}

func queryEvent(mid model.MsgID, node model.NodeID) Event {
	return Event{MID: mid, Node: node, Origin: node, IsOrigin: true,
		Record: &Record{Op: model.Op{Name: "read"}, Eff: crdt.IdEff{}}}
}

func TestRestrictAndOrigins(t *testing.T) {
	tr := Trace{
		origin(1, 0, "a"),
		deliver(1, 1, 0, "a"),
		origin(2, 1, "b"),
		deliver(2, 0, 1, "b"),
	}
	if got := tr.Restrict(0); len(got) != 2 || got[0].MID != 1 || got[1].MID != 2 {
		t.Fatalf("Restrict(0) = %v", got)
	}
	if got := tr.Origins(); len(got) != 2 {
		t.Fatalf("Origins = %v", got)
	}
	if e, ok := tr.OriginOf(2); !ok || e.Node != 1 {
		t.Fatal("OriginOf failed")
	}
	if _, ok := tr.OriginOf(99); ok {
		t.Fatal("OriginOf hallucinated")
	}
	if nodes := tr.Nodes(); len(nodes) != 2 || nodes[0] != 0 || nodes[1] != 1 {
		t.Fatalf("Nodes = %v", nodes)
	}
}

func TestVisibility(t *testing.T) {
	tr := Trace{
		origin(1, 0, "a"),
		origin(2, 1, "b"), // issued before receiving 1: concurrent
		deliver(1, 1, 0, "a"),
		origin(3, 1, "c"), // sees 1 and 2
	}
	vis := tr.VisibleSet(1)
	if !vis[1] || !vis[2] || !vis[3] {
		t.Fatalf("VisibleSet(1) = %v", vis)
	}
	if tr.VisibleSet(0)[2] {
		t.Fatal("node 0 must not see op 2")
	}
	pairs := tr.VisPairs(1)
	if !pairs[[2]model.MsgID{1, 3}] || !pairs[[2]model.MsgID{2, 3}] {
		t.Fatalf("VisPairs(1) = %v", pairs)
	}
	if pairs[[2]model.MsgID{1, 2}] {
		t.Fatal("1 must not be visible to 2 (issued before delivery)")
	}
	hb := tr.HappensBefore()
	if !hb[3][1] || !hb[3][2] || hb[2][1] || hb[1][2] {
		t.Fatalf("hb = %v", hb)
	}
	if !Concurrent(hb, 1, 2) || Concurrent(hb, 1, 3) || Concurrent(hb, 1, 1) {
		t.Fatal("Concurrent wrong")
	}
}

func TestHappensBeforeTransitive(t *testing.T) {
	tr := Trace{
		origin(1, 0, "a"),
		deliver(1, 1, 0, "a"),
		origin(2, 1, "b"), // 1 → 2
		deliver(2, 2, 1, "b"),
		origin(3, 2, "c"), // 2 → 3, so 1 → 3 transitively
	}
	hb := tr.HappensBefore()
	if !hb[3][1] {
		t.Fatal("happens-before must be transitive")
	}
}

func TestCausalDelivery(t *testing.T) {
	cases := []struct {
		name string
		tr   Trace
		want bool
	}{
		{"1 → 2 delivered in order everywhere", Trace{
			origin(1, 0, "a"),
			deliver(1, 1, 0, "a"),
			origin(2, 1, "b"),
			deliver(2, 0, 1, "b"),
			deliver(1, 2, 0, "a"),
			deliver(2, 2, 1, "b"),
		}, true},
		{"node 2 gets op 2 before its dependency op 1", Trace{
			origin(1, 0, "a"),
			deliver(1, 1, 0, "a"),
			origin(2, 1, "b"),
			deliver(2, 2, 1, "b"),
			deliver(1, 2, 0, "a"),
		}, false},
		{"the dependency never reaches node 2", Trace{
			origin(1, 0, "a"),
			deliver(1, 1, 0, "a"),
			origin(2, 1, "b"),
			deliver(2, 2, 1, "b"),
		}, false},
		{"queries impose no delivery obligations", Trace{
			origin(1, 0, "a"),
			deliver(1, 1, 0, "a"),
			queryEvent(2, 1),
			origin(3, 1, "b"),
			deliver(3, 0, 1, "b"),
		}, true},
	}
	for _, c := range cases {
		if got := c.tr.CausalDelivery(); got != c.want {
			t.Errorf("%s: CausalDelivery() = %v, want %v", c.name, got, c.want)
		}
		if got := c.tr.CausalDeliveryOver(c.tr.HappensBefore()); got != c.want {
			t.Errorf("%s: CausalDeliveryOver(hb) = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestEventLayout guards the size of an event, which points at its
// operation's shared record instead of carrying the operation, return value
// and effector: the simulator's traces and the checkers' corpora hold one
// event per step, and deliveries outnumber origins.
func TestEventLayout(t *testing.T) {
	if got := reflect.TypeOf(Event{}).Size(); got != 40 {
		t.Errorf("Event is %d bytes, want 40", got)
	}
}

func TestCheckWellFormed(t *testing.T) {
	good := Trace{origin(1, 0, "a"), deliver(1, 1, 0, "a")}
	if err := good.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		tr   Trace
		want string
	}{
		{"duplicate origin", Trace{origin(1, 0, "a"), origin(1, 1, "a")}, "duplicate origin"},
		{"delivery before origin", Trace{deliver(1, 1, 0, "a")}, "before origin"},
		{"delivery to origin node", Trace{origin(1, 0, "a"), deliver(1, 0, 0, "a")}, "origin node"},
		{"double delivery", Trace{origin(1, 0, "a"), deliver(1, 1, 0, "a"), deliver(1, 1, 0, "a")}, "twice"},
		{"wrong origin recorded", Trace{origin(1, 0, "a"), deliver(1, 1, 2, "a")}, "wrong origin"},
		{"identity delivered", Trace{queryEvent(1, 0), {MID: 1, Node: 1, Origin: 0, Record: queryEvent(1, 0).Record}}, "identity"},
	}
	for _, c := range cases {
		err := c.tr.CheckWellFormed()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
	// Mismatched origin-node field on an origin event.
	bad := Trace{{MID: 1, Node: 0, Origin: 2, IsOrigin: true, Record: origin(1, 0, "a").Record}}
	if err := bad.CheckWellFormed(); err == nil {
		t.Error("origin/node mismatch accepted")
	}
}

func TestEventString(t *testing.T) {
	e := origin(1, 0, "a")
	if !strings.Contains(e.String(), "m1") || !strings.Contains(e.String(), "t0") {
		t.Errorf("String = %q", e.String())
	}
	d := deliver(1, 1, 0, "a")
	if !strings.Contains(d.String(), "deliver") {
		t.Errorf("String = %q", d.String())
	}
	tr := Trace{e, d}
	if lines := strings.Split(tr.String(), "\n"); len(lines) != 2 {
		t.Errorf("Trace.String = %q", tr.String())
	}
}

func TestRender(t *testing.T) {
	tr := Trace{
		origin(1, 0, "a"),
		deliver(1, 1, 0, "a"),
		origin(2, 1, "b"),
	}
	out := Render(tr)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("render rows = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "t0 │") || !strings.HasPrefix(lines[1], "t1 │") {
		t.Errorf("row prefixes wrong:\n%s", out)
	}
	if !strings.Contains(lines[0], "●m1") || !strings.Contains(lines[1], "↓m1") || !strings.Contains(lines[1], "●m2") {
		t.Errorf("markers missing:\n%s", out)
	}
	if Render(Trace{}) != "(empty trace)" {
		t.Error("empty trace rendering")
	}
	// Return values are shown on origin events.
	withRet := Trace{{MID: 3, Node: 0, Origin: 0, IsOrigin: true,
		Record: &Record{Op: model.Op{Name: "read"}, Ret: model.Int(4), Eff: effNop{"read"}}}}
	if !strings.Contains(Render(withRet), "=4") {
		t.Errorf("return value missing: %s", Render(withRet))
	}
}

func TestSummarize(t *testing.T) {
	tr := Trace{
		origin(1, 0, "a"),
		deliver(1, 1, 0, "a"),
		origin(2, 1, "b"), // after a
		origin(3, 0, "c"), // concurrent with b
		queryEvent(4, 0),
	}
	s := Summarize(tr)
	if s.Events != 5 || s.Origins != 4 || s.Deliveries != 1 || s.Queries != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.PerNode[0] != [2]int{3, 0} || s.PerNode[1] != [2]int{1, 1} {
		t.Fatalf("per-node = %v", s.PerNode)
	}
	// Pairs among {1,2,3,4}: (1,2) ordered, (1,3) ordered (same node),
	// (1,4) ordered, (2,3) concurrent, (2,4) concurrent? 4 at node 0 after 3
	// and after receiving... node 0 never received 2 → concurrent,
	// (3,4) ordered.
	if s.ConcurrentPairs != 2 || s.OrderedPairs != 4 {
		t.Fatalf("pairs = %d concurrent / %d ordered", s.ConcurrentPairs, s.OrderedPairs)
	}
	if s.Concurrency() <= 0.3 || s.Concurrency() >= 0.4 {
		t.Fatalf("concurrency = %v", s.Concurrency())
	}
	if !strings.Contains(s.String(), "t0: 3 issued") {
		t.Errorf("rendering: %q", s.String())
	}
	if (Stats{}).Concurrency() != 0 {
		t.Error("empty concurrency should be 0")
	}
}
