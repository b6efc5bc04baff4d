package transport

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/model"
)

// mapMem is Mem's network as it was when each inbox was a map keyed by
// (object, mid): the oracle TestMemMatchesMapOracle holds the sorted inboxes
// to. It keeps only the queue, the clock and the partition.
type mapMem struct {
	n, now    int
	inbox     []map[mapKey]*Queued
	partition []int
}

type mapKey struct {
	obj ObjID
	mid model.MsgID
}

func newMapMem(n int) *mapMem {
	m := &mapMem{n: n}
	for i := 0; i < n; i++ {
		m.inbox = append(m.inbox, map[mapKey]*Queued{})
	}
	return m
}

func (m *mapMem) put(dst model.NodeID, q *Queued) {
	m.inbox[dst][mapKey{q.Frame.Obj, q.Frame.MID}] = q
}

func (m *mapMem) get(dst model.NodeID, mid model.MsgID) (*Queued, bool) {
	q, ok := m.inbox[dst][mapKey{mid: mid}]
	return q, ok
}

func (m *mapMem) take(dst model.NodeID, k mapKey) (*Queued, bool) {
	q, ok := m.inbox[dst][k]
	if !ok {
		return nil, false
	}
	if q.Copies > 1 {
		cp := *q
		cp.Copies--
		m.inbox[dst][k] = &cp
	} else {
		delete(m.inbox[dst], k)
	}
	return q, true
}

func (m *mapMem) remove(dst model.NodeID, mid model.MsgID) bool {
	if _, ok := m.inbox[dst][mapKey{mid: mid}]; !ok {
		return false
	}
	delete(m.inbox[dst], mapKey{mid: mid})
	return true
}

func (m *mapMem) mids(dst model.NodeID) []model.MsgID {
	out := make([]model.MsgID, 0, len(m.inbox[dst]))
	for k := range m.inbox[dst] {
		if k.obj == 0 {
			out = append(out, k.mid)
		}
	}
	slices.Sort(out)
	return out
}

func (m *mapMem) linked(a, b model.NodeID) bool {
	return m.partition == nil || m.partition[a] == m.partition[b]
}

func (m *mapMem) pendingTo(dst model.NodeID) int {
	n := 0
	for _, q := range m.inbox[dst] {
		n += q.Copies
	}
	return n
}

func (m *mapMem) nextArrival(skip func(dst model.NodeID) bool) (int, bool) {
	best, found := 0, false
	for dst, box := range m.inbox {
		if skip != nil && skip(model.NodeID(dst)) {
			continue
		}
		for _, q := range box {
			if m.linked(q.Frame.From, model.NodeID(dst)) && q.ReadyAt > m.now && (!found || q.ReadyAt < best) {
				best, found = q.ReadyAt, true
			}
		}
	}
	return best, found
}

func (m *mapMem) inFlightBytesAcross() int {
	if m.partition == nil {
		return 0
	}
	total := 0
	for dst, box := range m.inbox {
		for _, q := range box {
			if !m.linked(q.Frame.From, model.NodeID(dst)) {
				total += len(q.Frame.Payload) * q.Copies
			}
		}
	}
	return total
}

func (m *mapMem) clone() *mapMem {
	cp := &mapMem{n: m.n, now: m.now, partition: append([]int(nil), m.partition...)}
	for _, box := range m.inbox {
		cp.inbox = append(cp.inbox, maps.Clone(box))
	}
	return cp
}

// recv is a Mem endpoint's Recv: the ready copy with the smallest (arrival
// tick, object, mid), advancing the clock to the next arrival while waiting.
func (m *mapMem) recv(self model.NodeID, wait bool) (Frame, bool) {
	for {
		var best mapKey
		found, bestAt := false, 0
		for k, q := range m.inbox[self] {
			if !m.linked(q.Frame.From, self) || q.ReadyAt > m.now {
				continue
			}
			if !found || q.ReadyAt < bestAt ||
				(q.ReadyAt == bestAt && (k.obj < best.obj || (k.obj == best.obj && k.mid < best.mid))) {
				best, bestAt, found = k, q.ReadyAt, true
			}
		}
		if found {
			q, _ := m.take(self, best)
			return q.Frame, true
		}
		if !wait {
			return Frame{}, false
		}
		next, ok := m.nextArrival(func(dst model.NodeID) bool { return dst != self })
		if !ok {
			return Frame{}, false
		}
		if next > m.now {
			m.now = next
		}
	}
}

// queuedString renders a copy set's key and scheduling state.
func queuedString(q *Queued) string {
	return fmt.Sprintf("%d/%s×%d@%d", q.Frame.Obj, q.Frame.MID, q.Copies, q.ReadyAt)
}

// sameNetwork fails t unless got and want agree on every observation the
// simulator and the endpoints make.
func sameNetwork(t *testing.T, step int, got *Mem, want *mapMem) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d: "+format, append([]any{step}, args...)...)
	}
	if got.Now() != want.now {
		fail("now %d, want %d", got.Now(), want.now)
	}
	total := 0
	for dst := model.NodeID(0); int(dst) < want.n; dst++ {
		var gq, wq []string
		for _, q := range got.Queue(dst) {
			gq = append(gq, queuedString(q))
		}
		var keys []mapKey
		for k := range want.inbox[dst] {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, func(a, b mapKey) int {
			return cmp.Or(cmp.Compare(a.obj, b.obj), cmp.Compare(a.mid, b.mid))
		})
		for _, k := range keys {
			wq = append(wq, queuedString(want.inbox[dst][k]))
		}
		if !slices.Equal(gq, wq) {
			fail("node %s queue %v, want %v", dst, gq, wq)
		}
		if g, w := got.Mids(dst), want.mids(dst); !slices.Equal(g, w) {
			fail("node %s mids %v, want %v", dst, g, w)
		}
		for mid := model.MsgID(0); mid <= 9; mid++ {
			g, gok := got.Get(dst, mid)
			w, wok := want.get(dst, mid)
			if gok != wok || gok && queuedString(g) != queuedString(w) {
				fail("node %s Get(%s) = %v, want %v", dst, mid, g, w)
			}
		}
		if g, w := got.PendingTo(dst), want.pendingTo(dst); g != w {
			fail("node %s pending %d, want %d", dst, g, w)
		}
		total += want.pendingTo(dst)
	}
	if got.Pending() != total {
		fail("pending %d, want %d", got.Pending(), total)
	}
	for skip := model.NodeID(-1); int(skip) < want.n; skip++ {
		g, gok := got.NextArrival(func(d model.NodeID) bool { return d == skip })
		w, wok := want.nextArrival(func(d model.NodeID) bool { return d == skip })
		if g != w || gok != wok {
			fail("next arrival skipping %s = %d %v, want %d %v", skip, g, gok, w, wok)
		}
	}
	if g, w := got.InFlightBytesAcross(), want.inFlightBytesAcross(); g != w {
		fail("in-flight bytes across %d, want %d", g, w)
	}
}

// TestMemMatchesMapOracle drives Mem and mapMem through the same random
// mutations — puts over three objects, replacements, takes of duplicated
// copies, removes, clears, clock moves, partitions, endpoint receives — and
// clones each now and then, mutating the two sides of a clone differently.
// Both networks hold the same *Queued values, so a copy set either one
// mutated in place instead of copy-on-write would show in the other. After
// every step each Mem must match its oracle on every observation.
func TestMemMatchesMapOracle(t *testing.T) {
	const n = 3
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		type pair struct {
			got  *Mem
			want *mapMem
		}
		nets := []pair{{NewMem(n), newMapMem(n)}}
		for step := 0; step < 400; step++ {
			p := &nets[rng.Intn(len(nets))]
			dst := model.NodeID(rng.Intn(n))
			mid := model.MsgID(1 + rng.Intn(8))
			switch op := rng.Intn(20); {
			case op < 8:
				q := &Queued{
					Frame: Frame{
						Obj: []ObjID{0, 0, 1, 2}[rng.Intn(4)], MID: mid, From: model.NodeID(rng.Intn(n)),
						Payload: make([]byte, rng.Intn(5)),
					},
					Copies:  1 + rng.Intn(3),
					ReadyAt: p.want.now + rng.Intn(4),
				}
				p.got.Put(dst, q)
				p.want.put(dst, q)
			case op < 11:
				g, gok := p.got.Take(dst, mid)
				w, wok := p.want.take(dst, mapKey{mid: mid})
				if gok != wok || gok && queuedString(g) != queuedString(w) {
					t.Fatalf("seed %d step %d: Take(%s, %s) = %v %v, want %v %v", seed, step, dst, mid, g, gok, w, wok)
				}
			case op < 13:
				if g, w := p.got.Remove(dst, mid), p.want.remove(dst, mid); g != w {
					t.Fatalf("seed %d step %d: Remove(%s, %s) = %v, want %v", seed, step, dst, mid, g, w)
				}
			case op < 14:
				p.got.Clear(dst)
				p.want.inbox[dst] = map[mapKey]*Queued{}
			case op < 15:
				p.got.Tick()
				p.want.now++
			case op < 16:
				if p.got.Partitioned() {
					p.got.Heal()
					p.want.partition = nil
				} else {
					side := []int{0, rng.Intn(2), rng.Intn(2)}
					p.got.SetPartition(side)
					p.want.partition = side
				}
			case op < 19:
				wait := rng.Intn(2) == 0
				g, gok, err := p.got.Endpoint(dst).Recv(wait)
				w, wok := p.want.recv(dst, wait)
				if err != nil || gok != wok || g.Obj != w.Obj || g.MID != w.MID {
					t.Fatalf("seed %d step %d: node %s Recv(%v) = %d/%s %v %v, want %d/%s %v",
						seed, step, dst, wait, g.Obj, g.MID, gok, err, w.Obj, w.MID, wok)
				}
			default:
				if len(nets) < 4 {
					nets = append(nets, pair{p.got.Clone(), p.want.clone()})
				}
			}
			for _, q := range nets {
				sameNetwork(t, step, q.got, q.want)
			}
		}
	}
}
