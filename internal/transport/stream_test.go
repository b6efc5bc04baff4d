package transport_test

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/crdt"
	"repro/internal/crdts/registry"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/transport"
)

// unixAddrs returns a full-mesh address table of n unix sockets in a fresh
// temp dir.
func unixAddrs(t *testing.T, n int) []string {
	t.Helper()
	dir := t.TempDir()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "unix:" + filepath.Join(dir, fmt.Sprintf("n%d.sock", i))
	}
	return addrs
}

// runStreamPeer opens node id's endpoint, replicates its share of the
// script, and returns the canonical state at quiescence. Extra options (a
// batching policy, say) are applied on top of the receive timeout.
func runStreamPeer(alg registry.Algorithm, id model.NodeID, addrs []string, script sim.Script, opts ...transport.StreamOption) ([]byte, error) {
	st, err := transport.Listen(id, addrs, append([]transport.StreamOption{transport.WithRecvTimeout(10 * time.Second)}, opts...)...)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	n, p := hostSolo(st, alg)
	for _, so := range script {
		if so.Node != id {
			continue
		}
		if _, err := p.Invoke(so.Op); err != nil && !errors.Is(err, crdt.ErrAssume) {
			return nil, err
		}
		// Interleave receive progress so peers see each other's broadcasts.
		if _, err := n.Step(false); err != nil {
			return nil, err
		}
	}
	if err := p.Done(); err != nil {
		return nil, err
	}
	if err := n.RunToQuiescence(15 * time.Second); err != nil {
		return nil, err
	}
	return p.CanonicalState(), nil
}

// TestStreamMeshConverges replicates an object across endpoints connected by
// real unix sockets inside one process: every peer must reach the
// byte-identical canonical state — the same Peer/frame/decoder stack the
// two-process demo and the deterministic Mem tests use.
func TestStreamMeshConverges(t *testing.T) {
	alg, ok := registry.ByName("rga")
	if !ok {
		t.Fatal("rga not registered")
	}
	const n = 3
	script := sim.GenScript(alg.New(), alg.Abs, sim.GenFunc(alg.GenOp), n, 12, 3, alg.NeedsCausal)
	addrs := unixAddrs(t, n)
	results := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = runStreamPeer(alg, model.NodeID(i), addrs, script)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(results[i], results[0]) {
			t.Fatalf("peer %d's canonical state differs from peer 0's", i)
		}
	}
}

// TestStreamMeshConvergesBatched reruns the unix mesh with a different batch
// policy on every peer — an 8-frame cap, a 3-frame cap with a shorter delay,
// and no batching at all — and still demands byte-identical convergence: the
// batching layer is pure wire plumbing and must never change replication
// semantics.
func TestStreamMeshConvergesBatched(t *testing.T) {
	alg, ok := registry.ByName("aw-set")
	if !ok {
		t.Fatal("aw-set not registered")
	}
	const n = 3
	script := sim.GenScript(alg.New(), alg.Abs, sim.GenFunc(alg.GenOp), n, 12, 7, alg.NeedsCausal)
	addrs := unixAddrs(t, n)
	policies := [n][]transport.StreamOption{
		{transport.WithBatching(transport.BatchPolicy{MaxFrames: 8, MaxDelay: 5 * time.Millisecond})},
		{transport.WithBatching(transport.BatchPolicy{MaxFrames: 3, MaxDelay: 2 * time.Millisecond})},
		{}, // unbatched leg
	}
	results := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = runStreamPeer(alg, model.NodeID(i), addrs, script, policies[i]...)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(results[i], results[0]) {
			t.Fatalf("peer %d's canonical state differs from peer 0's", i)
		}
	}
}

// TestStreamTCPPair smoke-tests the tcp network flavour with a two-node pair
// on loopback.
func TestStreamTCPPair(t *testing.T) {
	alg, ok := registry.ByName("counter")
	if !ok {
		t.Fatal("counter not registered")
	}
	script := sim.GenScript(alg.New(), alg.Abs, sim.GenFunc(alg.GenOp), 2, 10, 9, false)
	results := make([][]byte, 2)
	err := transport.OnLoopbackPorts(t, 2, func(addrs []string) error {
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i], errs[i] = runStreamPeer(alg, model.NodeID(i), addrs, script)
			}()
		}
		wg.Wait()
		return errors.Join(errs...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Fatal("tcp peers did not converge to byte-identical state")
	}
}

// TestOnLoopbackPortsRetriesTakenPort: when another process binds a
// reserved port before the endpoint does, the endpoint's Listen fails with
// EADDRINUSE and OnLoopbackPorts runs the attempt again on fresh ports; any
// other error ends the attempts.
func TestOnLoopbackPortsRetriesTakenPort(t *testing.T) {
	attempts := 0
	err := transport.OnLoopbackPorts(t, 2, func(addrs []string) error {
		if attempts++; attempts > 1 {
			return nil
		}
		ln, err := net.Listen("tcp", strings.TrimPrefix(addrs[0], "tcp:"))
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		_, err = transport.Listen(0, addrs)
		return err
	})
	if err != nil || attempts != 2 {
		t.Fatalf("err = %v after %d attempts, want nil after 2", err, attempts)
	}
	attempts = 0
	other := errors.New("not a taken port")
	err = transport.OnLoopbackPorts(t, 2, func([]string) error { attempts++; return other })
	if err != other || attempts != 1 {
		t.Fatalf("err = %v after %d attempts, want %v after 1", err, attempts, other)
	}
}

// TestStreamRejectsGarbage connects a non-peer to a listening endpoint and
// checks the handshake turns it away.
func TestStreamRejectsGarbage(t *testing.T) {
	addrs := unixAddrs(t, 2)
	done := make(chan error, 1)
	go func() {
		// Node 1 accepts node 0; a garbage dialer must not be mistaken for it.
		st, err := transport.Listen(1, addrs, transport.WithRecvTimeout(time.Second))
		if err == nil {
			st.Close()
		}
		done <- err
	}()
	// Give the listener a moment, then send garbage instead of a handshake.
	var conn net.Conn
	var err error
	for i := 0; i < 100; i++ {
		conn, err = net.Dial("unix", strings.TrimPrefix(addrs[1], "unix:"))
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("definitely not the handshake"))
	conn.Close()
	if err := <-done; err == nil {
		t.Fatal("listener accepted a garbage handshake")
	}
}

// TestStreamAddrValidation covers the address-table guard rails.
func TestStreamAddrValidation(t *testing.T) {
	if _, err := transport.Listen(0, []string{"unix:/tmp/x.sock"}); err == nil {
		t.Error("1-entry table accepted")
	}
	if _, err := transport.Listen(5, []string{"unix:/tmp/a", "unix:/tmp/b"}); err == nil {
		t.Error("out-of-table self accepted")
	}
	if _, err := transport.Listen(0, []string{"udp:1.2.3.4:5", "unix:/tmp/b"}); err == nil {
		t.Error("unsupported network accepted")
	}
	if _, err := transport.Listen(0, []string{"nonsense", "unix:/tmp/b"}); err == nil {
		t.Error("unparseable address accepted")
	}
}

// snapScript is the always-effectful share script the snapshot catch-up
// tests replicate: six counter increments per node, round-robin. Counter ops
// never skip on preconditions, which makes the compaction assertions
// deterministic: by connection FIFO every peer's effector frames precede its
// Done frame, so the Done-triggered compaction at the other early peer always
// finds them acknowledged and truncates. (Algorithms whose ops can skip are
// covered by the conformance battery's socket snapshot catch-up item.)
func snapScript(n int) sim.Script {
	script := make(sim.Script, 0, 6*n)
	for i := 0; i < 6*n; i++ {
		script = append(script, sim.ScriptOp{
			Node: model.NodeID(i % n),
			Op:   model.Op{Name: spec.OpInc, Arg: model.Int(int64(1 + i))},
		})
	}
	return script
}

// TestStreamLateJoinerCatchesUp runs the snapshot catch-up protocol over
// real unix sockets inside one process: two early peers (one batched)
// replicate their script share and compact under a SnapshotPolicy; a third
// peer joins late — admitted by the background acceptor — catches up via
// CatchUp and Node.AwaitCatchUp, replicates its own share, and everyone
// must converge byte-identically. The Every=0 leg serves the full log as
// suffix instead of a checkpoint, and must converge to the same bytes.
func TestStreamLateJoinerCatchesUp(t *testing.T) {
	alg, ok := registry.ByName("counter")
	if !ok {
		t.Fatal("counter not registered")
	}
	for _, leg := range []struct {
		name  string
		every int
	}{
		{"compacting", 3},
		{"full-replay", 0},
	} {
		leg := leg
		t.Run(leg.name, func(t *testing.T) {
			const n = 3
			script := snapScript(n)
			addrs := unixAddrs(t, n)
			type result struct {
				state []byte
				stats transport.SnapStats
				err   error
			}
			results := make([]result, n)
			// Early peers signal once they have each other's Done — their final
			// pre-join compaction has run — so the joiner's snapshot request
			// always finds a checkpoint in the compacting leg.
			ready := make(chan struct{}, 2)
			var wg sync.WaitGroup
			early := func(id model.NodeID, opts ...transport.StreamOption) {
				defer wg.Done()
				res := &results[id]
				st, err := transport.Listen(id, addrs, append([]transport.StreamOption{
					transport.WithRecvTimeout(10 * time.Second), transport.WithLateJoiners(2)}, opts...)...)
				if err != nil {
					res.err = err
					return
				}
				defer st.Close()
				n, p := hostSolo(st, alg, transport.WithSnapshotPolicy(transport.SnapshotPolicy{Every: leg.every}))
				for _, so := range script {
					if so.Node != id {
						continue
					}
					if _, err := p.Invoke(so.Op); err != nil && !errors.Is(err, crdt.ErrAssume) {
						res.err = err
						return
					}
					if _, err := n.Step(false); err != nil {
						res.err = err
						return
					}
				}
				if err := p.Done(); err != nil {
					res.err = err
					return
				}
				for p.DonePeers() < 1 {
					if _, err := n.Step(true); err != nil {
						res.err = err
						return
					}
				}
				ready <- struct{}{}
				if err := n.RunToQuiescence(20 * time.Second); err != nil {
					res.err = err
					return
				}
				res.state, res.stats = p.CanonicalState(), p.SnapshotStats()
			}
			wg.Add(3)
			go early(0)
			go early(1, transport.WithBatching(transport.BatchPolicy{MaxFrames: 6, MaxDelay: 3 * time.Millisecond}))
			go func() {
				defer wg.Done()
				res := &results[2]
				<-ready
				<-ready
				st, err := transport.Listen(2, addrs,
					transport.WithRecvTimeout(10*time.Second), transport.AsLateJoiner())
				if err != nil {
					res.err = err
					return
				}
				defer st.Close()
				n, p := hostSolo(st, alg, transport.WithCatchUp(alg.DecodeState))
				if err := p.CatchUp(); err != nil {
					res.err = err
					return
				}
				if err := n.AwaitCatchUp(10 * time.Second); err != nil {
					res.err = err
					return
				}
				for _, so := range script {
					if so.Node != 2 {
						continue
					}
					if _, err := p.Invoke(so.Op); err != nil && !errors.Is(err, crdt.ErrAssume) {
						res.err = err
						return
					}
					if _, err := n.Step(false); err != nil {
						res.err = err
						return
					}
				}
				if err := p.Done(); err != nil {
					res.err = err
					return
				}
				if err := n.RunToQuiescence(20 * time.Second); err != nil {
					res.err = err
					return
				}
				res.state, res.stats = p.CanonicalState(), p.SnapshotStats()
			}()
			wg.Wait()
			for i, r := range results {
				if r.err != nil {
					t.Fatalf("peer %d: %v", i, r.err)
				}
			}
			for i := 1; i < n; i++ {
				if !bytes.Equal(results[i].state, results[0].state) {
					t.Fatalf("peer %d's canonical state differs from peer 0's", i)
				}
			}
			js := results[2].stats
			if !js.Installed || js.FellBack {
				t.Fatalf("joiner did not install a snapshot: %+v", js)
			}
			if leg.every > 0 {
				if js.InstallCovered == 0 {
					t.Fatalf("compacting leg installed nothing via the checkpoint: %+v", js)
				}
				for i := 0; i < 2; i++ {
					es := results[i].stats
					if es.Checkpoints == 0 || es.LogTruncated == 0 {
						t.Fatalf("early peer %d never compacted: %+v", i, es)
					}
				}
			} else if js.InstallCovered != 0 || js.InstallSuffix == 0 {
				t.Fatalf("full-replay leg should serve everything as suffix: %+v", js)
			}
		})
	}
}

const (
	peerHelperEnv   = "CRDT_STREAM_PEER_HELPER"
	peerHelperBatch = "CRDT_STREAM_PEER_BATCH"
	peerHelperMark  = "CANONICAL-STATE "
	peerHelperAlg   = "rga"
	peerHelperOps   = 14
	peerHelperSeed  = 21
	peerHelperNodes = 2
)

// helperBatchOpts turns the optional CRDT_STREAM_PEER_BATCH env value
// ("maxFrames,maxDelay", e.g. "8,5ms") into stream options.
func helperBatchOpts(cfg string) ([]transport.StreamOption, error) {
	if cfg == "" {
		return nil, nil
	}
	parts := strings.Split(cfg, ",")
	if len(parts) != 2 {
		return nil, fmt.Errorf("bad batch config %q: want maxFrames,maxDelay", cfg)
	}
	frames, err := strconv.Atoi(parts[0])
	if err != nil {
		return nil, fmt.Errorf("bad batch frame cap %q: %v", parts[0], err)
	}
	delay, err := time.ParseDuration(parts[1])
	if err != nil {
		return nil, fmt.Errorf("bad batch delay %q: %v", parts[1], err)
	}
	return []transport.StreamOption{transport.WithBatching(transport.BatchPolicy{MaxFrames: frames, MaxDelay: delay})}, nil
}

// TestStreamTwoProcessHelper is not a test on its own: re-executed as a
// child process by TestStreamTwoOSProcessesConverge, it runs one socket peer
// and prints its canonical state in hex. Without the env marker it skips.
func TestStreamTwoProcessHelper(t *testing.T) {
	cfg := os.Getenv(peerHelperEnv)
	if cfg == "" {
		t.Skip("helper: only runs re-executed as a peer child process")
	}
	parts := strings.SplitN(cfg, ";", 2)
	id, err := strconv.Atoi(parts[0])
	if err != nil || len(parts) != 2 {
		t.Fatalf("bad helper config %q", cfg)
	}
	addrs := strings.Split(parts[1], ",")
	alg, ok := registry.ByName(peerHelperAlg)
	if !ok {
		t.Fatalf("%s not registered", peerHelperAlg)
	}
	opts, err := helperBatchOpts(os.Getenv(peerHelperBatch))
	if err != nil {
		t.Fatal(err)
	}
	// Both processes generate the identical script from the fixed seed and
	// invoke only their own node's share — no coordination beyond the socket.
	script := sim.GenScript(alg.New(), alg.Abs, sim.GenFunc(alg.GenOp),
		peerHelperNodes, peerHelperOps, peerHelperSeed, alg.NeedsCausal)
	state, err := runStreamPeer(alg, model.NodeID(id), addrs, script, opts...)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println(peerHelperMark + hex.EncodeToString(state))
}

// runTwoProcessLeg re-executes the test binary twice as socket peers (with
// batchCfg exported to both children when non-empty) and returns the hex
// canonical state each child printed.
func runTwoProcessLeg(t *testing.T, batchCfg string) []string {
	t.Helper()
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	addrs := []string{
		"unix:" + filepath.Join(dir, "n0.sock"),
		"unix:" + filepath.Join(dir, "n1.sock"),
	}
	outs := make([]string, peerHelperNodes)
	errCh := make(chan error, peerHelperNodes)
	var wg sync.WaitGroup
	for i := 0; i < peerHelperNodes; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cmd := exec.Command(bin, "-test.run", "TestStreamTwoProcessHelper$", "-test.v")
			cmd.Env = append(os.Environ(),
				fmt.Sprintf("%s=%d;%s", peerHelperEnv, i, strings.Join(addrs, ",")),
				fmt.Sprintf("%s=%s", peerHelperBatch, batchCfg))
			out, err := cmd.CombinedOutput()
			if err != nil {
				errCh <- fmt.Errorf("child %d: %v\n%s", i, err, out)
				return
			}
			outs[i] = string(out)
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	states := make([]string, peerHelperNodes)
	for i, out := range outs {
		sc := bufio.NewScanner(strings.NewReader(out))
		for sc.Scan() {
			if s, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), peerHelperMark); ok {
				states[i] = s
			}
		}
		if states[i] == "" {
			t.Fatalf("child %d printed no canonical state:\n%s", i, out)
		}
	}
	return states
}

// TestStreamTwoOSProcessesConverge is the cross-process acceptance check:
// two real OS processes (re-executions of this test binary) replicate an RGA
// over a unix socket using the registry's decoders and must print the
// byte-identical canonical state — once unbatched and once with write
// batching enabled on both ends.
func TestStreamTwoOSProcessesConverge(t *testing.T) {
	if os.Getenv(peerHelperEnv) != "" {
		t.Skip("already inside a helper child")
	}
	for _, leg := range []struct{ name, batch string }{
		{"unbatched", ""},
		{"batched", "8,5ms"},
	} {
		leg := leg
		t.Run(leg.name, func(t *testing.T) {
			states := runTwoProcessLeg(t, leg.batch)
			if states[0] != states[1] {
				t.Fatalf("processes diverged:\n p0: %s\n p1: %s", states[0], states[1])
			}
			if len(states[0]) == 0 {
				t.Fatal("empty canonical state")
			}
			t.Logf("both processes converged to canonical state %s…", states[0][:min(16, len(states[0]))])
		})
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

const (
	snapHelperEnv  = "CRDT_STREAM_SNAP_HELPER"
	snapHelperMark = "SNAP-STATS "
)

// TestStreamSnapProcessHelper is not a test on its own: re-executed as a
// child by TestStreamThreeOSProcessSnapshotCatchUp, it runs one of three
// socket peers replicating snapScript. Peers 0 and 1 start together (1 with
// write batching), compact under the snapshot policy, and touch a ready file
// once they hold each other's Done — their final pre-join compaction has run.
// The last peer waits for every ready file before it even listens, then joins
// late and catches up via the snapshot protocol. Each child prints its
// canonical state and its snapshot counters.
func TestStreamSnapProcessHelper(t *testing.T) {
	cfg := os.Getenv(snapHelperEnv)
	if cfg == "" {
		t.Skip("helper: only runs re-executed as a peer child process")
	}
	parts := strings.Split(cfg, ";")
	if len(parts) != 4 {
		t.Fatalf("bad helper config %q", cfg)
	}
	id, errID := strconv.Atoi(parts[0])
	every, errEvery := strconv.Atoi(parts[1])
	readyDir := parts[2]
	addrs := strings.Split(parts[3], ",")
	if errID != nil || errEvery != nil || len(addrs) < 3 {
		t.Fatalf("bad helper config %q", cfg)
	}
	alg, ok := registry.ByName("counter")
	if !ok {
		t.Fatal("counter not registered")
	}
	script := snapScript(len(addrs))
	joiner := model.NodeID(len(addrs) - 1)

	var st *transport.Stream
	var n *transport.Node
	var p *transport.Peer
	var err error
	if model.NodeID(id) == joiner {
		deadline := time.Now().Add(20 * time.Second)
		for waiting := true; waiting; {
			waiting = false
			for i := 0; i < len(addrs)-1; i++ {
				if _, err := os.Stat(filepath.Join(readyDir, fmt.Sprintf("ready-%d", i))); err != nil {
					waiting = true
				}
			}
			if waiting {
				if time.Now().After(deadline) {
					t.Fatal("early peers never signalled ready")
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
		st, err = transport.Listen(joiner, addrs,
			transport.WithRecvTimeout(20*time.Second), transport.AsLateJoiner())
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		n, p = hostSolo(st, alg, transport.WithCatchUp(alg.DecodeState))
		if err := p.CatchUp(); err != nil {
			t.Fatal(err)
		}
		if err := n.AwaitCatchUp(15 * time.Second); err != nil {
			t.Fatal(err)
		}
	} else {
		opts := []transport.StreamOption{
			transport.WithRecvTimeout(20 * time.Second), transport.WithLateJoiners(joiner),
		}
		if id == 1 {
			opts = append(opts, transport.WithBatching(transport.BatchPolicy{MaxFrames: 6, MaxDelay: 3 * time.Millisecond}))
		}
		st, err = transport.Listen(model.NodeID(id), addrs, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		n, p = hostSolo(st, alg, transport.WithSnapshotPolicy(transport.SnapshotPolicy{Every: every}))
	}
	for _, so := range script {
		if so.Node != model.NodeID(id) {
			continue
		}
		if _, err := p.Invoke(so.Op); err != nil && !errors.Is(err, crdt.ErrAssume) {
			t.Fatal(err)
		}
		if _, err := n.Step(false); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Done(); err != nil {
		t.Fatal(err)
	}
	if model.NodeID(id) != joiner {
		for p.DonePeers() < 1 {
			if _, err := n.Step(true); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(readyDir, fmt.Sprintf("ready-%d", id)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.RunToQuiescence(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	fmt.Println(peerHelperMark + hex.EncodeToString(p.CanonicalState()))
	ss := p.SnapshotStats()
	fmt.Printf("%sinstalled=%t covered=%d suffix=%d checkpoints=%d truncated=%d retained=%d\n",
		snapHelperMark, ss.Installed, ss.InstallCovered, ss.InstallSuffix,
		ss.Checkpoints, ss.LogTruncated, ss.LogRetained)
}

// snapStatsLine parses the helper's SNAP-STATS key=value line into a map.
func snapStatsLine(t *testing.T, out string) map[string]string {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), snapHelperMark)
		if !ok {
			continue
		}
		stats := map[string]string{}
		for _, kv := range strings.Fields(line) {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				t.Fatalf("bad stats field %q in line %q", kv, line)
			}
			stats[k] = v
		}
		return stats
	}
	t.Fatalf("child printed no snapshot stats:\n%s", out)
	return nil
}

// TestStreamThreeOSProcessSnapshotCatchUp is the cross-process acceptance
// check for state transfer: three real OS processes replicate a counter over
// unix sockets with compaction every 3 applied frames and write batching on
// one early leg. The third process joins only after both early processes have
// compacted, so it must catch up through a served checkpoint — and all three
// must print the byte-identical canonical state. The early peers' counters
// must show the log was actually truncated (bounded), not merely replayed.
func TestStreamThreeOSProcessSnapshotCatchUp(t *testing.T) {
	if os.Getenv(peerHelperEnv) != "" || os.Getenv(snapHelperEnv) != "" {
		t.Skip("already inside a helper child")
	}
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	dir := t.TempDir()
	readyDir := filepath.Join(dir, "ready")
	if err := os.Mkdir(readyDir, 0o755); err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "unix:" + filepath.Join(dir, fmt.Sprintf("n%d.sock", i))
	}
	outs := make([]string, n)
	errCh := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cmd := exec.Command(bin, "-test.run", "TestStreamSnapProcessHelper$", "-test.v")
			cmd.Env = append(os.Environ(),
				fmt.Sprintf("%s=%d;%d;%s;%s", snapHelperEnv, i, 3, readyDir, strings.Join(addrs, ",")))
			out, err := cmd.CombinedOutput()
			if err != nil {
				errCh <- fmt.Errorf("child %d: %v\n%s", i, err, out)
				return
			}
			outs[i] = string(out)
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	states := make([]string, n)
	for i, out := range outs {
		sc := bufio.NewScanner(strings.NewReader(out))
		for sc.Scan() {
			if s, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), peerHelperMark); ok {
				states[i] = s
			}
		}
		if states[i] == "" {
			t.Fatalf("child %d printed no canonical state:\n%s", i, out)
		}
	}
	for i := 1; i < n; i++ {
		if states[i] != states[0] {
			t.Fatalf("process %d diverged:\n p0: %s\n p%d: %s", i, states[0], i, states[i])
		}
	}
	atoi := func(stats map[string]string, key string) int {
		v, err := strconv.Atoi(stats[key])
		if err != nil {
			t.Fatalf("stats key %s = %q: %v", key, stats[key], err)
		}
		return v
	}
	js := snapStatsLine(t, outs[n-1])
	if js["installed"] != "true" || atoi(js, "covered") == 0 {
		t.Fatalf("joiner did not catch up through a checkpoint: %v", js)
	}
	total := len(snapScript(n))
	for i := 0; i < n-1; i++ {
		es := snapStatsLine(t, outs[i])
		if atoi(es, "checkpoints") == 0 || atoi(es, "truncated") == 0 {
			t.Fatalf("early process %d never compacted: %v", i, es)
		}
		// The bound that proves compaction ran: the retained log plus what was
		// truncated accounts for every effectful frame, and the retained part
		// is strictly smaller than the full history a replay would need.
		if retained := atoi(es, "retained"); retained >= total {
			t.Fatalf("early process %d retained %d frames, want < %d (log unbounded)", i, retained, total)
		}
	}
	t.Logf("three processes converged to %s…; joiner stats %v", states[0][:min(16, len(states[0]))], js)
}

// TestSendRejectsBadDestination: a unicast goes to exactly one other node
// of the group. Both endpoints refuse the sender itself and a node outside
// the group; a Stream also refuses a declared late joiner it holds no
// connection to yet.
func TestSendRejectsBadDestination(t *testing.T) {
	addrs := unixAddrs(t, 3)
	streams := make([]*transport.Stream, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			streams[i], errs[i] = transport.Listen(model.NodeID(i), addrs, transport.WithLateJoiners(2))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("listen %d: %v", i, err)
		}
		defer streams[i].Close()
	}
	f := transport.Frame{Kind: transport.KindSnapshot, MID: 1, From: 0, Payload: []byte("state")}
	cases := []struct {
		name string
		ep   transport.Transport
		to   model.NodeID
		want string
	}{
		{"mem to self", transport.NewMem(3).Endpoint(0), 0, "cannot unicast to node t0"},
		{"mem out of range", transport.NewMem(3).Endpoint(0), 3, "cannot unicast to node t3"},
		{"mem negative", transport.NewMem(3).Endpoint(0), -1, "cannot unicast to node t-1"},
		{"stream to self", streams[0], 0, "cannot unicast to node t0"},
		{"stream out of range", streams[0], 3, "cannot unicast to node t3"},
		{"stream to an unadmitted joiner", streams[0], 2, "no connection to node t2"},
	}
	for _, c := range cases {
		if err := c.ep.Send(c.to, f); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to contain %q", c.name, err, c.want)
		}
		if sent := c.ep.Stats().TotalSent(); sent.Frames != 0 {
			t.Errorf("%s: a refused unicast counted %+v sent", c.name, sent)
		}
	}
}
