package dverify

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"tightcps/internal/obs"
	"tightcps/internal/verify"
)

// loopGroupOf digs the mesh rendezvous out of a loopback cluster so tests
// can install link hooks before the run starts.
func loopGroupOf(t *testing.T, ts []Transport) *loopGroup {
	t.Helper()
	lt, ok := ts[0].(*loopTransport)
	if !ok {
		t.Fatalf("transport %T is not a loopback worker", ts[0])
	}
	return lt.group
}

// TestMeshDelayedAbsorbInterleavings drives the full equivalence matrix
// through a mesh whose links deliver every batch late and out of order —
// each delivery is parked on its own timer with a jittered delay, so
// absorbs land across later epochs and interleave adversarially with the
// coordinator's milestone advances. The verdict, the exhaustive counts
// and the minimal violator must still be bit-identical to the local
// search: late absorbs may only delay final/done, never fake them.
func TestMeshDelayedAbsorbInterleavings(t *testing.T) {
	for _, tc := range equivalenceCases {
		ps := tc.ps()
		cfg := verify.Config{NondetTies: true, SymmetryReduction: tc.sym, MaxDisturbances: tc.md,
			Workers: 4}
		local, err := verify.Slot(ps, cfg)
		if err != nil {
			t.Fatalf("%s: local: %v", tc.name, err)
		}
		for _, nodes := range []int{2, 4} {
			ts := Loopback(nodes)
			g := loopGroupOf(t, ts)
			var mu sync.Mutex
			rng := rand.New(rand.NewSource(int64(nodes)*7919 + int64(len(tc.name))))
			g.deliver = func(from, to int, b meshBatch, push func(meshBatch)) bool {
				mu.Lock()
				d := time.Duration(rng.Intn(4)) * time.Millisecond
				mu.Unlock()
				time.AfterFunc(d, func() { push(b) })
				return true
			}
			dist, err := Verify(ps, cfg, ts)
			Close(ts)
			if err != nil {
				t.Fatalf("%s: delayed nodes=%d: %v", tc.name, nodes, err)
			}
			checkMatchesLocal(t, fmt.Sprintf("%s: delayed nodes=%d", tc.name, nodes), dist, local)
		}
	}
}

// snap builds a synthetic poll response for the tracker tests.
type snap struct {
	sent, recv []int
	drained    int
	idle       bool
	maxFresh   int
	viol       bool
	violLevel  int
	violState  verify.PackedState
	violApp    int
}

func round(snaps ...snap) []*Response {
	out := make([]*Response, len(snaps))
	for i, s := range snaps {
		out[i] = &Response{
			SentByLevel: s.sent, RecvByLevel: s.recv,
			Drained: s.drained, Idle: s.idle, MaxFresh: s.maxFresh,
			Viol: s.viol, ViolLevel: s.violLevel, ViolState: s.violState, ViolApp: s.violApp,
		}
	}
	return out
}

// TestMeshTrackerDelayedAbsorbEpochs pins the termination-detection
// invariants against adversarial in-flight interleavings: states sent in
// one epoch but absorbed epochs later must pin the final/done milestones
// and block termination until the counts reconcile.
func TestMeshTrackerDelayedAbsorbEpochs(t *testing.T) {
	tr := newMeshTracker(2)

	// Epoch 1: worker 0 shipped 10 level-1 states, worker 1 absorbed only
	// 7 of them so far (3 in flight), and neither is done with level 1.
	tr.observe(round(
		snap{sent: []int{0, 10}, recv: []int{0, 0}, drained: 0, maxFresh: 1},
		snap{sent: []int{0, 0}, recv: []int{0, 7}, drained: 0, idle: true, maxFresh: 1},
	))
	tr.advance()
	if tr.done != 0 || tr.final != 0 {
		t.Fatalf("after epoch 1: done=%d final=%d, want 0/0 (3 states in flight)", tr.done, tr.final)
	}
	if tr.terminated() {
		t.Fatal("terminated with states in flight")
	}

	// Epoch 2: worker 1 still has not absorbed everything; an idle report
	// with stale counters must not unblock the milestones.
	tr.observe(round(
		snap{sent: []int{0, 10}, recv: []int{0, 0}, drained: 0, idle: true, maxFresh: 1},
		snap{sent: []int{0, 0}, recv: []int{0, 9}, drained: 0, idle: true, maxFresh: 1},
	))
	tr.advance()
	if tr.final != 0 {
		t.Fatalf("after epoch 2: final=%d, want 0 (1 state still in flight)", tr.final)
	}
	if tr.terminated() {
		t.Fatal("terminated with a state in flight and sums unequal")
	}

	// Epoch 3: the last absorb lands and both workers drain level 1; the
	// milestones may now sweep forward and the run terminates.
	tr.observe(round(
		snap{sent: []int{0, 10}, recv: []int{0, 0}, drained: 1, idle: true, maxFresh: 1},
		snap{sent: []int{0, 0}, recv: []int{0, 10}, drained: 1, idle: true, maxFresh: 1},
	))
	tr.advance()
	if tr.done < 1 {
		t.Fatalf("after epoch 3: done=%d, want ≥ 1", tr.done)
	}
	if !tr.terminated() {
		t.Fatal("not terminated at quiescence with matching sums")
	}
}

// TestMeshTrackerViolationWaitsForLevel pins the minimal-violator
// invariant: a violation at level L is not final until done reaches L —
// a lagging worker could still find a smaller violator at L (or any
// violator at a lower level) — and the minimum is (level, state)-ordered.
func TestMeshTrackerViolationWaitsForLevel(t *testing.T) {
	tr := newMeshTracker(2)
	tr.observe(round(
		snap{sent: []int{0, 4}, recv: []int{0, 0}, drained: 1, idle: true, maxFresh: 2,
			viol: true, violLevel: 2, violState: verify.PackedState{9}, violApp: 3},
		snap{sent: []int{0, 0}, recv: []int{0, 2}, drained: 0, maxFresh: 1},
	))
	tr.advance()
	if tr.terminated() {
		t.Fatal("violation at level 2 finalized before level 2 was done everywhere")
	}

	// The lagging worker catches up and reports a smaller violator at the
	// same level; once done covers the level, that one must win.
	tr.observe(round(
		snap{sent: []int{0, 4}, recv: []int{0, 0}, drained: 2, idle: true, maxFresh: 2,
			viol: true, violLevel: 2, violState: verify.PackedState{9}, violApp: 3},
		snap{sent: []int{0, 0}, recv: []int{0, 4}, drained: 2, idle: true, maxFresh: 2,
			viol: true, violLevel: 2, violState: verify.PackedState{5}, violApp: 1},
	))
	tr.advance()
	if !tr.terminated() {
		t.Fatal("violation not finalized once its level is done")
	}
	if tr.violApp != 1 || tr.violState != (verify.PackedState{5}) {
		t.Fatalf("violator app=%d state=%v, want the (level, state) minimum app=1 state={5}", tr.violApp, tr.violState)
	}

	// A violation at a lower level always supersedes, regardless of state
	// order.
	tr2 := newMeshTracker(1)
	tr2.observe(round(
		snap{sent: []int{0}, recv: []int{0}, drained: 1, idle: true, maxFresh: 2,
			viol: true, violLevel: 2, violState: verify.PackedState{1}, violApp: 0},
	))
	tr2.observe(round(
		snap{sent: []int{0}, recv: []int{0}, drained: 1, idle: true, maxFresh: 2,
			viol: true, violLevel: 1, violState: verify.PackedState{7}, violApp: 2},
	))
	if tr2.violLevel != 1 || tr2.violApp != 2 {
		t.Fatalf("violLevel=%d app=%d, want the lower level 1 app=2", tr2.violLevel, tr2.violApp)
	}
}

// TestMeshLinkFaultInjection breaks one worker↔worker link mid-run: the
// coordinator must surface a clean error naming the victim and the peer —
// not hang an epoch — and the cluster must stay reusable afterwards.
func TestMeshLinkFaultInjection(t *testing.T) {
	ts := Loopback(2)
	defer Close(ts)
	g := loopGroupOf(t, ts)
	var mu sync.Mutex
	sends := 0
	g.failSend = func(from, to int) error {
		mu.Lock()
		defer mu.Unlock()
		if sends++; sends > 3 {
			return errors.New("injected link failure")
		}
		return nil
	}

	cfg := verify.Config{NondetTies: true}
	done := make(chan error, 1)
	go func() {
		_, err := Verify(fleet(3, 6, 1, 2, 10), cfg, ts)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "node") || !strings.Contains(err.Error(), "mesh link") {
			t.Fatalf("want a clean error naming the broken mesh link, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator hung after a mesh link failure")
	}

	// The poisoned session must not wedge the workers: the same cluster
	// verifies cleanly once the fault is lifted.
	g.failSend = nil
	res, err := Verify(fleet(3, 6, 1, 2, 10), cfg, ts)
	if err != nil || !res.Schedulable {
		t.Fatalf("cluster not reusable after a link fault: %v %+v", err, res)
	}
}

// trackingListener records accepted connections so a test can sever them,
// simulating a worker process crash mid-epoch.
type trackingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *trackingListener) kill() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.Listener.Close()
	for _, c := range l.conns {
		c.Close()
	}
}

// TestMeshWorkerCrashMidEpoch crashes one TCP worker in the middle of a
// mesh run (all of its connections die at once, like a killed process):
// the coordinator must return a clean error naming the node, without
// hanging, and the surviving worker must return to accepting sessions.
func TestMeshWorkerCrashMidEpoch(t *testing.T) {
	l0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l0.Close() })
	go Serve(l0, nil)

	l1raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l1 := &trackingListener{Listener: l1raw}
	t.Cleanup(func() { l1.kill() })
	go Serve(l1, nil)

	ts, err := Dial([]string{l0.Addr().String(), l1.Addr().String()}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer Close(ts)

	// The 4-app r=40 fleet runs to 2.9M states (≈ seconds over TCP), so a
	// kill 100ms in lands squarely inside the epoch exchange.
	time.AfterFunc(100*time.Millisecond, l1.kill)
	done := make(chan error, 1)
	go func() {
		_, err := Verify(fleet(4, 8, 2, 4, 40), verify.Config{NondetTies: true}, ts)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "node") {
			t.Fatalf("want a clean error naming the crashed node, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator hung after a worker crash mid-epoch")
	}
}

// TestMeshTopologyForcedOnWrappedTransports: a cluster whose transports
// are wrapped (here by the fault-injection wrapper, never firing) still
// runs the mesh — meshPeers looks through Unwrap — and reproduces the
// local state count exactly. A transport that cannot be unwrapped to a
// mesh-capable worker is refused up front.
func TestMeshTopologyForcedOnWrappedTransports(t *testing.T) {
	ts := Loopback(2)
	defer Close(ts)
	wrapped := []Transport{ts[0], &flakyTransport{inner: ts[1], failAfter: 1 << 30}}

	ps := fleet(3, 6, 1, 2, 10)
	local, err := verify.Slot(ps, verify.Config{NondetTies: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("")
	res, err := Verify(ps, verify.Config{NondetTies: true, RunTrace: tr}, wrapped)
	if err != nil {
		t.Fatalf("wrapped loopback cluster: %v", err)
	}
	if !res.Schedulable || res.States != local.States || res.Transitions != local.Transitions || res.Depth != local.Depth {
		t.Fatalf("wrapped mesh %+v, local %+v", res, local)
	}
	if tr.Backend != "mesh" || tr.Epochs <= 0 {
		t.Fatalf("wrapped cluster ran backend %q with %d epochs, want the mesh", tr.Backend, tr.Epochs)
	}

	if _, err := Verify(ps, verify.Config{NondetTies: true}, []Transport{ts[0], okTransport{}}); err == nil ||
		!strings.Contains(err.Error(), "mesh") {
		t.Fatalf("opaque transport: want a mesh-capability error, got %v", err)
	}
}

// TestServerSingleClusterAdmission: a daemon's worker slot is exclusive —
// a second coordinator session's jobs are refused while the first session
// lives (the per-node MaxStates memory model budgets ONE visited
// partition), and the slot frees when that session ends.
func TestServerSingleClusterAdmission(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go Serve(l, nil)
	addr := l.Addr().String()

	ps := fleet(2, 6, 1, 2, 10)
	cfg := verify.Config{NondetTies: true}
	ts1, err := Dial([]string{addr}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(ps, cfg, ts1); err != nil {
		t.Fatalf("first session: %v", err)
	}

	// The first session still holds the slot (its connection is open).
	ts2, err := Dial([]string{addr}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer Close(ts2)
	if _, err := Verify(ps, cfg, ts2); err == nil || !strings.Contains(err.Error(), "busy") {
		t.Fatalf("second concurrent session: want a busy refusal, got %v", err)
	}

	// Ending the first session frees the slot (release is asynchronous
	// with the connection close, so poll briefly).
	Close(ts1)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err = Verify(ps, cfg, ts2); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed after the first session closed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerGracefulShutdown drains a verifyd-equivalent server mid-job:
// the active session's verification must complete exactly, new sessions
// must be refused, and Serve must return once the session closes.
func TestServerGracefulShutdown(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, nil)
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()

	addr := l.Addr().String()
	ts, err := Dial([]string{addr}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer Close(ts)

	// Shutdown lands mid-run: the 5-app fleet runs to 432k states
	// (hundreds of milliseconds over TCP), so a trigger 30ms in drains a
	// live job.
	ps := fleet(5, 7, 1, 2, 12)
	local, err := verify.Slot(ps, verify.Config{NondetTies: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(30*time.Millisecond, srv.Shutdown)
	res, err := Verify(ps, verify.Config{NondetTies: true}, ts)
	if err != nil {
		t.Fatalf("job interrupted by graceful drain: %v", err)
	}
	if !res.Schedulable || res.States != local.States {
		t.Fatalf("drained mid-job: %+v, local %+v", res, local)
	}
	for !srv.isDraining() {
		time.Sleep(time.Millisecond)
	}

	// New jobs on the live session are refused while draining...
	if _, err := Verify(fleet(2, 6, 1, 2, 10), verify.Config{NondetTies: true}, ts); err == nil ||
		!strings.Contains(err.Error(), "draining") {
		t.Fatalf("new job during drain: want a draining refusal, got %v", err)
	}
	// ...and new connections are not accepted at all.
	if _, err := Dial([]string{addr}, 200*time.Millisecond); err == nil {
		t.Fatal("dial succeeded against a draining server")
	}

	Close(ts)
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("graceful Serve returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after the drained session closed")
	}
}

// TestTCPPeerFrameRejectsNegativeTags: a peer frame tagged with a negative
// level or era must surface as a link error batch in the owner's inbox —
// never as a batch the worker would index its per-level counters with.
func TestTCPPeerFrameRejectsNegativeTags(t *testing.T) {
	exp, err := verify.NewExpander(fleet(2, 6, 1, 2, 10), verify.Config{NondetTies: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Frame{{Level: -1}, {Level: 1, Era: -1}} {
		expectPeerFrameRejected(t, exp, bad)
	}
}

// TestTCPPeerFrameRejectsInvalidStates: a peer frame whose batch decodes to
// a state the expander cannot take — the all-zero sentinel the visited
// set reserves, or an occupant beyond the slot's two applications, which
// would index the profiles out of range — must surface as a link error
// batch, in the raw and the delta format alike, instead of reaching the
// worker's absorb and panicking it.
func TestTCPPeerFrameRejectsInvalidStates(t *testing.T) {
	exp, err := verify.NewExpander(fleet(2, 6, 1, 2, 10), verify.Config{NondetTies: true})
	if err != nil {
		t.Fatal(err)
	}
	raw := func(w uint64) []byte { return binary.LittleEndian.AppendUint64([]byte{codecRaw}, w) }
	delta := func(w uint64) []byte { return binary.AppendUvarint([]byte{codecDelta}, zigzag(int64(w))) }
	for _, bad := range []Frame{
		{Level: 1, Batch: raw(0)},
		{Level: 1, Batch: raw(0xc0000)},
		{Level: 1, Batch: delta(0xc0000)},
	} {
		expectPeerFrameRejected(t, exp, bad)
	}
}

// expectPeerFrameRejected opens a mesh link to a fresh server, checks a
// well-formed frame gets through, then sends bad and expects a link error
// batch in the owner's inbox.
func expectPeerFrameRejected(t *testing.T, exp *verify.Expander, bad Frame) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, nil)
	go srv.Serve()
	defer srv.Shutdown()
	const session = 7
	n := &hostNode{inbox: newMeshInbox(), exp: exp}
	if err := srv.host.register(session, 0, n); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := gob.NewEncoder(conn)
	if err := enc.Encode(&Request{Kind: KindPeerHello, Hello: &PeerHello{
		Proto: protoVersion, Session: session, From: 1, To: 0,
	}}); err != nil {
		t.Fatal(err)
	}
	// A well-formed frame first: the link itself must work.
	good := exp.AppendState([]byte{codecRaw}, exp.Initial())
	if err := enc.Encode(Frame{Level: 1, Batch: good}); err != nil {
		t.Fatal(err)
	}
	if b := nextBatch(t, n.inbox); b.err != nil || b.level != 1 || len(b.states) != 1 {
		t.Fatalf("valid frame: got level %d, %d states, err %v", b.level, len(b.states), b.err)
	}
	if err := enc.Encode(bad); err != nil {
		t.Fatal(err)
	}
	b := nextBatch(t, n.inbox)
	if b.err == nil || !strings.Contains(b.err.Error(), "mesh link from node 1") {
		t.Fatalf("frame %+v: want a link error batch, got level %d era %d states %v err %v", bad, b.level, b.era, b.states, b.err)
	}
}

// nextBatch waits for the next batch pushed into ib.
func nextBatch(t *testing.T, ib *meshInbox) meshBatch {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		if q := ib.drain(nil); len(q) > 0 {
			if len(q) > 1 {
				t.Fatalf("want one batch, got %d", len(q))
			}
			return q[0]
		}
		select {
		case <-ib.notify:
		case <-deadline:
			t.Fatal("no batch reached the inbox")
		}
	}
}
