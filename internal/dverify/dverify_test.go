package dverify

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// prof mirrors the synthetic profile helper of the verify tests: constant
// dwell tables, the knobs that matter being T*w, Tdw−/Tdw+ and r.
func prof(name string, twStar, dm, dp, r int) *switching.Profile {
	n := twStar + 1
	minT := make([]int, n)
	plusT := make([]int, n)
	for i := range minT {
		minT[i] = dm
		plusT[i] = dp
	}
	return &switching.Profile{Name: name, TwStar: twStar, TdwMinus: minT, TdwPlus: plusT,
		R: r, Granularity: 1, JStar: twStar + dp, JAtMin: make([]int, n), JBest: make([]int, n)}
}

func fleet(n, twStar, dm, dp, r int) []*switching.Profile {
	out := make([]*switching.Profile, n)
	for i := range out {
		out[i] = prof(fmt.Sprintf("F%d", i), twStar, dm, dp, r)
	}
	return out
}

// verifyOver runs the distributed search over a fresh loopback cluster.
func verifyOver(t *testing.T, nodes int, ps []*switching.Profile, cfg verify.Config) (verify.Result, error) {
	t.Helper()
	ts := Loopback(nodes)
	defer Close(ts)
	return Verify(ps, cfg, ts)
}

// equivalenceCases is the distributed-vs-local matrix shared by the
// mesh tests: schedulable and violating sets on both encodings, at
// the n = 6/7/12 boundaries, with and without the symmetry quotient.
var equivalenceCases = []struct {
	name string
	ps   func() []*switching.Profile
	sym  bool
	md   int // MaxDisturbances (0 = exact)
}{
	{"single", func() []*switching.Profile { return []*switching.Profile{prof("A", 5, 2, 4, 20)} }, false, 0},
	{"overload2", func() []*switching.Profile {
		return []*switching.Profile{prof("A", 0, 3, 5, 20), prof("B", 0, 3, 5, 20)}
	}, false, 0},
	{"loosePair", func() []*switching.Profile {
		return []*switching.Profile{prof("A", 8, 2, 4, 40), prof("B", 8, 2, 4, 40)}
	}, false, 0},
	{"asymTriple", func() []*switching.Profile {
		return []*switching.Profile{prof("A", 2, 2, 3, 15), prof("B", 6, 2, 4, 25), prof("C", 9, 3, 5, 30)}
	}, false, 0},
	{"narrow6", func() []*switching.Profile { return fleet(6, 5, 2, 4, 20) }, false, 0},
	// Wide-encoding cases. The unquotiented schedulable 7-app spaces run
	// to millions of states, so the exhaustive-count checks ride the
	// symmetry quotient (canonicalisation happens inside the shared
	// expansion core, identically on every node) and the bounded mode
	// (6 apps × 11-bit lanes no longer fit one word).
	{"het7sym", func() []*switching.Profile { return append(fleet(6, 7, 1, 2, 8), prof("X", 4, 2, 3, 12)) }, true, 0},
	{"fleet7sym", func() []*switching.Profile { return fleet(7, 6, 1, 2, 10) }, true, 0},
	{"fleet9sym", func() []*switching.Profile { return fleet(9, 8, 1, 2, 9) }, true, 0},
	{"wideBounded6", func() []*switching.Profile { return fleet(6, 5, 2, 4, 20) }, false, 2},
	{"overload7", func() []*switching.Profile { return fleet(7, 2, 1, 2, 5) }, false, 0},
	{"overload12", func() []*switching.Profile { return fleet(12, 1, 1, 2, 6) }, false, 0},
}

// checkMatchesLocal asserts one distributed result against the local
// parallel search: bit-identical verdict; on exhaustively-searched
// (schedulable) sets identical state/transition/depth counts; on
// violations the same minimal violator (minimum violating packed state of
// the first violating level) and the same first-violating-level depth.
func checkMatchesLocal(t *testing.T, label string, dist, local verify.Result) {
	t.Helper()
	if dist.Schedulable != local.Schedulable {
		t.Errorf("%s: schedulable=%v, local=%v", label, dist.Schedulable, local.Schedulable)
	}
	if local.Schedulable {
		if dist.States != local.States || dist.Transitions != local.Transitions || dist.Depth != local.Depth {
			t.Errorf("%s: counts (%d,%d,%d), local (%d,%d,%d)", label,
				dist.States, dist.Transitions, dist.Depth, local.States, local.Transitions, local.Depth)
		}
	} else {
		if dist.Violator != local.Violator {
			t.Errorf("%s: violator=%d, local parallel=%d", label, dist.Violator, local.Violator)
		}
		if dist.Depth != local.Depth {
			t.Errorf("%s: violation depth=%d, local=%d", label, dist.Depth, local.Depth)
		}
	}
	if dist.Bounded != local.Bounded {
		t.Errorf("%s: bounded=%v, local=%v", label, dist.Bounded, local.Bounded)
	}
}

// TestLoopbackMatchesLocal is the distributed-vs-local equivalence matrix:
// 1/2/4 loopback nodes must reproduce the local results bit-identically
// over the pipelined mesh.
func TestLoopbackMatchesLocal(t *testing.T) {
	for _, tc := range equivalenceCases {
		ps := tc.ps()
		cfg := verify.Config{NondetTies: true, SymmetryReduction: tc.sym, MaxDisturbances: tc.md, Workers: 4}
		local, err := verify.Slot(ps, cfg)
		if err != nil {
			t.Fatalf("%s: local: %v", tc.name, err)
		}
		for _, nodes := range []int{1, 2, 4} {
			dist, err := verifyOver(t, nodes, ps, cfg)
			if err != nil {
				t.Fatalf("%s: mesh nodes=%d: %v", tc.name, nodes, err)
			}
			checkMatchesLocal(t, fmt.Sprintf("%s: mesh nodes=%d", tc.name, nodes), dist, local)
		}
	}
}

// TestBoundedModeMatches covers the accelerated (bounded-disturbance)
// model through the distributed path.
func TestBoundedModeMatches(t *testing.T) {
	ps := []*switching.Profile{prof("A", 8, 2, 4, 40), prof("B", 8, 2, 4, 40)}
	cfg := verify.Config{NondetTies: true, MaxDisturbances: verify.BoundFor(ps), Workers: 2}
	local, err := verify.Slot(ps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := verifyOver(t, 3, ps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !dist.Bounded || dist.Schedulable != local.Schedulable || dist.States != local.States {
		t.Fatalf("bounded distributed %+v, local %+v", dist, local)
	}
}

// TestPerNodeBudgetScalesCapacity pins the distribution lever: under the
// same MaxStates, the single-node run must reject with ErrTooLarge while a
// 4-node cluster — whose budget is per node — completes the search and
// reproduces the unbounded counts.
func TestPerNodeBudgetScalesCapacity(t *testing.T) {
	ps := fleet(4, 6, 1, 2, 10)
	cfg := verify.Config{NondetTies: true, Workers: 2}
	full, err := verify.Slot(ps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Schedulable {
		t.Fatalf("expected a schedulable set, got %+v", full)
	}
	cfg.MaxStates = full.States * 2 / 3
	if _, err := verify.Slot(ps, cfg); !errors.Is(err, verify.ErrTooLarge) {
		t.Fatalf("local run under budget %d: want ErrTooLarge, got %v", cfg.MaxStates, err)
	}
	busted, err := verifyOver(t, 1, ps, cfg)
	if !errors.Is(err, verify.ErrTooLarge) {
		t.Fatalf("1-node run under budget %d: want ErrTooLarge, got %v", cfg.MaxStates, err)
	}
	if busted.States == 0 {
		t.Fatalf("budget-busted run reported no partial exploration (want States > 0 like the local search)")
	}
	dist, err := verifyOver(t, 4, ps, cfg)
	if err != nil {
		t.Fatalf("4-node run under per-node budget %d: %v", cfg.MaxStates, err)
	}
	if !dist.Schedulable || dist.States != full.States {
		t.Fatalf("4-node run %+v, unbounded local %+v", dist, full)
	}
}

// startWorker serves one verifyd-equivalent worker on an ephemeral
// loopback port, returning its address.
func startWorker(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go Serve(l, nil)
	return l.Addr().String()
}

// TestTCPEndToEnd drives the gob transport against two in-process workers,
// reusing the connections for a second job to cover the Init reset.
func TestTCPEndToEnd(t *testing.T) {
	addrs := []string{startWorker(t), startWorker(t)}
	ts, err := Dial(addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer Close(ts)

	cfg := verify.Config{NondetTies: true}
	for _, tc := range []struct {
		name string
		ps   []*switching.Profile
	}{
		{"schedulable", []*switching.Profile{prof("A", 8, 2, 4, 40), prof("B", 8, 2, 4, 40)}},
		{"violating", fleet(7, 2, 1, 2, 5)},
	} {
		local, err := verify.Slot(tc.ps, cfg)
		if err != nil {
			t.Fatalf("%s: local: %v", tc.name, err)
		}
		dist, err := Verify(tc.ps, cfg, ts)
		if err != nil {
			t.Fatalf("%s: tcp: %v", tc.name, err)
		}
		if dist.Schedulable != local.Schedulable {
			t.Errorf("%s: tcp schedulable=%v, local=%v", tc.name, dist.Schedulable, local.Schedulable)
		}
		if local.Schedulable && dist.States != local.States {
			t.Errorf("%s: tcp states=%d, local=%d", tc.name, dist.States, local.States)
		}
	}
}

// flakyTransport fails every Call after the first failAfter ones,
// simulating a worker crash mid-protocol. It unwraps to the transport it
// wraps, so the cluster still forms a mesh: control calls pass through the
// wrapper, data links come from the node underneath.
type flakyTransport struct {
	inner     Transport
	calls     int
	failAfter int
}

func (f *flakyTransport) Call(req *Request) (*Response, error) {
	f.calls++
	if f.calls > f.failAfter {
		return nil, errors.New("simulated worker crash")
	}
	return f.inner.Call(req)
}

func (f *flakyTransport) Close() error      { return f.inner.Close() }
func (f *flakyTransport) Unwrap() Transport { return f.inner }

// TestWorkerFailureMidLevelErrorsCleanly injects a worker failure after
// init (i.e. on the mesh control plane, mid-search) and requires a clean
// error — not a hang — naming the failed node.
func TestWorkerFailureMidLevelErrorsCleanly(t *testing.T) {
	ts := Loopback(2)
	defer Close(ts)
	ts[1] = &flakyTransport{inner: ts[1], failAfter: 1} // init succeeds, first poll fails

	done := make(chan error, 1)
	go func() {
		_, err := Verify(fleet(3, 6, 1, 2, 10), verify.Config{NondetTies: true}, ts)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "node 1") {
			t.Fatalf("want an error naming node 1, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator hung after worker failure")
	}
}

// TestWorkerDisconnectTCP kills a TCP worker's connection mid-run: the
// coordinator must surface the transport error instead of blocking on the
// level barrier.
func TestWorkerDisconnectTCP(t *testing.T) {
	// A "worker" that serves exactly one request, then drops the link.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 1)
		conn.Read(buf)
		conn.Close()
	}()

	addrs := []string{startWorker(t), l.Addr().String()}
	ts, err := Dial(addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer Close(ts)

	done := make(chan error, 1)
	go func() {
		_, err := Verify(fleet(3, 6, 1, 2, 10), verify.Config{NondetTies: true}, ts)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "node 1") {
			t.Fatalf("want an error naming node 1, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator hung after TCP worker disconnect")
	}
}

// errTransport answers every call with a worker-side error response. It
// unwraps to a live loopback node, so the cluster forms a mesh and the
// error response is what fails the run.
type errTransport struct {
	inner Transport
	msg   string
}

func (e *errTransport) Call(*Request) (*Response, error) { return &Response{Err: e.msg}, nil }
func (e *errTransport) Close() error                     { return e.inner.Close() }
func (e *errTransport) Unwrap() Transport                { return e.inner }

// TestWorkerErrResponse propagates worker-side Err responses as
// coordinator errors.
func TestWorkerErrResponse(t *testing.T) {
	ts := []Transport{&errTransport{inner: Loopback(1)[0], msg: "boom"}}
	defer Close(ts)
	if _, err := Verify(fleet(2, 6, 1, 2, 10), verify.Config{}, ts); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("want the worker error surfaced, got %v", err)
	}
}

// TestConfigValidation rejects tracing and bad cluster sizes up front.
func TestConfigValidation(t *testing.T) {
	ps := fleet(2, 6, 1, 2, 10)
	if _, err := Verify(ps, verify.Config{Trace: true}, Loopback(1)); err == nil {
		t.Error("Trace accepted")
	}
	if _, err := Verify(ps, verify.Config{}, nil); err == nil {
		t.Error("empty cluster accepted")
	}
	if _, err := Verify(append(fleet(12, 1, 1, 2, 6), prof("X", 1, 1, 2, 6)), verify.Config{}, Loopback(1)); !errors.Is(err, verify.ErrEncoding) {
		t.Errorf("13-app set: want ErrEncoding, got %v", err)
	}
}

// TestRunnerHooksIntoVerifySlot exercises the verify.Config.Distributed
// seam end to end: verify.Slot with the hook set must return the
// distributed result.
func TestRunnerHooksIntoVerifySlot(t *testing.T) {
	ts := Loopback(2)
	defer Close(ts)
	ps := append(fleet(6, 7, 1, 2, 8), prof("X", 4, 2, 3, 12))
	cfg := verify.Config{NondetTies: true, SymmetryReduction: true, Workers: 2}
	local, err := verify.Slot(ps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Distributed = Runner(ts)
	dist, err := verify.Slot(ps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dist.Schedulable != local.Schedulable || dist.States != local.States {
		t.Fatalf("hooked %+v, local %+v", dist, local)
	}
}
