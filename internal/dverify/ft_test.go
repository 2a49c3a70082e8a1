package dverify

// Fault-matrix tests for the fault-tolerant distributed search: kill a
// worker at a deterministic level across {loopback, TCP} × {2, 4 nodes}
// on the mesh, and assert the run still finishes with a verdict,
// state count, depth and minimal violator bit-identical to the local
// parallel search — plus the double-fault, crash-during-checkpoint,
// spare-adoption, severed-link, death-timeout and degraded (no
// checkpoint directory) recovery paths.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tightcps/internal/obs"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// ftCase is one profile set of the fault matrix: loosePair explores a
// deep schedulable space (recovery mid-search, exhaustive counts must
// survive the rollback), overload2 violates near the root (recovery
// races the violation short-circuit).
var ftCases = []struct {
	name    string
	ps      func() []*switching.Profile
	atLevel int // fire the kill when the coordinator first knows this level
}{
	{"loosePair", func() []*switching.Profile {
		return []*switching.Profile{prof("A", 8, 2, 4, 40), prof("B", 8, 2, 4, 40)}
	}, 2},
	{"overload2", func() []*switching.Profile {
		return []*switching.Profile{prof("A", 0, 3, 5, 20), prof("B", 0, 3, 5, 20)}
	}, 0},
}

// ftConfig is the shared fault-tolerant run configuration.
func ftConfig(t *testing.T, trace *obs.Trace) verify.Config {
	t.Helper()
	return verify.Config{
		NondetTies:     true,
		Workers:        2,
		FaultTolerance: true,
		CheckpointDir:  t.TempDir(),
		RunTrace:       trace,
	}
}

// runFT runs one fault-injected verification over a fresh loopback
// cluster and asserts the exact-equivalence acceptance criterion.
func runFT(t *testing.T, label string, ps []*switching.Profile, nodes int, mkPlan func(ts []Transport) *faultPlan) *obs.Trace {
	t.Helper()
	local, err := verify.Slot(ps, verify.Config{NondetTies: true, Workers: 2})
	if err != nil {
		t.Fatalf("%s: local: %v", label, err)
	}
	trace := obs.NewTrace("")
	cfg := ftConfig(t, trace)
	ts := Loopback(nodes)
	defer Close(ts)
	plan := mkPlan(ts)
	dist, err := verifyWithFaults(ps, cfg, ts[:nodes], plan)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	checkMatchesLocal(t, label, dist, local)
	fired := false
	for _, f := range plan.faults {
		fired = fired || f.fired
	}
	if fired && len(trace.Failovers) == 0 {
		t.Errorf("%s: fault fired but the trace recorded no failover", label)
	}
	return trace
}

// TestFTKillOneWorker is the core acceptance matrix on loopback
// clusters: 2- and 4-node meshes, first and last victim, on a deep
// schedulable space and a near-root violation, killing the victim at a
// deterministic level must leave the verdict, counts, depth and minimal
// violator bit-identical to the local search.
func TestFTKillOneWorker(t *testing.T) {
	recBefore := obsRecoveries.Value()
	for _, tc := range ftCases {
		for _, nodes := range []int{2, 4} {
			for _, victim := range []int{0, nodes - 1} {
				label := fmt.Sprintf("%s: mesh nodes=%d victim=%d", tc.name, nodes, victim)
				runFT(t, label, tc.ps(), nodes, func(ts []Transport) *faultPlan {
					lt := ts[victim].(*loopTransport)
					return &faultPlan{faults: []fault{{atLevel: tc.atLevel, kill: lt.die}}}
				})
			}
		}
	}
	if obsRecoveries.Value() == recBefore {
		t.Error("recovery counter did not move across the kill matrix")
	}
}

// TestFTKillEveryVictim sweeps every victim slot of a 4-node mesh — the
// "killing any one worker" acceptance clause, including interior nodes
// whose shard range has live neighbours on both sides.
func TestFTKillEveryVictim(t *testing.T) {
	ps := fleet(6, 5, 2, 4, 20)
	for victim := 0; victim < 4; victim++ {
		label := fmt.Sprintf("narrow6: mesh nodes=4 victim=%d", victim)
		runFT(t, label, ps, 4, func(ts []Transport) *faultPlan {
			lt := ts[victim].(*loopTransport)
			return &faultPlan{faults: []fault{{atLevel: 3, kill: lt.die}}}
		})
	}
}

// TestFTSpareAdoption: a replacement worker waiting in the wings is
// adopted into the dead node's slot, so the recovered cluster is whole
// again — the failover records an empty residual dead set and zero
// reassigned shards (the spare inherits the victim's exact shard range).
func TestFTSpareAdoption(t *testing.T) {
	ps := []*switching.Profile{prof("A", 8, 2, 4, 40), prof("B", 8, 2, 4, 40)}
	trace := runFT(t, "spare adoption", ps, 4, func(ts []Transport) *faultPlan {
		lt := ts[2].(*loopTransport)
		return &faultPlan{
			faults: []fault{{atLevel: 2, kill: lt.die}},
			spares: []Transport{newSpareOf(ts)},
		}
	})
	if len(trace.Failovers) == 0 {
		t.Fatal("no failover recorded")
	}
	f := trace.Failovers[0]
	if len(f.Dead) != 0 {
		t.Errorf("adopted takeover should leave no residual dead set, got %v", f.Dead)
	}
	if f.Shards != 0 {
		t.Errorf("adopted takeover reassigns no shards, got %d", f.Shards)
	}
}

// newSpareOf mints an extra loopback transport in the same group as an
// existing cluster, so a replacement worker can join its session mesh.
func newSpareOf(ts []Transport) Transport {
	g := ts[0].(*loopTransport).group
	lt := &loopTransport{
		group: g,
		req:   make(chan *Request),
		resp:  make(chan *Response, 1),
		kill:  make(chan struct{}),
	}
	go lt.serve()
	return lt
}

// TestFTDoubleFault: a second worker dies while the takeover from the
// first death is still settling. The simultaneous variant loses two
// nodes in one round; the sequential variant arms the second kill to
// fire only after the first recovery completed.
func TestFTDoubleFault(t *testing.T) {
	ps := []*switching.Profile{prof("A", 8, 2, 4, 40), prof("B", 8, 2, 4, 40)}
	t.Run("simultaneous", func(t *testing.T) {
		runFT(t, "double fault (same round)", ps, 4, func(ts []Transport) *faultPlan {
			l1, l2 := ts[1].(*loopTransport), ts[2].(*loopTransport)
			return &faultPlan{faults: []fault{{atLevel: 2, kill: func() { l1.die(); l2.die() }}}}
		})
	})
	t.Run("sequential", func(t *testing.T) {
		trace := runFT(t, "double fault (mid-takeover)", ps, 4, func(ts []Transport) *faultPlan {
			l1, l2 := ts[1].(*loopTransport), ts[2].(*loopTransport)
			return &faultPlan{faults: []fault{
				{atLevel: 2, kill: l1.die},
				{atLevel: 0, afterRecoveries: 1, kill: l2.die},
			}}
		})
		if len(trace.Failovers) < 2 {
			t.Errorf("want two failovers (one per death), got %d", len(trace.Failovers))
		}
	})
}

// TestFTCrashDuringCheckpoint: a worker whose checkpoint sweep fails
// mid-level (disk death) reports the error, is declared dead, and the
// survivors restore from its last *completed* level — the tmp+rename
// segment discipline means the partial sweep left nothing misleading.
func TestFTCrashDuringCheckpoint(t *testing.T) {
	ckptWriteHook = func(node, level, shard int) error {
		if node == 1 && level >= 2 {
			return errors.New("injected: disk gone mid-sweep")
		}
		return nil
	}
	defer func() { ckptWriteHook = nil }()
	ps := []*switching.Profile{prof("A", 8, 2, 4, 40), prof("B", 8, 2, 4, 40)}
	trace := runFT(t, "crash during checkpoint", ps, 4, func(ts []Transport) *faultPlan {
		return &faultPlan{} // the hook is the fault; no transport kill
	})
	if len(trace.Failovers) == 0 {
		t.Fatal("checkpoint write failure did not surface as a failover")
	}
}

// TestFTDegradedNoCheckpointDir: fault tolerance without a checkpoint
// directory still finishes exactly — recovery degrades to a full
// restart of the search on the survivors (cut −1).
func TestFTDegradedNoCheckpointDir(t *testing.T) {
	ps := []*switching.Profile{prof("A", 8, 2, 4, 40), prof("B", 8, 2, 4, 40)}
	local, err := verify.Slot(ps, verify.Config{NondetTies: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	trace := obs.NewTrace("")
	cfg := verify.Config{
		NondetTies: true, Workers: 2,
		FaultTolerance: true, RunTrace: trace,
	}
	ts := Loopback(2)
	defer Close(ts)
	lt := ts[1].(*loopTransport)
	plan := &faultPlan{faults: []fault{{atLevel: 2, kill: lt.die}}}
	dist, err := verifyWithFaults(ps, cfg, ts, plan)
	if err != nil {
		t.Fatal(err)
	}
	checkMatchesLocal(t, "degraded (no checkpoint dir)", dist, local)
	if len(trace.Failovers) == 0 {
		t.Fatal("no failover recorded")
	}
	if got := trace.Failovers[0].Cut; got != -1 {
		t.Errorf("without checkpoints the cut must be -1 (full restart), got %d", got)
	}
}

// TestFTSeverLink: a severed worker↔worker link (sends fail, both ends
// alive) is reported by the sender and treated by the coordinator as
// the death of the far end — the run converges on the surviving
// component instead of hanging.
func TestFTSeverLink(t *testing.T) {
	ps := []*switching.Profile{prof("A", 8, 2, 4, 40), prof("B", 8, 2, 4, 40)}
	local, err := verify.Slot(ps, verify.Config{NondetTies: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	trace := obs.NewTrace("")
	cfg := ftConfig(t, trace)
	ts := Loopback(2)
	defer Close(ts)
	var severed atomic.Bool
	loopGroupOf(t, ts).failSend = func(from, to int) error {
		if severed.Load() && from == 0 && to == 1 {
			return errors.New("injected: link severed")
		}
		return nil
	}
	plan := &faultPlan{faults: []fault{{atLevel: 2, kill: func() { severed.Store(true) }}}}
	dist, err := verifyWithFaults(ps, cfg, ts, plan)
	if err != nil {
		t.Fatal(err)
	}
	checkMatchesLocal(t, "severed link", dist, local)
	if len(trace.Failovers) == 0 {
		t.Fatal("severed link did not surface as a failover")
	}
}

// TestFTDelayedDeliveryNoFalsePositive: delayed, reordered deliveries
// under fault tolerance must recover nothing — slow is not dead. The
// run completes exactly, with zero failovers.
func TestFTDelayedDeliveryNoFalsePositive(t *testing.T) {
	ps := fleet(6, 5, 2, 4, 20)
	local, err := verify.Slot(ps, verify.Config{NondetTies: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{2, 4} {
		trace := obs.NewTrace("")
		cfg := ftConfig(t, trace)
		ts := Loopback(nodes)
		g := loopGroupOf(t, ts)
		var mu sync.Mutex
		rng := rand.New(rand.NewSource(int64(nodes) * 1317))
		g.deliver = func(from, to int, b meshBatch, push func(meshBatch)) bool {
			mu.Lock()
			d := time.Duration(rng.Intn(3)) * time.Millisecond
			mu.Unlock()
			time.AfterFunc(d, func() { push(b) })
			return true
		}
		dist, err := Verify(ps, cfg, ts)
		Close(ts)
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		checkMatchesLocal(t, fmt.Sprintf("delayed delivery nodes=%d", nodes), dist, local)
		if len(trace.Failovers) != 0 {
			t.Errorf("nodes=%d: delay alone must not trigger recovery, got %d failovers", nodes, len(trace.Failovers))
		}
	}
}

// TestFTTCPKill runs the kill matrix over real TCP daemons sharing one
// checkpoint directory: meshes of 2 and 4 nodes, with the victim's
// listener and every accepted connection severed mid-run — the
// in-process stand-in for SIGKILLing a verifyd.
func TestFTTCPKill(t *testing.T) {
	ps := []*switching.Profile{prof("A", 8, 2, 4, 40), prof("B", 8, 2, 4, 40)}
	local, err := verify.Slot(ps, verify.Config{NondetTies: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	matrix := []struct {
		nodes  int
		victim int
	}{
		{2, 1},
		{4, 2},
	}
	for _, m := range matrix {
		label := fmt.Sprintf("tcp mesh nodes=%d victim=%d", m.nodes, m.victim)
		listeners := make([]*trackingListener, m.nodes)
		addrs := make([]string, m.nodes)
		for i := range listeners {
			raw, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			l := &trackingListener{Listener: raw}
			listeners[i] = l
			addrs[i] = raw.Addr().String()
			go Serve(l, nil)
			t.Cleanup(func() { l.kill() })
		}
		ts, err := Dial(addrs, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		trace := obs.NewTrace("")
		cfg := ftConfig(t, trace)
		victim := listeners[m.victim]
		plan := &faultPlan{faults: []fault{{atLevel: 2, kill: victim.kill}}}
		done := make(chan struct{})
		var dist verify.Result
		var verr error
		go func() {
			dist, verr = verifyWithFaults(ps, cfg, ts, plan)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("%s: recovery hung", label)
		}
		Close(ts)
		if verr != nil {
			t.Fatalf("%s: %v", label, verr)
		}
		checkMatchesLocal(t, label, dist, local)
		if plan.faults[0].fired && len(trace.Failovers) == 0 {
			t.Errorf("%s: kill fired but no failover recorded", label)
		}
	}
}

// hangTransport answers its first call normally, then blocks until
// released — a wedged worker, from the coordinator's point of view.
type hangTransport struct {
	calls   int
	release chan struct{}
}

func (h *hangTransport) Call(req *Request) (*Response, error) {
	h.calls++
	if h.calls >= 2 {
		<-h.release
	}
	return &Response{Proto: protoVersion}, nil
}

func (h *hangTransport) Close() error { return nil }

// okTransport answers every call immediately.
type okTransport struct{}

func (okTransport) Call(req *Request) (*Response, error) {
	return &Response{Proto: protoVersion}, nil
}

func (okTransport) Close() error { return nil }

// TestFTPollerDeathTimeout pins the liveness layer in isolation: a
// worker that stops answering is declared dead once meshDeathTimeout
// elapses, its eventual late answer is discarded by the sequence check,
// and the survivors' rounds continue unharmed.
func TestFTPollerDeathTimeout(t *testing.T) {
	saved := meshDeathTimeout
	meshDeathTimeout = 100 * time.Millisecond
	defer func() { meshDeathTimeout = saved }()

	hang := &hangTransport{release: make(chan struct{})}
	p := newMeshPoller([]Transport{okTransport{}, hang})
	defer p.close()
	resps := make([]*Response, 2)

	req := func(int) *Request { return &Request{Kind: KindPoll, Ctl: &Control{}} }
	if dead := p.roundFT(resps, req); len(dead) != 0 {
		t.Fatalf("healthy round declared deaths: %v", dead)
	}
	if dead := p.roundFT(resps, req); len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("hung worker not declared dead: %v", dead)
	}
	p.evict(1)

	// Release the wedged call: its late answer must be discarded, not
	// misattributed to a later round.
	close(hang.release)
	for i := 0; i < 3; i++ {
		if dead := p.roundFT(resps, req); len(dead) != 0 {
			t.Fatalf("round %d after eviction declared deaths: %v", i, dead)
		}
		if resps[1] != nil {
			t.Fatal("evicted node produced a response")
		}
		if resps[0] == nil {
			t.Fatal("survivor's response went missing")
		}
	}
}

// TestReadSegmentRejectsMalformed: checkpoint segments are read back from
// disk, so their headers and states are untrusted. A header claiming 2^61
// one-word states in a 24-byte file (n·words·8 wraps to 0), a truncated
// body, and states the expander cannot take must each be a clean restore
// error — never a panic in the allocator or, later, in the search.
func TestReadSegmentRejectsMalformed(t *testing.T) {
	exp, err := verify.NewExpander(fleet(2, 6, 1, 2, 10), verify.Config{NondetTies: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	segment := func(n uint64, words ...uint64) []byte {
		b := append([]byte(nil), segMagic[:]...)
		b = binary.LittleEndian.AppendUint64(b, n)
		b = binary.LittleEndian.AppendUint64(b, 0) // transitions
		for _, w := range words {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	for _, tc := range []struct {
		name string
		file []byte
	}{
		{"countOverflow", segment(1 << 61)},
		{"truncated", segment(2, exp.Initial()[0])},
		{"zeroState", segment(1, 0)},
		{"occupantBeyondN", segment(1, 0xc0000)},
	} {
		path := filepath.Join(dir, tc.name)
		if err := os.WriteFile(path, tc.file, 0o644); err != nil {
			t.Fatal(err)
		}
		if states, _, err := readSegment(path, exp); err == nil {
			t.Errorf("%s: read %d states without error", tc.name, len(states))
		}
	}
	// The well-formed segment round-trips.
	path := filepath.Join(dir, "good")
	want := []verify.PackedState{exp.Initial()}
	if err := writeSegment(path, want, 5, exp.StateWords()); err != nil {
		t.Fatal(err)
	}
	states, trans, err := readSegment(path, exp)
	if err != nil || trans != 5 || len(states) != 1 || states[0] != want[0] {
		t.Fatalf("good segment: states %v trans %d err %v", states, trans, err)
	}
}
