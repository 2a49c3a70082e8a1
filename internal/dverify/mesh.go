package dverify

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"tightcps/internal/obs"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// Mesh topology: the data plane of the distributed search without the
// coordinator in it. Workers hold one direct link per peer (channels for
// loopback clusters, dial-out TCP for verifyd fleets) and route successor
// batches straight to their shard owners; the coordinator is a thin
// control plane that polls counter snapshots, publishes level milestones
// and detects termination by epoch accounting (cluster-wide states sent
// vs absorbed per level).
//
// Levels are pipelined, not barriered: a worker expands level L+1 states
// as they arrive while peers are still draining level L. Exactness — the
// same verdict, exhaustive counts, depth and minimal violator as the
// local searches — is preserved by one commit rule: a state tagged with
// level t may enter the visited set only once every level ≤ t−1 is
// *final* (all states committed and all tagged-≤(t−1) messages absorbed).
// Under that rule a freshly committed state's tag always equals its true
// BFS level (a shorter path would mean the state was already committed
// when its earlier level was finalized), so per-level counts, Depth and
// the first-violating-level minimum-violator tie-break are bit-identical
// to the level-synchronous searches. Arrivals ahead of the rule are
// deferred, bounding the pipeline to one level of lookahead — the price
// of exactness, and exactly the overlap a barrier forbids.
//
// The coordinator advances two milestones from each epoch's snapshots:
//
//	final(L): done(L−1) ∧ Σ sent[L] == Σ recv[L]   (membership final)
//	done(L):  final(L) ∧ every worker drained ≤ L  (fully expanded)
//
// Both are evaluated over cumulative, monotone counters from one poll
// round, so a lagging message can only delay a milestone, never fake
// one. Termination: a violation is final once done reaches its level; a
// schedulable run ends when every worker is idle and the sent/recv sums
// match at every level (Mattern-style quiescence — any in-flight state
// leaves the sums unequal).

// meshChunk is how many states a worker expands between inbox drains and
// control checks (per lane when the pool is parallel); meshPollBudget
// caps how long a busy worker holds a poll before answering with an
// interim snapshot; meshIdleWait caps how long an idle worker waits for
// data before answering an unchanged snapshot; meshBatchTarget is the
// flush threshold of per-destination send buffers. meshParallelThreshold
// is the smallest bucket remainder (or inbox batch) worth fanning across
// the lane pool — below it the spawn barrier costs more than the lanes
// save, mirroring the local drivers' serialLevelThreshold; meshLaneChunk
// is the lanes' work-stealing claim size; meshFreeBatches caps the
// worker-local batch free list.
const (
	meshChunk             = 1024
	meshPollBudget        = 25 * time.Millisecond
	meshIdleWait          = 20 * time.Millisecond
	meshBatchTarget       = 4096
	meshParallelThreshold = 256
	meshLaneChunk         = 64
	meshFreeBatches       = 512
)

// Crew task modes (meshWorker.ptask.mode / the crew body's dispatch).
const (
	laneTaskExpand = iota
	laneTaskAbsorb
)

// meshPTask carries one parallel fan-out's parameters and shared atomics.
// It lives on the worker so repeated fan-outs reuse the same memory — the
// per-call atomics of the old spawn-per-chunk path escaped to the heap and
// were the dominant share of the multi-lane allocation leak. The
// orchestrator writes the fields before waking the crew (the wake send
// publishes them); lanes treat everything but the atomics as read-only.
type meshPTask struct {
	mode       int
	states     []verify.PackedState
	commitOK   bool
	dropSucc   bool
	boundCopy  verify.PackedState // stable backing for the seeded skip bound
	minViol    atomic.Pointer[verify.PackedState]
	freshTotal atomic.Int64
	tooLarge   atomic.Bool
}

// meshBatch is one level-tagged batch of decoded states crossing a mesh
// link, or a link failure surfaced into the owner's inbox. era tags the
// sender's recovery era (always 0 outside fault-tolerant runs): a
// receiver in a newer era drops the batch — the rollback already erased
// its accounting on both ends — and one in an older era parks it until
// its own recovery order arrives.
type meshBatch struct {
	from   int
	level  int
	era    int
	states []verify.PackedState
	err    error
}

// meshInbox is a worker's unbounded, mutex-guarded receive queue. Senders
// never block (so two workers flooding each other cannot deadlock) and
// nudge the notify channel so an idle owner wakes.
type meshInbox struct {
	mu     sync.Mutex
	q      []meshBatch
	notify chan struct{}
}

func newMeshInbox() *meshInbox {
	// The queue and the worker's drain spare ping-pong, so pre-sizing both
	// spares the early-level growth reallocations on every run.
	return &meshInbox{q: make([]meshBatch, 0, 32), notify: make(chan struct{}, 1)}
}

func (ib *meshInbox) push(b meshBatch) {
	ib.mu.Lock()
	ib.q = append(ib.q, b)
	ib.mu.Unlock()
	select {
	case ib.notify <- struct{}{}:
	default:
	}
}

// drain swaps the queue out against spare, returning the pending batches.
func (ib *meshInbox) drain(spare []meshBatch) []meshBatch {
	ib.mu.Lock()
	out := ib.q
	ib.q = spare[:0]
	ib.mu.Unlock()
	return out
}

// batchPool recycles state slices between senders, receivers and level
// buckets, keeping the steady-state mesh allocation-light.
var batchPool sync.Pool

func getBatch() []verify.PackedState {
	if b, _ := batchPool.Get().([]verify.PackedState); b != nil {
		return b[:0]
	}
	return make([]verify.PackedState, 0, meshBatchTarget)
}

func putBatch(b []verify.PackedState) {
	if cap(b) > 0 {
		batchPool.Put(b[:0])
	}
}

// meshLink is one directed data link to a peer. send takes ownership of
// states and returns the bytes shipped (raw width on loopback, encoded
// batch size on TCP). wantFilter reports whether the sender-side
// recent-state filter pays on this link: probing costs more than the
// receiver-side dedup it saves when no real wire is crossed, so loopback
// links decline it and TCP links (where every state costs bytes) take it.
type meshLink interface {
	send(era, level int, states []verify.PackedState) (int, error)
	wantFilter() bool
	close() error
}

// meshEnv wires a worker into its cluster's data plane: the loopback
// group registry or the TCP host (register own inbox, dial peers).
type meshEnv interface {
	connect(job *Job, inbox *meshInbox, exp *verify.Expander) (links []meshLink, cleanup func(), err error)
}

// meshWorker is one node of the mesh search. Its control flow is
// single-goroutine — the transport's serve loop calls Init/Poll, and all
// routing, milestone and accounting state is touched only from those
// calls (peer readers touch nothing but the inbox) — but inside a poll
// the orchestrator fans expansion and absorption across a pool of lanes
// (workers > 1): the lanes share only the striped visited set and a few
// chunk-scoped atomics, everything else they touch is lane-private, and
// the orchestrator merges their output back single-threaded.
type meshWorker struct {
	id, n   int
	job     *Job // what the worker was built for (reuse compatibility)
	exp     *verify.Expander
	words   int
	budget  int
	visited *verify.StateSet
	esc     *verify.ExpandScratch
	hsucc   []verify.HashedState
	lanes   []*meshLane // nil when workers == 1 (serial expansion)

	// Parallel fan-out machinery: the persistent lane crew and the reusable
	// task. contFlushed and stealsFlushed mark how much of the visited
	// set's cumulative contention ledger has already been folded into the
	// engine telemetry (the set and crew survive re-Inits, so shutdown
	// flushes deltas).
	crew          laneCrew
	ptask         meshPTask
	contFlushed   verify.SetStats
	stealsFlushed int64

	inbox   *meshInbox
	spareQ  []meshBatch
	links   []meshLink
	filters []sendFilter
	cleanup func()

	// Worker-local batch recycling (orchestrator goroutine only): free is
	// the slice free list fed by absorbed inbox batches and drained
	// buckets, spareBuckets the big frontier buckets retired — the next
	// big levels are built in them, the way the local drivers swap
	// frontier and spare instead of allocating per level. It is a small
	// stack, not a single slot: the commit rule keeps a window of levels
	// live at once, and they retire in bursts.
	free         [][]verify.PackedState
	spareBuckets [][]verify.PackedState
	sparePending [][]verify.PackedState // retired deferral-list backbone

	// Level-indexed search state. buckets[l][:cursors[l]] is expanded;
	// pending holds batches deferred by the commit rule (tag > final+1) —
	// whole slices, ownership transferred, so deferral never copies.
	buckets  [][]verify.PackedState
	cursors  []int
	pending  [][][]verify.PackedState
	freshAt  []int // fresh commits per level (set pre-sizing)
	final    int   // highest level known final (coordinator-published)
	outBuf   [][]verify.PackedState
	outLevel int // tag of the buffered sends (expand level + 1)

	// Cumulative accounting, snapshotted into every poll response.
	sentByLevel []int
	recvByLevel []int
	fresh       int
	transitions int
	maxFresh    int
	routed      int
	filtered    int
	wireBytes   int
	linkStates  []int
	linkBytes   []int
	tooLarge    bool
	err         error

	// Own minimum violation (reported) and the skip bound (own merged
	// with the coordinator's broadcast; never reported back).
	haveViol   bool
	violLevel  int
	violState  verify.PackedState
	violApp    int
	haveBound  bool
	boundLevel int
	boundState verify.PackedState

	// Fault tolerance (ft.go). owners is the routing table (default
	// contiguous, rewritten by Recover); era is the worker's recovery
	// epoch; ckptLevel the highest level fully persisted as checkpoint
	// segments (-1 = none); ftTrans attributes transitions per
	// (level, shard) so segments carry exact counts; deadPeers suppresses
	// sends to nodes known dead; linkDown is the cumulative dead-peer
	// report for the coordinator; futureQ parks batches from peers already
	// in a newer era until this worker's own recovery order arrives.
	ft        bool
	ckptOn    bool
	ckptDir   string // per-session segment directory
	owners    [numShards]uint8
	era       int
	ckptLevel int
	ftTrans   [][numShards]int64
	deadPeers []bool
	linkDown  []int
	futureQ   []meshBatch

	finished bool
	waitT    *time.Timer
	lastSnap meshDigest
	haveSnap bool

	// Snapshot responses are double-buffered: the coordinator reads round
	// k's response while the worker builds round k+1 into the other
	// buffer, so the per-poll counter copies reuse their backing arrays
	// instead of allocating on every epoch.
	snapResp [2]Response
	snapFlip int
	// initResp backs reinit's Init reply the same way: by the time a
	// follow-up job re-Inits the worker, the previous reply is long
	// consumed.
	initResp Response
}

// meshLane is one expansion goroutine's private state: its own scratch
// arena (SuccessorsHashedInto overwrites it per call, so lanes never
// share one), per-destination staging buffers for peer-owned successors,
// and the chunk's fresh commits and deferred states. Lanes never touch
// the filters, send buffers, level buckets or epoch counters — the
// orchestrator owns those and folds the lanes' staging in after the
// chunk barrier.
type meshLane struct {
	esc  *verify.ExpandScratch
	succ []verify.HashedState   // per-state expansion scratch
	out  [][]verify.HashedState // peer-owned successors, staged per destination
	next []verify.PackedState   // fresh self-owned commits of this chunk
	defr []verify.PackedState   // self-owned successors awaiting the commit rule

	trans     int
	ftt       [numShards]int64 // per-shard transitions of this chunk (checkpointing only)
	haveViol  bool
	violState verify.PackedState
	violApp   int
}

// reset clears a lane's per-run state for reuse by a follow-up job,
// keeping its scratch arena and the staging buffers' capacity. The
// orchestrator recycles defr itself before calling this (lanes have no
// access to the free list).
func (ln *meshLane) reset() {
	ln.next = ln.next[:0]
	ln.defr = nil
	for d := range ln.out {
		ln.out[d] = ln.out[d][:0]
	}
	ln.trans = 0
	ln.haveViol, ln.violState, ln.violApp = false, verify.PackedState{}, -1
}

// meshDigest summarizes a snapshot for the long-poll "news" check: a
// worker answers an outstanding poll as soon as its digest moves.
type meshDigest struct {
	fresh, transitions, routed, filtered int
	sent, recv, pendingN                 int
	drained, maxFresh                    int
	idle, tooLarge, haveErr, haveViol    bool
	violLevel                            int
	violState                            verify.PackedState
}

// newMeshWorker builds a node for a mesh job and wires its data links
// through env, seeding the initial state on its owner. A previous worker
// whose job is compatible is reinitialized in place instead, reusing its
// expander, visited partition, lane pool and batch memory.
func newMeshWorker(job *Job, env meshEnv, prev *meshWorker) (*meshWorker, *Response, error) {
	if job.Proto != protoVersion {
		return nil, nil, fmt.Errorf("dverify: coordinator speaks protocol %d, this worker speaks %d (rebuild the older side)",
			job.Proto, protoVersion)
	}
	if job.NumNodes < 1 || job.NodeID < 0 || job.NodeID >= job.NumNodes {
		return nil, nil, fmt.Errorf("dverify: node %d of %d is not a valid placement", job.NodeID, job.NumNodes)
	}
	if prev != nil && jobsCompatible(prev.job, job) {
		return prev.reinit(job, env)
	}
	profs := make([]*switching.Profile, len(job.Profiles))
	for i := range job.Profiles {
		profs[i] = &job.Profiles[i]
	}
	exp, err := verify.NewExpander(profs, verify.Config{
		MaxDisturbances:   job.MaxDisturbances,
		Policy:            job.Policy,
		NondetTies:        job.NondetTies,
		SymmetryReduction: job.SymmetryReduction,
	})
	if err != nil {
		return nil, nil, err
	}
	budget := job.MaxStates
	if budget <= 0 {
		budget = defaultMaxStates
	}
	workers := effectiveWorkers(job.Workers)
	w := &meshWorker{
		id:         job.NodeID,
		n:          job.NumNodes,
		job:        job,
		exp:        exp,
		words:      exp.StateWords(),
		budget:     budget,
		esc:        exp.NewScratch(),
		inbox:      newMeshInbox(),
		spareQ:     make([]meshBatch, 0, 32),
		filters:    make([]sendFilter, job.NumNodes),
		outBuf:     make([][]verify.PackedState, job.NumNodes),
		linkStates: make([]int, job.NumNodes),
		linkBytes:  make([]int, job.NumNodes),
		outLevel:   -1,
		violApp:    -1,
		ckptLevel:  -1,
	}
	w.applyFT(job)
	if workers > 1 {
		// The lane pool shares the visited partition, so it must be the
		// striped set; the serial worker keeps the cheaper unsharded one.
		w.visited = exp.NewShardedSet(1 << 16)
		w.lanes = make([]*meshLane, workers)
		for i := range w.lanes {
			w.lanes[i] = &meshLane{
				esc:     exp.NewScratch(),
				out:     make([][]verify.HashedState, job.NumNodes),
				violApp: -1,
			}
		}
		w.crew.body = w.lanePass
	} else {
		w.visited = exp.NewSet(1 << 16)
	}
	for d := range w.outBuf {
		if d != w.id {
			w.outBuf[d] = getBatch()
		}
	}
	links, cleanup, err := env.connect(job, w.inbox, exp)
	if err != nil {
		return nil, nil, err
	}
	w.links, w.cleanup = links, cleanup
	for d, l := range links {
		if d != w.id && l != nil && l.wantFilter() {
			w.filters[d] = newSendFilter()
		}
	}
	resp := &Response{Proto: protoVersion, ViolApp: -1}
	if err := w.seedOrRestore(job, resp); err != nil {
		w.shutdown()
		return nil, nil, err
	}
	return w, resp, nil
}

// applyFT fixes the job's fault-tolerance knobs into the worker: the
// routing table, the era and the checkpoint location. Called from both
// build paths before any state is seeded.
func (w *meshWorker) applyFT(job *Job) {
	w.ft = job.FT
	w.owners = ownerTable(job.Owners, job.NumNodes)
	w.era = job.Era
	w.ckptOn = job.FT && job.CheckpointDir != ""
	if w.ckptOn {
		w.ckptDir = ckptSessionDir(job.CheckpointDir, job.Session)
	} else {
		w.ckptDir = ""
	}
	if job.FT && w.deadPeers == nil {
		w.deadPeers = make([]bool, job.NumNodes)
	}
}

// seedOrRestore starts the worker's search state: a fresh run (Era 0)
// seeds the initial state on its owner; a replacement worker joining a
// recovered run (Era > 0) restores its owned shards from checkpoint
// segments instead.
func (w *meshWorker) seedOrRestore(job *Job, resp *Response) error {
	if job.FT && job.Era > 0 {
		if err := w.restore(job.Cut); err != nil {
			return err
		}
		resp.Fresh = w.fresh
		return nil
	}
	if init := w.exp.Initial(); int(w.owners[w.exp.Hash(init)>>58]) == w.id {
		w.ensureLevel(0)
		w.visited.Add(init)
		w.buckets[0] = append(w.buckets[0], init)
		w.freshAt[0] = 1
		w.fresh, resp.Fresh = 1, 1
	}
	return nil
}

// reinit rebuilds the worker in place for a compatible follow-up job: the
// expander and scratch arenas, the visited partition (cleared, not
// reallocated — the dominant per-run allocation), the lane pool, the batch
// free list and the level backbones all survive. A standing cluster
// re-verifying a slot — a daemon serving successive coordinators, or the
// bench loop — re-Inits without restarting the steady state from zero.
// The previous run's links are already down (Init goes through
// handler.reset, and shutdown is idempotent); its session registration is
// gone, so nothing can reach the inbox while it is swept. Leftover
// frontier, deferral and send memory — a violating or over-budget run
// stops with all three parked — feeds the free list, then the data plane
// reconnects under the new session.
func (w *meshWorker) reinit(job *Job, env meshEnv) (*meshWorker, *Response, error) {
	w.shutdown()
	w.job = job
	w.budget = job.MaxStates
	if w.budget <= 0 {
		w.budget = defaultMaxStates
	}

	for l := range w.buckets {
		if cap(w.buckets[l]) > 0 {
			w.recycleBucket(l)
		}
		w.cursors[l] = 0
		for _, b := range w.pending[l] {
			w.putBatch(b)
		}
		w.pending[l] = nil
		w.freshAt[l], w.sentByLevel[l], w.recvByLevel[l] = 0, 0, 0
	}
	w.buckets, w.cursors, w.pending = w.buckets[:0], w.cursors[:0], w.pending[:0]
	w.freshAt, w.sentByLevel, w.recvByLevel = w.freshAt[:0], w.sentByLevel[:0], w.recvByLevel[:0]
	for d := range w.outBuf {
		if w.outBuf[d] != nil {
			w.outBuf[d] = w.outBuf[d][:0]
		} else if d != w.id {
			w.outBuf[d] = w.getBatch()
		}
	}
	w.outLevel = -1
	w.inbox.mu.Lock()
	q := w.inbox.q
	w.inbox.q = w.inbox.q[:0]
	w.inbox.mu.Unlock()
	for _, b := range q {
		if b.err == nil {
			w.putBatch(b.states)
		}
	}
	select {
	case <-w.inbox.notify:
	default:
	}
	for _, ln := range w.lanes {
		if ln.defr != nil {
			w.putBatch(ln.defr)
		}
		ln.reset()
	}
	w.visited.Reset()
	w.fresh, w.transitions, w.maxFresh = 0, 0, 0
	w.routed, w.filtered, w.wireBytes = 0, 0, 0
	clear(w.linkStates)
	clear(w.linkBytes)
	w.tooLarge, w.err = false, nil
	w.haveViol, w.violLevel, w.violState, w.violApp = false, 0, verify.PackedState{}, -1
	w.haveBound, w.boundLevel, w.boundState = false, 0, verify.PackedState{}
	w.final = 0
	w.finished = false
	w.lastSnap, w.haveSnap = meshDigest{}, false
	w.ftTrans = w.ftTrans[:0]
	w.ckptLevel = -1
	if w.deadPeers != nil {
		clear(w.deadPeers)
	}
	w.linkDown = w.linkDown[:0]
	for _, b := range w.futureQ {
		if b.err == nil {
			w.putBatch(b.states)
		}
	}
	w.futureQ = w.futureQ[:0]
	w.applyFT(job)

	links, cleanup, err := env.connect(job, w.inbox, w.exp)
	if err != nil {
		return nil, nil, err
	}
	w.links, w.cleanup = links, cleanup
	for d, l := range links {
		switch want := d != w.id && l != nil && l.wantFilter(); {
		case want && w.filters[d].slots == nil:
			w.filters[d] = newSendFilter()
		case want:
			clear(w.filters[d].slots)
		default:
			w.filters[d] = sendFilter{}
		}
	}
	resp := &w.initResp
	*resp = Response{Proto: protoVersion, ViolApp: -1}
	if err := w.seedOrRestore(job, resp); err != nil {
		w.shutdown()
		return nil, nil, err
	}
	return w, resp, nil
}

// getBatch draws a batch slice from the worker's free list, falling back
// to the shared pool. Orchestrator goroutine only — the list is what
// keeps a node's steady-state batch traffic allocation-free without
// sync.Pool round-trips (whose misses grew per-op allocations with the
// node count; inbox batches absorbed here refill the list the sends
// drain).
func (w *meshWorker) getBatch() []verify.PackedState {
	if n := len(w.free); n > 0 {
		b := w.free[n-1]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
		return b
	}
	return getBatch()
}

// putBatch recycles a batch slice into the worker's free list (overflow
// spills to the shared pool). Orchestrator goroutine only.
func (w *meshWorker) putBatch(b []verify.PackedState) {
	if cap(b) == 0 {
		return
	}
	if len(w.free) < meshFreeBatches {
		w.free = append(w.free, b[:0])
		return
	}
	putBatch(b)
}

// ensureLevel grows the level-indexed slices to hold level l. The
// initial capacity covers typical search depths in one allocation per
// slice; deeper runs fall back to append's doubling.
func (w *meshWorker) ensureLevel(l int) {
	if w.buckets == nil {
		n := l + 1
		if n < 64 {
			n = 64
		}
		w.buckets = make([][]verify.PackedState, 0, n)
		w.cursors = make([]int, 0, n)
		w.pending = make([][][]verify.PackedState, 0, n)
		w.freshAt = make([]int, 0, n)
		w.sentByLevel = make([]int, 0, n)
		w.recvByLevel = make([]int, 0, n)
	}
	for len(w.buckets) <= l {
		w.buckets = append(w.buckets, nil)
		w.cursors = append(w.cursors, 0)
		w.pending = append(w.pending, nil)
		w.freshAt = append(w.freshAt, 0)
		w.sentByLevel = append(w.sentByLevel, 0)
		w.recvByLevel = append(w.recvByLevel, 0)
	}
}

// absorb applies the commit rule to a level-tagged batch, taking
// ownership of the slice: levels ≤ final+1 enter the visited set (fresh
// states join their bucket) and the slice is recycled; later tags defer
// the whole slice uncopied; levels beyond the violation bound are dropped
// (they can never reach the verdict). Committable batches big enough to
// beat the spawn barrier fan across the lane pool into the striped set.
func (w *meshWorker) absorb(level int, states []verify.PackedState) {
	if w.haveBound && level > w.boundLevel {
		w.putBatch(states)
		return
	}
	w.ensureLevel(level)
	if level > w.final+1 {
		if w.pending[level] == nil && w.sparePending != nil {
			w.pending[level], w.sparePending = w.sparePending, nil
		}
		w.pending[level] = append(w.pending[level], states)
		return
	}
	w.visited.Reserve(len(states))
	if w.lanes != nil && len(states) >= meshParallelThreshold && !w.tooLarge {
		w.absorbParallel(level, states)
		w.putBatch(states)
		return
	}
	for _, s := range states {
		w.commit1(level, s, w.exp.Hash(s))
		if w.tooLarge {
			return
		}
	}
	w.putBatch(states)
}

// absorbParallel is the contention-free absorb path: the crew's lanes claim
// chunks of the batch from the work-stealing queue, hash each state once and
// insert it into the lock-free striped visited set, staging fresh commits
// lane-locally; the orchestrator folds the stages into the level bucket
// afterwards, so the bucket and the per-level counters never see concurrent
// writers.
func (w *meshWorker) absorbParallel(level int, states []verify.PackedState) {
	t := &w.ptask
	t.mode = laneTaskAbsorb
	t.states = states
	t.freshTotal.Store(int64(w.fresh))
	t.tooLarge.Store(false)
	w.crew.ensure(w.lanes)
	w.crew.fan(len(states), meshLaneChunk)
	t.states = nil
	w.commitMerged(level, t.tooLarge.Load())
}

// commitMerged folds the lanes' fresh commits of one parallel pass into
// the level bucket and the counters the serial commit1 maintains.
func (w *meshWorker) commitMerged(level int, tooLarge bool) {
	if tooLarge {
		w.tooLarge = true
	}
	total := 0
	for _, ln := range w.lanes {
		total += len(ln.next)
	}
	if total == 0 {
		return
	}
	if len(w.buckets[level]) == 0 && cap(w.buckets[level]) == 0 {
		w.buckets[level] = w.newBucket(level)
	}
	for _, ln := range w.lanes {
		w.buckets[level] = append(w.buckets[level], ln.next...)
		ln.next = ln.next[:0]
	}
	w.fresh += total
	w.freshAt[level] += total
	if level > w.maxFresh {
		w.maxFresh = level
	}
	if w.haveBound && level > w.boundLevel {
		// Committed beyond the verdict level: counted, never expanded.
		w.cursors[level] = len(w.buckets[level])
	}
}

// commit1 commits a single state under the same rule as absorb. h must be
// the expander's hash of s (expansion already computed it for routing, so
// the visited probe never mixes twice).
func (w *meshWorker) commit1(level int, s verify.PackedState, h uint64) {
	if w.tooLarge || (w.haveBound && level > w.boundLevel) {
		return
	}
	w.ensureLevel(level)
	if level > w.final+1 {
		lst := w.pending[level]
		if lst == nil && w.sparePending != nil {
			lst, w.sparePending = w.sparePending, nil
		}
		if n := len(lst); n == 0 || len(lst[n-1]) == cap(lst[n-1]) {
			lst = append(lst, w.getBatch())
		}
		lst[len(lst)-1] = append(lst[len(lst)-1], s)
		w.pending[level] = lst
		return
	}
	if w.visited.AddHashed(s, h) {
		// fresh tracks the set cardinality exactly (every counted add bumps
		// it), so the budget check never takes the striped set's 64 locks.
		if w.fresh+1 > w.budget {
			w.tooLarge = true
			return
		}
		if len(w.buckets[level]) == 0 && cap(w.buckets[level]) == 0 {
			w.buckets[level] = w.newBucket(level)
		}
		w.buckets[level] = append(w.buckets[level], s)
		w.fresh++
		w.freshAt[level]++
		if level > w.maxFresh {
			w.maxFresh = level
		}
	}
}

// newBucket sizes a level's frontier bucket from the previous level's
// fresh count, so big levels fill without repeated growth copies. Big
// levels reuse spare buckets retired by recycleBucket when one fits —
// the frontier/spare swap of the local drivers. Best fit, so a small
// level does not squat in a peak-sized buffer the next big level needs.
func (w *meshWorker) newBucket(level int) []verify.PackedState {
	if level > 0 && w.freshAt[level-1] > meshBatchTarget {
		n := w.freshAt[level-1] + w.freshAt[level-1]/4
		best := -1
		for i, sb := range w.spareBuckets {
			if cap(sb) >= n && (best < 0 || cap(sb) < cap(w.spareBuckets[best])) {
				best = i
			}
		}
		if best >= 0 {
			b := w.spareBuckets[best]
			last := len(w.spareBuckets) - 1
			w.spareBuckets[best] = w.spareBuckets[last]
			w.spareBuckets[last] = nil
			w.spareBuckets = w.spareBuckets[:last]
			return b
		}
		// Double the headroom: frontier sizes climb through the rising
		// phase of the search, so a bucket sized to just this level would
		// be too small to recycle into the next one — every big level of
		// every run would then allocate its frontier anew. With the slack,
		// a retired bucket absorbs the next level's growth and the
		// frontier/spare swap holds through the climb.
		return make([]verify.PackedState, 0, 2*n)
	}
	return w.getBatch()
}

// meshSpareBuckets bounds the retired big-bucket stack: the pipelined
// commit rule keeps a few levels in flight, so a retire burst of that
// depth must fit or the next run's climb re-allocates what was dropped.
const meshSpareBuckets = 32

// recycleBucket retires a drained, final-level bucket: batch-sized ones
// feed the free list, bigger ones become the spare the next big level is
// built in, so resident memory tracks the frontier, not the whole
// visited set — and steady-state levels allocate nothing.
func (w *meshWorker) recycleBucket(l int) {
	b := w.buckets[l]
	w.buckets[l] = w.buckets[l][:0:0]
	w.cursors[l] = 0
	if cap(b) > meshBatchTarget {
		if len(w.spareBuckets) < meshSpareBuckets {
			w.spareBuckets = append(w.spareBuckets, b[:0])
			return
		}
		small := 0
		for i := range w.spareBuckets {
			if cap(w.spareBuckets[i]) < cap(w.spareBuckets[small]) {
				small = i
			}
		}
		if cap(b) > cap(w.spareBuckets[small]) {
			w.spareBuckets[small] = b[:0]
		}
		return
	}
	w.putBatch(b)
}

// setFinal raises the node's final-level knowledge, releasing deferred
// commits level by ascending level (the order the commit-rule proof
// relies on: pending level L+1 flushes only once level L is final).
func (w *meshWorker) setFinal(f int) {
	for w.final < f {
		w.final++
		l := w.final + 1
		if l < len(w.pending) && len(w.pending[l]) > 0 {
			batches := w.pending[l]
			w.pending[l] = nil
			for _, b := range batches {
				w.absorb(l, b)
			}
			// A flushed level never refills, but the next level defers the
			// same way: keep the larger list backbone as the shared spare.
			if cap(batches) > cap(w.sparePending) {
				for i := range batches {
					batches[i] = nil
				}
				w.sparePending = batches[:0]
			}
		}
	}
}

// noteViol records a violation found while expanding one of this node's
// bucket states, keeping the (level, state) minimum.
func (w *meshWorker) noteViol(level int, s verify.PackedState, app int) {
	if !w.haveViol || level < w.violLevel || (level == w.violLevel && verify.LessState(s, w.violState)) {
		w.haveViol, w.violLevel, w.violState, w.violApp = true, level, s, app
	}
	w.noteBound(level, s)
}

// noteBound tightens the skip bound (own findings merged with the
// coordinator's broadcast) and drops work that can no longer matter.
func (w *meshWorker) noteBound(level int, s verify.PackedState) {
	if w.haveBound && (w.boundLevel < level || (w.boundLevel == level && verify.LessState(w.boundState, s))) {
		return
	}
	w.haveBound, w.boundLevel, w.boundState = true, level, s
	for l := level + 1; l < len(w.buckets); l++ {
		if len(w.buckets[l]) > 0 {
			w.cursors[l] = len(w.buckets[l])
		}
		for _, b := range w.pending[l] {
			w.putBatch(b)
		}
		w.pending[l] = nil
	}
}

// drainInbox absorbs everything queued on the node's mesh links. A link
// failure poisons a non-FT run; under fault tolerance it marks the peer
// dead and is reported to the coordinator via the snapshot's LinkDown.
// Era-tagged batches from a past era are dropped (the rollback erased
// their accounting on both ends); batches from a future era are parked
// until this worker's own recovery order arrives, so nothing a recovered
// peer sent ahead of our rollback is ever lost.
func (w *meshWorker) drainInbox() {
	batches := w.inbox.drain(w.spareQ)
	for i := range batches {
		b := &batches[i]
		if b.err != nil {
			if w.ft {
				w.noteLinkDown(b.from)
			} else if w.err == nil {
				w.err = b.err
			}
			continue
		}
		if b.era != w.era {
			if b.era > w.era {
				w.futureQ = append(w.futureQ, *b)
			} else {
				w.putBatch(b.states)
			}
			b.states = nil
			continue
		}
		w.ensureLevel(b.level)
		w.recvByLevel[b.level] += len(b.states)
		w.absorb(b.level, b.states)
		b.states = nil
	}
	w.spareQ = batches[:0]
}

// noteLinkDown records a dead peer: no further sends are attempted and
// the coordinator learns via the next snapshot's LinkDown report.
func (w *meshWorker) noteLinkDown(peer int) {
	if peer < 0 || peer >= w.n {
		return
	}
	if w.deadPeers == nil {
		w.deadPeers = make([]bool, w.n)
	}
	if !w.deadPeers[peer] {
		w.deadPeers[peer] = true
		w.linkDown = append(w.linkDown, peer)
	}
}

// expandable returns the lowest level with unexpanded committed work,
// skipping (and marking drained) levels beyond the violation bound.
func (w *meshWorker) expandable() int {
	for l := range w.buckets {
		if w.cursors[l] < len(w.buckets[l]) {
			if w.haveBound && l > w.boundLevel {
				w.cursors[l] = len(w.buckets[l])
				continue
			}
			return l
		}
	}
	return -1
}

// expandChunk expands up to n states (per lane when parallel) from the
// lowest available bucket, routing foreign successors over the mesh and
// committing self-owned ones locally. Returns false when no work was
// available.
func (w *meshWorker) expandChunk(n int) bool {
	l := w.expandable()
	if l < 0 {
		return false
	}
	if w.outLevel != l+1 {
		w.flushOut()
		w.outLevel = l + 1
		// Pre-size the visited partition for the coming level from the
		// fresh-state trajectory (the local drivers' levelReserve
		// heuristic), so commits inside a level rarely rehash.
		est := w.freshAt[l]
		if l > 0 && w.freshAt[l-1] > 0 {
			est = w.freshAt[l] * w.freshAt[l] / w.freshAt[l-1]
			if max := 8 * w.freshAt[l]; est > max {
				est = max
			}
		}
		w.visited.Reserve(est)
	}
	if w.lanes != nil && len(w.buckets[l])-w.cursors[l] >= meshParallelThreshold && !w.tooLarge {
		w.expandParallel(l, n)
	} else {
		w.expandSerial(l, n)
	}
	if w.cursors[l] == len(w.buckets[l]) && len(w.buckets[l]) > 0 && l <= w.final {
		// The bucket is drained and — level final — can never refill. With
		// checkpointing on, the bucket is the segment payload: keep it until
		// the sweep has persisted the level (maybeCheckpoint recycles it).
		if !w.ckptOn || l <= w.ckptLevel {
			w.recycleBucket(l)
		}
	}
	return true
}

// expandSerial is the single-goroutine expansion loop: hash each
// successor once during the packing sweep, then reuse the hash for shard
// routing, the send filter and the visited probe.
func (w *meshWorker) expandSerial(l, n int) {
	for i := 0; i < n && w.cursors[l] < len(w.buckets[l]); i++ {
		if w.tooLarge {
			return
		}
		s := w.buckets[l][w.cursors[l]]
		w.cursors[l]++
		if w.haveBound && l == w.boundLevel && verify.LessState(w.boundState, s) {
			continue
		}
		succ, violApp := w.exp.SuccessorsHashedInto(s, w.esc, w.hsucc[:0])
		w.hsucc = succ[:0]
		if violApp >= 0 {
			w.noteViol(l, s, violApp)
			continue
		}
		w.transitions += len(succ)
		if w.ckptOn {
			w.ftTransAdd(l, w.exp.Hash(s), len(succ))
		}
		if w.haveBound && l+1 > w.boundLevel {
			continue // successors beyond the verdict level
		}
		for _, ns := range succ {
			if dst := int(w.owners[ns.H>>58]); dst != w.id {
				if w.filters[dst].slots != nil && w.filters[dst].seen(ns.S, ns.H) {
					w.filtered++
				} else {
					w.outBuf[dst] = append(w.outBuf[dst], ns.S)
					if len(w.outBuf[dst]) >= meshBatchTarget {
						w.flushDest(dst)
					}
				}
			} else {
				w.commit1(l+1, ns.S, ns.H)
			}
		}
	}
}

// expandParallel fans a claim of up to n-states-per-lane across the
// crew. Two facts are frozen for the whole chunk on the orchestrator
// side — whether level l+1 is committable (commit rule) and whether it is
// beyond the violation bound — because only the orchestrator ever moves
// them. A violation found mid-chunk therefore cannot retract the chunk's
// other successors, which is safe: counts are only compared on
// schedulable runs, and the minimum violator of the first violating
// level can never be suppressed by a larger one (the skip bound only
// drops states *greater* than the recorded minimum).
func (w *meshWorker) expandParallel(l, n int) {
	lo := w.cursors[l]
	hi := min(lo+n*len(w.lanes), len(w.buckets[l]))
	t := &w.ptask
	t.mode = laneTaskExpand
	t.states = w.buckets[l][lo:hi]
	w.cursors[l] = hi
	t.commitOK = l+1 <= w.final+1
	t.dropSucc = w.haveBound && l+1 > w.boundLevel
	if t.commitOK {
		w.ensureLevel(l + 1)
	}
	t.minViol.Store(nil)
	if w.haveBound && l == w.boundLevel {
		t.boundCopy = w.boundState
		t.minViol.Store(&t.boundCopy)
	}
	t.freshTotal.Store(int64(w.fresh))
	t.tooLarge.Store(false)
	for _, ln := range w.lanes {
		if !t.commitOK && ln.defr == nil {
			ln.defr = w.getBatch()
		}
	}
	w.crew.ensure(w.lanes)
	w.crew.fan(len(t.states), meshLaneChunk)
	t.states = nil
	w.mergeLanes(l, t.commitOK, t.tooLarge.Load())
}

// lanePass is the crew body: one wake of one lane, dispatched on the
// worker's current task.
func (w *meshWorker) lanePass(lane int, ln *meshLane) {
	if w.ptask.mode == laneTaskAbsorb {
		w.laneAbsorb(lane, ln)
		return
	}
	w.laneExpand(lane, ln)
}

// laneAbsorb is one lane's share of a parallel absorb: claim chunks from
// the work queue, hash each state once, insert into the lock-free striped
// set, stage fresh commits lane-locally.
func (w *meshWorker) laneAbsorb(lane int, ln *meshLane) {
	t := &w.ptask
	budget := int64(w.budget)
	ln.next = ln.next[:0]
	for {
		lo, hi, ok := w.crew.wq.Next(lane)
		if !ok || t.tooLarge.Load() {
			return
		}
		for _, s := range t.states[lo:hi] {
			if w.visited.AddHashed(s, w.exp.Hash(s)) {
				if t.freshTotal.Add(1) > budget {
					t.tooLarge.Store(true)
					return
				}
				ln.next = append(ln.next, s)
			}
		}
	}
}

// laneExpand is one lane's share of a parallel expansion chunk: claim
// ranges from the work-stealing queue, expand each state through the
// lane's own scratch (hashing during packing), and stage everything
// lane-locally — peer-owned successors per destination, self-owned ones
// either straight into the striped visited set (committable levels) or
// into the deferred batch. The only shared writes are the striped set,
// the task atomics and the minimum-violator CAS.
func (w *meshWorker) laneExpand(lane int, ln *meshLane) {
	t := &w.ptask
	ln.trans, ln.haveViol = 0, false
	ln.next = ln.next[:0]
	if w.ckptOn {
		clear(ln.ftt[:])
	}
	budget := int64(w.budget)
	for {
		lo, hi, ok := w.crew.wq.Next(lane)
		if !ok || t.tooLarge.Load() {
			return
		}
		for _, s := range t.states[lo:hi] {
			if mv := t.minViol.Load(); mv != nil && verify.LessState(*mv, s) {
				continue // a smaller violator at this level already wins
			}
			succ, violApp := w.exp.SuccessorsHashedInto(s, ln.esc, ln.succ[:0])
			ln.succ = succ[:0]
			if violApp >= 0 {
				if !ln.haveViol || verify.LessState(s, ln.violState) {
					ln.haveViol, ln.violState, ln.violApp = true, s, violApp
				}
				for { // tighten the shared skip bound (runParallel idiom)
					mv := t.minViol.Load()
					if mv != nil && !verify.LessState(s, *mv) {
						break
					}
					ns := s
					if t.minViol.CompareAndSwap(mv, &ns) {
						break
					}
				}
				continue
			}
			ln.trans += len(succ)
			if w.ckptOn {
				ln.ftt[w.exp.Hash(s)>>58] += int64(len(succ))
			}
			if t.dropSucc {
				continue // successors beyond the verdict level
			}
			for _, ns := range succ {
				if dst := int(w.owners[ns.H>>58]); dst != w.id {
					ln.out[dst] = append(ln.out[dst], ns)
				} else if !t.commitOK {
					ln.defr = append(ln.defr, ns.S)
				} else if w.visited.AddHashed(ns.S, ns.H) {
					if t.freshTotal.Add(1) > budget {
						t.tooLarge.Store(true)
						return
					}
					ln.next = append(ln.next, ns.S)
				}
			}
		}
	}
}

// mergeLanes folds a parallel chunk's lane staging back into the
// orchestrator's single-threaded state: transitions and the violation
// minimum first (tightening the bound), then the fresh commits (or the
// deferred batches, ownership transferred uncopied), and finally the
// staged peer routes — pushed through each destination's recent-state
// filter into the coalesced send buffer by this one goroutine, so the
// per-level sent counts the epoch tracker sums stay exact.
func (w *meshWorker) mergeLanes(l int, commitOK, tooLarge bool) {
	level := l + 1
	w.ensureLevel(level)
	for _, ln := range w.lanes {
		w.transitions += ln.trans
		if w.ckptOn && ln.trans > 0 {
			w.ftTransMerge(l, &ln.ftt)
		}
		if ln.haveViol {
			w.noteViol(l, ln.violState, ln.violApp)
		}
	}
	if commitOK {
		w.commitMerged(level, tooLarge)
	} else {
		for _, ln := range w.lanes {
			if ln.defr == nil {
				continue
			}
			if len(ln.defr) > 0 && !(w.haveBound && level > w.boundLevel) {
				w.pending[level] = append(w.pending[level], ln.defr)
			} else {
				w.putBatch(ln.defr)
			}
			ln.defr = nil
		}
	}
	if w.haveBound && level > w.boundLevel {
		// The chunk's own violations doomed its successors: drop the
		// staged routes, exactly as the serial path skips them.
		for _, ln := range w.lanes {
			for d := range ln.out {
				ln.out[d] = ln.out[d][:0]
			}
		}
		return
	}
	for d := range w.outBuf {
		if d == w.id {
			continue
		}
		for _, ln := range w.lanes {
			for _, ns := range ln.out[d] {
				if w.filters[d].slots != nil && w.filters[d].seen(ns.S, ns.H) {
					w.filtered++
					continue
				}
				w.outBuf[d] = append(w.outBuf[d], ns.S)
				if len(w.outBuf[d]) >= meshBatchTarget {
					w.flushDest(d)
				}
			}
			ln.out[d] = ln.out[d][:0]
		}
	}
}

// flushDest ships one destination's buffered successors as a level-tagged
// batch, updating the epoch and wire accounting. Under fault tolerance a
// failed (or known-dead) destination drops the batch and marks the link
// down instead of poisoning the run: the coordinator's recovery rolls
// every counter back past the loss, so an uncounted drop can never skew
// the sent/recv sums that drive termination.
func (w *meshWorker) flushDest(d int) {
	states := w.outBuf[d]
	if len(states) == 0 {
		return
	}
	w.outBuf[d] = w.getBatch()
	if w.ft && w.deadPeers[d] {
		w.putBatch(states)
		return
	}
	n, level := len(states), w.outLevel
	w.ensureLevel(level)
	bytes, err := w.links[d].send(w.era, level, states)
	if err != nil {
		if w.ft {
			w.noteLinkDown(d)
			return
		}
		if w.err == nil {
			w.err = fmt.Errorf("mesh link to node %d: %v", d, err)
		}
	}
	w.sentByLevel[level] += n
	w.routed += n
	w.linkStates[d] += n
	w.wireBytes += bytes
	w.linkBytes[d] += bytes
}

// flushOut ships every buffered destination batch.
func (w *meshWorker) flushOut() {
	if w.outLevel < 0 {
		return
	}
	for d := range w.outBuf {
		if d != w.id {
			w.flushDest(d)
		}
	}
}

// drained computes the highest level L with every bucket ≤ L expanded,
// capped at final+1 (deeper buckets may still be refilled by peers).
func (w *meshWorker) drained() int {
	d := -1
	for l := 0; l <= w.final+1; l++ {
		if l < len(w.buckets) && w.cursors[l] < len(w.buckets[l]) {
			if !(w.haveBound && l > w.boundLevel) {
				break
			}
		}
		d = l
	}
	return d
}

// idle reports quiescence under the node's current milestone knowledge.
func (w *meshWorker) idle() bool {
	if w.expandable() >= 0 || len(w.futureQ) > 0 {
		return false
	}
	for d, b := range w.outBuf {
		if d != w.id && len(b) > 0 {
			return false
		}
	}
	for l, lst := range w.pending {
		if len(lst) > 0 && !(w.haveBound && l > w.boundLevel) {
			return false
		}
	}
	w.inbox.mu.Lock()
	empty := len(w.inbox.q) == 0
	w.inbox.mu.Unlock()
	return empty
}

// digest captures the snapshot fields the long-poll news check compares.
func (w *meshWorker) digest() meshDigest {
	pendingN := 0
	for _, lst := range w.pending {
		for _, b := range lst {
			pendingN += len(b)
		}
	}
	sent, recv := 0, 0
	for l := range w.sentByLevel {
		sent += w.sentByLevel[l]
		recv += w.recvByLevel[l]
	}
	return meshDigest{
		fresh: w.fresh, transitions: w.transitions, routed: w.routed, filtered: w.filtered,
		sent: sent, recv: recv, pendingN: pendingN,
		drained: w.drained(), maxFresh: w.maxFresh,
		idle: w.idle(), tooLarge: w.tooLarge, haveErr: w.err != nil, haveViol: w.haveViol,
		violLevel: w.violLevel, violState: w.violState,
	}
}

// snapshot builds a poll response from the cumulative counters, reusing
// the flip buffer's slices (see snapResp).
func (w *meshWorker) snapshot() *Response {
	resp := &w.snapResp[w.snapFlip]
	w.snapFlip ^= 1
	*resp = Response{
		Proto:        protoVersion,
		SentByLevel:  append(resp.SentByLevel[:0], w.sentByLevel...),
		RecvByLevel:  append(resp.RecvByLevel[:0], w.recvByLevel...),
		FreshByLevel: append(resp.FreshByLevel[:0], w.freshAt...),
		Links:        resp.Links[:0],
		Drained:      w.drained(),
		Idle:         w.idle(),
		MaxFresh:     w.maxFresh,
		Fresh:        w.fresh,
		Transitions:  w.transitions,
		Routed:       w.routed,
		Filtered:     w.filtered,
		RawBytes:     8 * w.words * (w.routed + w.filtered),
		WireBytes:    w.wireBytes,
		TooLarge:     w.tooLarge,
		ViolApp:      -1,
		Era:          w.era,
		Ckpt:         w.ckptLevel,
		LinkDown:     append(resp.LinkDown[:0], w.linkDown...),
	}
	if w.err != nil {
		resp.Err = w.err.Error()
	}
	if w.haveViol {
		resp.Viol = true
		resp.ViolLevel, resp.ViolState, resp.ViolApp = w.violLevel, w.violState, w.violApp
	}
	for d := range w.linkStates {
		if d != w.id && (w.linkStates[d] > 0 || w.linkBytes[d] > 0) {
			resp.Links = append(resp.Links, verify.LinkWire{
				From: w.id, To: d, States: w.linkStates[d], Bytes: w.linkBytes[d],
			})
		}
	}
	w.lastSnap, w.haveSnap = w.digest(), true
	return resp
}

// poll is one control-plane epoch on the worker side: absorb the
// coordinator's milestone knowledge, then expand and exchange until there
// is news (or the poll budget runs out), and answer with a snapshot.
func (w *meshWorker) poll(ctl *Control) *Response {
	if ctl != nil {
		if ctl.Recover != nil && w.ft && ctl.Recover.Era > w.era {
			w.recoverTo(ctl.Recover)
		}
		if ctl.Finish {
			w.shutdown()
			w.removeCkpt()
			return w.snapshot()
		}
		w.setFinal(ctl.Final)
		if ctl.HaveViol {
			w.noteBound(ctl.ViolLevel, ctl.ViolState)
		}
	}
	if w.finished {
		return w.snapshot()
	}
	deadline := time.Now().Add(meshPollBudget)
	for {
		w.drainInbox()
		if w.err != nil || w.tooLarge {
			break
		}
		if w.haveViol && (!w.haveSnap || !w.lastSnap.haveViol ||
			w.violLevel != w.lastSnap.violLevel || w.violState != w.lastSnap.violState) {
			break // a new minimum violation is always news
		}
		if !w.expandChunk(meshChunk) {
			w.flushOut()
			if !w.haveSnap || w.digest() != w.lastSnap {
				break
			}
			if !w.waitData(deadline) {
				break
			}
			continue
		}
		if time.Now().After(deadline) {
			w.flushOut()
			break
		}
	}
	w.maybeCheckpoint()
	return w.snapshot()
}

// waitData blocks until a mesh batch arrives or the poll deadline passes,
// reporting whether it is worth looping again.
func (w *meshWorker) waitData(deadline time.Time) bool {
	d := time.Until(deadline)
	if d <= 0 {
		return false
	}
	if d > meshIdleWait {
		d = meshIdleWait
	}
	if w.waitT == nil {
		w.waitT = time.NewTimer(d)
	} else {
		w.waitT.Reset(d)
	}
	select {
	case <-w.inbox.notify:
		if !w.waitT.Stop() {
			select {
			case <-w.waitT.C:
			default:
			}
		}
		return true
	case <-w.waitT.C:
		return false
	}
}

// shutdown tears the node's data plane down (idempotent): links closed,
// registry entry released. The session's cumulative counters fold into the
// worker-side metrics here — once per session, zero hot-path cost.
func (w *meshWorker) shutdown() {
	if w.finished {
		return
	}
	w.finished = true
	obsSessions.Inc()
	obsFresh.Add(uint64(w.fresh))
	obsWireBytes.Add(uint64(w.wireBytes))
	obsRoutedStates.Add(uint64(w.routed))
	obsFilteredStates.Add(uint64(w.filtered))
	w.crew.stop()
	if w.lanes != nil {
		// Contention deltas since the last flush: the sharded set and the
		// steal counter survive session reinit, so fold only this session's
		// share into the engine telemetry (Overflows reset with the set, so
		// the raw value is already the session's).
		s := w.visited.Stats()
		verify.FlushContention(verify.SetStats{
			Probes:    s.Probes - w.contFlushed.Probes,
			Retries:   s.Retries - w.contFlushed.Retries,
			Overflows: s.Overflows,
		}, int64(w.transitions), w.crew.wq.Steals()-w.stealsFlushed)
		w.contFlushed = s
		w.stealsFlushed = w.crew.wq.Steals()
	}
	for _, l := range w.links {
		if l != nil {
			l.close()
		}
	}
	if w.cleanup != nil {
		w.cleanup()
	}
}

// meshTracker is the coordinator's milestone state over one mesh run. It
// is pure bookkeeping (no I/O), so the epoch/termination invariants are
// unit-testable against adversarial snapshot interleavings.
type meshTracker struct {
	n           int
	final       int // highest level with final membership everywhere
	done        int // highest level fully expanded everywhere
	sent, recv  []int
	drained     []int
	idle        []bool
	gone        []bool // evicted nodes: excluded from every milestone
	maxLevel    int
	maxFresh    int
	fresh       int
	transitions int
	tooLarge    bool
	haveViol    bool
	violLevel   int
	violState   verify.PackedState
	violApp     int
	wire        verify.WireStats
}

func newMeshTracker(n int) *meshTracker {
	return &meshTracker{n: n, final: 0, done: -1, drained: make([]int, n), idle: make([]bool, n), violApp: -1}
}

// observe folds one full poll round into the tracker. Counters are
// cumulative, so the round replaces (never accumulates) totals. Nil
// responses (evicted nodes on a fault-tolerant run) are skipped — their
// shards' counters live in the survivors after the rollback.
func (t *meshTracker) observe(resps []*Response) {
	t.sent = t.sent[:0]
	t.recv = t.recv[:0]
	t.fresh, t.transitions, t.maxFresh = 0, 0, 0
	t.wire = verify.WireStats{Links: t.wire.Links[:0]}
	for i, r := range resps {
		if r == nil {
			continue
		}
		t.drained[i] = r.Drained
		t.idle[i] = r.Idle
		t.fresh += r.Fresh
		t.transitions += r.Transitions
		if r.MaxFresh > t.maxFresh {
			t.maxFresh = r.MaxFresh
		}
		t.tooLarge = t.tooLarge || r.TooLarge
		for l, v := range r.SentByLevel {
			for len(t.sent) <= l {
				t.sent = append(t.sent, 0)
			}
			t.sent[l] += v
		}
		for l, v := range r.RecvByLevel {
			for len(t.recv) <= l {
				t.recv = append(t.recv, 0)
			}
			t.recv[l] += v
		}
		if r.Viol && (!t.haveViol || r.ViolLevel < t.violLevel ||
			(r.ViolLevel == t.violLevel && verify.LessState(r.ViolState, t.violState))) {
			t.haveViol, t.violLevel, t.violState, t.violApp = true, r.ViolLevel, r.ViolState, r.ViolApp
		}
		t.wire.Add(verify.WireStats{
			RoutedStates:   r.Routed,
			FilteredStates: r.Filtered,
			RawBytes:       r.RawBytes,
			WireBytes:      r.WireBytes,
			Links:          r.Links,
		})
	}
	t.maxLevel = t.maxFresh
	if len(t.sent)-1 > t.maxLevel {
		t.maxLevel = len(t.sent) - 1
	}
	if len(t.recv)-1 > t.maxLevel {
		t.maxLevel = len(t.recv) - 1
	}
}

func (t *meshTracker) sumAt(counts []int, l int) int {
	if l < len(counts) {
		return counts[l]
	}
	return 0
}

// advance raises the done/final milestones as far as the last observed
// round justifies. done(L) needs final(L) and every worker drained ≤ L;
// final(L+1) needs done(L) — sends tagged L+1 are then finished — plus
// matching cluster-wide sent/recv sums at L+1.
func (t *meshTracker) advance() {
	for {
		d := t.final
		for i, w := range t.drained {
			if t.gone != nil && t.gone[i] {
				continue
			}
			if w < d {
				d = w
			}
		}
		if d > t.done {
			t.done = d
			continue
		}
		if t.done == t.final && t.final < t.maxLevel+1 &&
			t.sumAt(t.sent, t.final+1) == t.sumAt(t.recv, t.final+1) {
			t.final++
			continue
		}
		return
	}
}

// rebase rewinds the tracker to a recovery cut: levels through the cut
// were restored from checkpoints (final membership), the cut level is
// the new frontier awaiting re-expansion. Cumulative totals and per-level
// sums are replaced wholesale by the next observe round — the workers'
// reset zeroed the counters these sums mirror — and the sticky budget
// flag is cleared because restore re-derives it from the restored
// membership. Violation knowledge survives: a found violation is a
// property of the state space, and the workers keep theirs too.
func (t *meshTracker) rebase(cut int) {
	t.final = cut
	if t.final < 0 {
		t.final = 0
	}
	t.done = -1
	t.sent, t.recv = t.sent[:0], t.recv[:0]
	t.maxLevel = 0
	t.tooLarge = false
}

// terminated reports whether the verdict is final: a violation whose
// level is fully expanded, or cluster-wide quiescence with every level's
// sent/recv sums matching (no state in flight, nothing left to expand).
func (t *meshTracker) terminated() bool {
	if t.haveViol && t.done >= t.violLevel {
		return true
	}
	for i, ok := range t.idle {
		if t.gone != nil && t.gone[i] {
			continue
		}
		if !ok {
			return false
		}
	}
	for l := 0; l <= t.maxLevel; l++ {
		if t.sumAt(t.sent, l) != t.sumAt(t.recv, l) {
			return false
		}
	}
	return true
}

// control renders the tracker's knowledge for the next poll round.
// controlInto fills c with the tracker's current milestones. The
// coordinator reuses one Control across rounds (workers read it inside
// the call and never retain it), so the poll loop allocates none.
func (t *meshTracker) controlInto(c *Control) {
	*c = Control{Final: t.final, Done: t.done}
	if t.haveViol {
		c.HaveViol, c.ViolLevel, c.ViolState = true, t.violLevel, t.violState
	}
}

// foldMeshTrace folds the final poll round into the run trace: each
// worker's cumulative per-level fresh commits sum (across nodes) to the
// global frontier size of every BFS level — the same per-level counts the
// local drivers record — plus one NodeSpan per worker and the epoch count.
// Per-level transitions are not attributed in the mesh (workers count them
// per session, not per level), so the spans carry states only.
func foldMeshTrace(trace *obs.Trace, resps []*Response, epochs int) {
	if trace == nil {
		return
	}
	for i, r := range resps {
		if r == nil {
			continue // evicted node; its levels live in the survivors
		}
		for l, v := range r.FreshByLevel {
			if v > 0 {
				trace.AddLevel(l, v, 0)
			}
		}
		sent, recv := 0, 0
		for _, v := range r.SentByLevel {
			sent += v
		}
		for _, v := range r.RecvByLevel {
			recv += v
		}
		trace.AddNode(i, r.Fresh, r.MaxFresh, sent, recv)
	}
	trace.SetEpochs(epochs)
}

// newSessionID draws a random mesh-rendezvous token; daemons serving
// several coordinators key their link registries by it.
func newSessionID() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 1
	}
	id := binary.LittleEndian.Uint64(b[:])
	if id == 0 {
		id = 1
	}
	return id
}

// meshPoller keeps one long-lived call goroutine per node so the poll
// loop's rounds reuse the same machinery instead of spawning goroutines
// and result slices every epoch (those per-round allocations grew with
// the node count). Rounds stay concurrent — workers long-poll inside
// Call, so a sequential round would serialize the cluster.
//
// Fault-tolerant runs add liveness bookkeeping: every dispatched call
// carries a sequence number, collectFT bounds its wait with
// meshDeathTimeout, and an answer to a call the poller has given up on —
// or one issued against a transport since replaced by adopt — is
// discarded by sequence mismatch, so a slow reply from a declared-dead
// worker can never be mistaken for a current one.
type meshPoller struct {
	reqs     []chan pollReq
	done     chan pollResult
	errs     []error
	alive    []bool
	inflight []bool
	seqs     []uint64
	seq      uint64
}

type pollReq struct {
	req *Request
	seq uint64
}

type pollResult struct {
	i    int
	seq  uint64
	resp *Response
	err  error
}

func newMeshPoller(nodes []Transport) *meshPoller {
	n := len(nodes)
	p := &meshPoller{
		reqs:     make([]chan pollReq, n),
		done:     make(chan pollResult, 4*n),
		errs:     make([]error, n),
		alive:    make([]bool, n),
		inflight: make([]bool, n),
		seqs:     make([]uint64, n),
	}
	for i, tr := range nodes {
		p.alive[i] = true
		p.reqs[i] = p.spawn(i, tr)
	}
	return p
}

func (p *meshPoller) spawn(i int, tr Transport) chan pollReq {
	ch := make(chan pollReq)
	go func() {
		for pr := range ch {
			resp, err := tr.Call(pr.req)
			p.done <- pollResult{i: i, seq: pr.seq, resp: resp, err: err}
		}
	}()
	return ch
}

func (p *meshPoller) send(i int, req *Request) {
	p.seq++
	p.seqs[i] = p.seq
	p.inflight[i] = true
	p.reqs[i] <- pollReq{req, p.seq}
}

// round sends one request to every node (the request is shared and must
// not be mutated until the round completes) and collects the responses
// into resps, turning transport failures and worker-side Err responses
// into an error naming the node. Non-fault-tolerant rounds only —
// every node is alive and a failure poisons the run.
func (p *meshPoller) round(resps []*Response, req *Request) error {
	for i := range p.reqs {
		p.send(i, req)
	}
	return p.collect(resps)
}

// roundFn is round with a per-node request — Init carries each node's ID.
func (p *meshPoller) roundFn(resps []*Response, req func(i int) *Request) error {
	for i := range p.reqs {
		p.send(i, req(i))
	}
	return p.collect(resps)
}

func (p *meshPoller) collect(resps []*Response) error {
	n := 0
	for _, f := range p.inflight {
		if f {
			n++
		}
	}
	for n > 0 {
		r := <-p.done
		if !p.inflight[r.i] || r.seq != p.seqs[r.i] {
			continue // answer to an abandoned call
		}
		p.inflight[r.i] = false
		n--
		resps[r.i], p.errs[r.i] = r.resp, r.err
	}
	for i, err := range p.errs {
		if !p.alive[i] {
			continue
		}
		if err != nil {
			return fmt.Errorf("dverify: node %d: %w", i, err)
		}
		if resps[i].Err != "" {
			return fmt.Errorf("dverify: node %d: %s", i, resps[i].Err)
		}
	}
	return nil
}

// roundFT is the fault-tolerant round: requests go to live nodes only,
// the collect is bounded by meshDeathTimeout, and instead of failing the
// run it returns the indices of nodes that died this round: transport
// error, worker-reported Err, or timeout.
func (p *meshPoller) roundFT(resps []*Response, reqf func(i int) *Request) []int {
	for i := range p.reqs {
		resps[i] = nil
		if p.alive[i] {
			p.send(i, reqf(i))
		}
	}
	return p.collectFT(resps)
}

// roundSubset is roundFT over an explicit index set — recovery phases
// address replacement Inits and survivor Recover polls separately.
// Entries of resps outside idxs are left untouched.
func (p *meshPoller) roundSubset(resps []*Response, idxs []int, reqf func(i int) *Request) []int {
	for _, i := range idxs {
		resps[i] = nil
		if p.alive[i] {
			p.send(i, reqf(i))
		}
	}
	return p.collectFT(resps)
}

func (p *meshPoller) collectFT(resps []*Response) (dead []int) {
	n := 0
	for _, f := range p.inflight {
		if f {
			n++
		}
	}
	timer := time.NewTimer(meshDeathTimeout)
	defer timer.Stop()
	for n > 0 {
		select {
		case r := <-p.done:
			if !p.inflight[r.i] || r.seq != p.seqs[r.i] {
				continue
			}
			p.inflight[r.i] = false
			n--
			if r.err != nil || r.resp.Err != "" {
				dead = append(dead, r.i)
				continue
			}
			resps[r.i] = r.resp
		case <-timer.C:
			// Unanswered workers are declared dead; their eventual answers
			// are discarded by the sequence check. Workers answer every
			// poll within meshPollBudget, so only a dead or wedged node
			// ever trips this.
			for i, f := range p.inflight {
				if f {
					p.inflight[i] = false
					dead = append(dead, i)
				}
			}
			return dead
		}
	}
	return dead
}

// evict marks a node dead: it is skipped by every later round.
func (p *meshPoller) evict(i int) {
	p.alive[i] = false
}

// adopt replaces node i's transport with a late-joining spare: the old
// call channel is closed (its goroutine exits after any in-flight call,
// whose answer the sequence check discards) and a fresh goroutine
// serves the replacement under the same node index.
func (p *meshPoller) adopt(i int, tr Transport) {
	close(p.reqs[i])
	p.reqs[i] = p.spawn(i, tr)
	p.alive[i] = true
	p.inflight[i] = false
}

func (p *meshPoller) close() {
	for _, ch := range p.reqs {
		close(ch)
	}
}

// meshFT is the coordinator's fault-tolerance state over one mesh run:
// who last checkpointed and answered what, the current era and ownership
// table, and the spare transports still available for adoption. deadWire
// preserves evicted nodes' final wire totals — true traffic the rollback
// cannot re-attribute (survivors keep only their own wire counters).
type meshFT struct {
	job        Job // Init template for adopting replacement workers
	poller     *meshPoller
	tr         *meshTracker
	trace      *obs.Trace
	lastCkpt   []int
	lastSnap   []*Response
	era        int
	owners     []uint8
	spares     []Transport
	deadWire   verify.WireStats
	recoveries int
}

func newMeshFT(job Job, poller *meshPoller, tr *meshTracker, trace *obs.Trace, spares []Transport) *meshFT {
	n := job.NumNodes
	ft := &meshFT{
		job:      job,
		poller:   poller,
		tr:       tr,
		trace:    trace,
		lastCkpt: make([]int, n),
		lastSnap: make([]*Response, n),
		owners:   job.Owners,
		spares:   spares,
	}
	for i := range ft.lastCkpt {
		ft.lastCkpt[i] = -1
	}
	tr.gone = make([]bool, n)
	return ft
}

// note records a healthy round's checkpoint watermarks and snapshots.
// The snapshot pointers stay valid after a node dies: workers
// double-buffer their responses, and a dead node is never polled again,
// so the buffer a retained snapshot lives in is not rewritten.
func (ft *meshFT) note(resps []*Response) {
	for i, r := range resps {
		if r != nil {
			ft.lastCkpt[i] = r.Ckpt
			ft.lastSnap[i] = r
		}
	}
}

// foldLinkDown turns worker-reported dead links into coordinator death
// verdicts: a severed link is indistinguishable from (and treated as)
// the death of its far end, so the run converges on a surviving
// component instead of hanging on a partition.
func (ft *meshFT) foldLinkDown(resps []*Response) (dead []int) {
	for i, r := range resps {
		if r == nil || !ft.poller.alive[i] {
			continue
		}
		for _, j := range r.LinkDown {
			if j >= 0 && j < len(ft.poller.alive) && ft.poller.alive[j] {
				dead = append(dead, j)
			}
		}
	}
	return dead
}

// recover is the takeover loop. Each iteration evicts the newly dead,
// adopts spares into the freed slots when available, reassigns orphaned
// shards to the survivors, rolls the cluster back to the deepest cut
// every relevant checkpoint supports, and issues the mixed recovery
// round — Recover-tagged polls to survivors, restore-Inits to adoptions.
// Deaths during that round feed the next iteration: the double-fault
// case is just a second lap.
func (ft *meshFT) recover(resps []*Response, dead []int) error {
	p, t := ft.poller, ft.tr
	adoptedNow := make([]bool, len(p.alive))
	for len(dead) > 0 {
		cut := 1 << 30
		any := false
		for _, d := range dead {
			if !p.alive[d] {
				continue // duplicate report
			}
			any = true
			p.evict(d)
			t.gone[d] = true
			adoptedNow[d] = false
			if s := ft.lastSnap[d]; s != nil {
				ft.deadWire.Add(verify.WireStats{
					RoutedStates:   s.Routed,
					FilteredStates: s.Filtered,
					RawBytes:       s.RawBytes,
					WireBytes:      s.WireBytes,
				})
				// Folded once; a replacement adopted into this slot must
				// not inherit (and re-fold) its predecessor's snapshot.
				ft.lastSnap[d] = nil
			}
			// The cut can be no deeper than what the dead node persisted:
			// its shards restore from its segments.
			if ft.lastCkpt[d] < cut {
				cut = ft.lastCkpt[d]
			}
		}
		if !any {
			return nil
		}
		// Adopt spares into freed slots in index order: a replacement
		// inherits the dead node's ID and shard set, so slots we can
		// refill need no reassignment.
		for _, d := range dead {
			if len(ft.spares) == 0 {
				break
			}
			if !p.alive[d] {
				p.adopt(d, ft.spares[0])
				ft.spares = ft.spares[1:]
				t.gone[d] = false
				adoptedNow[d] = true
			}
		}
		live := 0
		for _, ok := range p.alive {
			if ok {
				live++
			}
		}
		if live == 0 {
			return errors.New("dverify: every worker dead and no spares left; run unrecoverable")
		}
		// Survivors can restore only what they persisted themselves.
		for i, ok := range p.alive {
			if ok && !adoptedNow[i] && ft.lastCkpt[i] < cut {
				cut = ft.lastCkpt[i]
			}
		}
		owners, moved := reassignOwners(ft.owners, p.alive)
		ft.owners = owners
		ft.era++
		t.rebase(cut)
		var deadSet []int
		for i, ok := range p.alive {
			if !ok {
				deadSet = append(deadSet, i)
			}
		}
		// Adoption Inits go first and must complete before any survivor
		// receives its Recover order: a survivor's post-rollback expansion
		// can route states to the replacement immediately, so the
		// replacement's inbox has to be registered before the first
		// survivor rolls back. A replacement dying (or reporting a stale
		// protocol) during its Init feeds the next lap before the
		// survivors ever saw this era.
		var adoptIdx, survIdx []int
		for i, ok := range p.alive {
			switch {
			case !ok:
			case adoptedNow[i]:
				adoptIdx = append(adoptIdx, i)
			default:
				survIdx = append(survIdx, i)
			}
		}
		if len(adoptIdx) > 0 {
			next := p.roundSubset(resps, adoptIdx, func(i int) *Request {
				j := ft.job
				j.NodeID = i
				j.Owners = owners
				j.Era = ft.era
				j.Cut = cut
				return &Request{Kind: KindInit, Job: &j}
			})
			for _, i := range adoptIdx {
				if r := resps[i]; r != nil && p.alive[i] {
					if r.Proto != protoVersion {
						next = append(next, i) // stale replacement build: treat as dead
						continue
					}
					ft.lastCkpt[i] = cut
					ft.lastSnap[i] = r
					adoptedNow[i] = false
				}
			}
			if len(next) > 0 {
				dead = next
				continue
			}
		}
		var recCtl Control
		t.controlInto(&recCtl)
		recCtl.Recover = &Recover{Era: ft.era, Owners: owners, Cut: cut, Dead: deadSet}
		next := p.roundSubset(resps, survIdx, func(int) *Request {
			return &Request{Kind: KindPoll, Ctl: &recCtl}
		})
		for _, i := range survIdx {
			if r := resps[i]; r != nil && p.alive[i] {
				ft.lastCkpt[i] = cut
				ft.lastSnap[i] = r
			}
		}
		next = append(next, ft.foldLinkDown(resps)...)
		ft.recoveries++
		obsRecoveries.Inc()
		obsShardsReassigned.Add(uint64(moved))
		ft.trace.AddFailover(ft.era, deadSet, cut, moved)
		dead = next
	}
	return nil
}

// verifyMesh drives the mesh topology: Init wires the worker↔worker
// links, then the coordinator runs the poll/epoch control plane until the
// tracker proves termination, and a Finish round collects final counters.
// trace (nil-safe) gains the per-level frontier sizes (from the workers'
// FreshByLevel snapshots), one NodeSpan per worker and the epoch count.
//
// With job.FT set, the poll loop runs fault-tolerantly: deaths detected
// by transport error, worker Err, timeout or peer LinkDown reports feed
// meshFT.recover, and the run completes with the exact verdict as long
// as at least one worker (or adopted spare) survives each takeover. The
// Init round stays fail-fast — fault tolerance covers the run, not its
// setup. plan (nil-safe) is the deterministic fault-injection harness;
// its kills fire against tracker milestones before poll rounds.
func verifyMesh(job Job, nodes []Transport, peers []string, trace *obs.Trace, plan *faultPlan) (verify.Result, error) {
	res := verify.Result{Schedulable: true, Bounded: job.MaxDisturbances > 0}
	job.Session = newSessionID()
	job.Peers = peers
	if job.FT {
		job.Owners = defaultOwners(job.NumNodes)
		if job.CheckpointDir != "" {
			// Coordinator-side sweep of the session's segments: covers runs
			// where no worker reached a clean Finish (shared-filesystem
			// clusters; on remote workers this is a no-op locally and the
			// daemons clean up on their next session).
			defer os.RemoveAll(ckptSessionDir(job.CheckpointDir, job.Session))
		}
	}
	poller := newMeshPoller(nodes)
	defer poller.close()
	resps := make([]*Response, len(nodes))
	if err := poller.roundFn(resps, func(i int) *Request {
		j := job
		j.NodeID = i
		return &Request{Kind: KindInit, Job: &j}
	}); err != nil {
		return res, err
	}
	for i, r := range resps {
		if r.Proto != protoVersion {
			return res, fmt.Errorf("dverify: node %d speaks protocol %d, coordinator %d (restart verifyd with the current build)",
				i, r.Proto, protoVersion)
		}
	}

	tr := newMeshTracker(len(nodes))
	var ft *meshFT
	if job.FT {
		var spares []Transport
		if plan != nil {
			spares = plan.spares
		}
		ft = newMeshFT(job, poller, tr, trace, spares)
	}
	var ctl Control
	finish := func() ([]*Response, error) {
		tr.controlInto(&ctl)
		ctl.Finish = true
		freq := &Request{Kind: KindPoll, Ctl: &ctl}
		if ft != nil {
			// The verdict is already determined (quiescence, or a settled
			// violation), so a death during the finish round cannot change
			// it: substitute the node's last snapshot — identical, by
			// quiescence, to the answer it would have given.
			for _, d := range poller.roundFT(resps, func(int) *Request { return freq }) {
				resps[d] = ft.lastSnap[d]
			}
			return resps, nil
		}
		if err := poller.round(resps, freq); err != nil {
			return nil, err
		}
		return resps, nil
	}
	req := &Request{Kind: KindPoll, Ctl: &ctl}
	epochs := 0
	for {
		if ft != nil {
			plan.fire(tr.final, ft.recoveries)
		} else {
			plan.fire(tr.final, 0)
		}
		tr.controlInto(&ctl)
		if ft != nil {
			dead := poller.roundFT(resps, func(int) *Request { return req })
			dead = append(dead, ft.foldLinkDown(resps)...)
			epochs++
			if len(dead) > 0 {
				if err := ft.recover(resps, dead); err != nil {
					return res, err
				}
				continue // tracker rebased; observe a fresh round first
			}
			ft.note(resps)
		} else {
			if err := poller.round(resps, req); err != nil {
				// The run is poisoned; surviving workers tear down when their
				// session ends (transport Close / next Init).
				return res, err
			}
			epochs++
		}
		tr.observe(resps)
		tr.advance()
		if tr.tooLarge && !tr.haveViol {
			// Report the partial exploration like the local search does —
			// budget-busted admission checks still count their states and
			// wire volume.
			if final, ferr := finish(); ferr == nil {
				tr.observe(final)
			}
			res.States, res.Transitions = tr.fresh, tr.transitions
			res.Depth, res.Wire = tr.maxFresh, tr.wire
			if ft != nil {
				res.Wire.Add(ft.deadWire)
			}
			return res, verify.ErrTooLarge
		}
		if tr.terminated() || (tr.tooLarge && tr.haveViol) {
			// As in the local search, a recorded violation is preferred over
			// ErrTooLarge when the budget trips: the verdict is sound, but
			// on the budget edge the violator may not be the level minimum
			// a larger budget would report.
			final, err := finish()
			if err != nil {
				return res, err
			}
			tr.observe(final)
			foldMeshTrace(trace, final, epochs+1)
			res.States = tr.fresh
			res.Transitions = tr.transitions
			res.Wire = tr.wire
			if ft != nil {
				res.Wire.Add(ft.deadWire)
			}
			if tr.haveViol {
				res.Schedulable = false
				res.Violator = tr.violApp
				res.Depth = tr.violLevel
			} else {
				res.Depth = tr.maxFresh
			}
			return res, nil
		}
	}
}
