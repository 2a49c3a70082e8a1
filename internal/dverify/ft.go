package dverify

// Fault tolerance: shard-ownership tables, checkpoint segments, and the
// fault-injection harness.
//
// Ownership tables. Routing in a fault-tolerant run goes through an
// explicit 64-entry table (shard → owning node). A fresh run uses the
// contiguous default (the same ranges non-FT runs route by); on
// recovery the coordinator rewrites the table so survivors absorb a dead
// node's shards, and every worker routes by the new table from the next
// era on.
//
// Checkpoint segments. A segment is the deterministic global object
// "(shard s, level l)": every state whose hash shard is s and whose BFS
// depth is exactly l, plus the count of transitions generated expanding
// those states. Which worker writes a segment is irrelevant — any two
// workers owning shard s when level l finalizes would write byte-wise
// identical payloads (states are committed in deterministic per-level
// buckets and sorted before writing) — so takeover needs no writer
// identity, and a crash mid-write leaves either a stale tmp file (ignored)
// or a complete renamed segment (valid). Files live under
// <CheckpointDir>/<session-hex>/seg-<level>-<shard>, written with the
// same tmp+rename discipline as mapping.Cache's shard files.
//
// Recovery = global rollback. The coordinator computes the cut — the
// minimum fully-checkpointed level over current owners — and every
// surviving worker performs the same uniform reset: drop all volatile
// search state (buckets, counters, in-flight batches, send filters),
// restore all shards it owns under the new table from segments at levels
// ≤ cut, re-materialize the cut level as an expandable frontier, and
// resume. Exactness follows from the segments being exact level sets: the
// restored visited set is precisely the BFS closure through the cut, and
// re-expansion from the cut regenerates everything past it. Counter sums
// stay exact because every per-level sent/recv counter is zeroed in the
// same reset and post-recovery traffic never routes to dead nodes.

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"tightcps/internal/verify"
)

// numShards is the fixed hash-shard count the visited set, the routing
// formula and the ownership table all agree on.
const numShards = 64

// meshDeathTimeout bounds how long the coordinator waits for a KindPoll
// answer before declaring the worker dead (fault-tolerant runs only; a
// non-FT run waits forever, preserving the fail-fast error contract).
// Package variable so tests can shrink it.
var meshDeathTimeout = 30 * time.Second

// defaultOwners builds the contiguous ownership table: node i owns hash
// shards [i·64/n, (i+1)·64/n), the shard being a state hash's top six bits
// (the same selector as the local sharded sets). Every state has exactly
// one owner, and only the owner stores it — the partitioning invariant
// behind the distributed visited set.
func defaultOwners(n int) []uint8 {
	t := make([]uint8, numShards)
	for s := range t {
		t[s] = uint8(s * n / numShards)
	}
	return t
}

// ownerTable fixes an ownership table into the worker's 64-entry lookup
// array, falling back to the contiguous default when owners is nil.
func ownerTable(owners []uint8, n int) (t [numShards]uint8) {
	if owners == nil {
		owners = defaultOwners(n)
	}
	copy(t[:], owners)
	return t
}

// reassignOwners maps every shard owned by a dead node onto the alive
// nodes, round-robin in shard order so takeover load spreads evenly.
// Returns the new table and the number of shards that moved.
func reassignOwners(owners []uint8, alive []bool) ([]uint8, int) {
	var live []uint8
	for i, ok := range alive {
		if ok {
			live = append(live, uint8(i))
		}
	}
	next, moved := 0, 0
	out := append([]uint8(nil), owners...)
	for s, o := range out {
		if !alive[o] {
			out[s] = live[next%len(live)]
			next++
			moved++
		}
	}
	return out, moved
}

// Checkpoint segment file format: a fixed header (magic, state count,
// transition count) followed by the level's states in verify.AppendState
// encoding, ascending verify.LessState order.
var segMagic = [8]byte{'t', 'c', 'p', 's', 's', 'e', 'g', '1'}

// ckptSessionDir is the per-run checkpoint directory.
func ckptSessionDir(dir string, session uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%016x", session))
}

func segPath(sessionDir string, level, shard int) string {
	return filepath.Join(sessionDir, fmt.Sprintf("seg-%d-%d", level, shard))
}

// ckptWriteHook, when non-nil, runs before each segment write; a non-nil
// return aborts the write and fails the worker — the crash-during-
// checkpoint tests inject faults here.
var ckptWriteHook func(node, level, shard int) error

// writeSegment persists one (shard, level) segment atomically
// (tmp+rename, like mapping.Cache shard files). states must already be
// sorted; trans is the transition count attributed to this segment.
func writeSegment(path string, states []verify.PackedState, trans int64, words int) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	var hdr [24]byte
	copy(hdr[:8], segMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(states)))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(trans))
	buf := hdr[:]
	for _, s := range states {
		for w := 0; w < words; w++ {
			buf = binary.LittleEndian.AppendUint64(buf, s[w])
		}
	}
	_, werr := f.Write(buf)
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// readSegment loads one segment written under exp's encoding, returning
// its states and transition count. A missing or malformed file is an
// error: segments are written for every owned shard (empty ones included),
// so absence means the checkpoint this worker was told to restore from
// does not exist. Every state must be Valid for exp — a segment is read
// back from disk, and a corrupt state would panic the search later.
func readSegment(path string, exp *verify.Expander) ([]verify.PackedState, int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	if len(b) < 24 || [8]byte(b[:8]) != segMagic {
		return nil, 0, fmt.Errorf("dverify: checkpoint segment %s: bad header", path)
	}
	words := exp.StateWords()
	n := binary.LittleEndian.Uint64(b[8:])
	trans := int64(binary.LittleEndian.Uint64(b[16:]))
	body := b[24:]
	// Bound n by division: the header is untrusted, and n*words*8 can wrap.
	if n > uint64(len(body)/(8*words)) || int(n)*words*8 != len(body) {
		return nil, 0, fmt.Errorf("dverify: checkpoint segment %s: %d bytes do not hold the %d states its header claims", path, len(body), n)
	}
	states := make([]verify.PackedState, n)
	for i := range states {
		for w := 0; w < words; w++ {
			states[i][w] = binary.LittleEndian.Uint64(body[(i*words+w)*8:])
		}
		if !exp.Valid(states[i]) {
			return nil, 0, fmt.Errorf("dverify: checkpoint segment %s: invalid state %x", path, states[i])
		}
	}
	return states, trans, nil
}

// sortStates orders a segment payload canonically so any owner writes
// byte-identical files.
func sortStates(states []verify.PackedState) {
	sort.Slice(states, func(i, j int) bool { return verify.LessState(states[i], states[j]) })
}

// Fault-injection harness. A faultPlan arms deterministic faults the
// coordinator fires at exact points in the run: when the tracker's final
// level first reaches atLevel (and the required number of recoveries has
// already happened, for double-fault scripts), kill() severs a worker.
// Spares are extra transports adopted as replacement workers during
// recovery, in order.
type faultPlan struct {
	faults []fault
	spares []Transport
}

type fault struct {
	// atLevel fires the fault when the coordinator's final-level knowledge
	// first reaches this level.
	atLevel int
	// afterRecoveries defers the fault until this many recoveries have
	// completed (0 = fire on the first opportunity) — the double-fault
	// scripts use it to kill a survivor mid-takeover.
	afterRecoveries int
	// kill severs the target (closes its transport, kills its loopback
	// serve loop, or closes its TCP conns).
	kill  func()
	fired bool
}

// fire triggers every armed fault whose conditions are met.
func (p *faultPlan) fire(finalLevel, recoveries int) {
	if p == nil {
		return
	}
	for i := range p.faults {
		f := &p.faults[i]
		if !f.fired && finalLevel >= f.atLevel && recoveries >= f.afterRecoveries {
			f.fired = true
			f.kill()
		}
	}
}

// ftTransAdd attributes n transitions to (level l, the shard of parent
// hash h) for checkpoint segments. Only maintained with checkpointing on.
func (w *meshWorker) ftTransAdd(l int, h uint64, n int) {
	for len(w.ftTrans) <= l {
		w.ftTrans = append(w.ftTrans, [numShards]int64{})
	}
	w.ftTrans[l][h>>58] += int64(n)
}

// ftTransMerge folds one lane's per-shard chunk transitions into level l.
func (w *meshWorker) ftTransMerge(l int, ftt *[numShards]int64) {
	for len(w.ftTrans) <= l {
		w.ftTrans = append(w.ftTrans, [numShards]int64{})
	}
	dst := &w.ftTrans[l]
	for s, v := range ftt {
		dst[s] += v
	}
}

// maybeCheckpoint runs the worker's checkpoint sweep, called once per
// poll: level ckptLevel+1 persists once its membership is final
// (coordinator-published) and this worker has fully expanded it — the
// level's bucket then IS the exact owned state set of that depth, and
// ftTrans its exact expansion transitions. A write failure fails the
// worker (the coordinator treats it as a death); segments are
// deterministic global objects, so whatever a crashed sweep left behind
// is either a complete, correct segment or an ignored tmp file.
func (w *meshWorker) maybeCheckpoint() {
	if !w.ckptOn || w.err != nil || w.finished {
		return
	}
	for {
		l := w.ckptLevel + 1
		if l > w.final {
			return
		}
		w.ensureLevel(l)
		if w.cursors[l] != len(w.buckets[l]) {
			return
		}
		if err := w.writeLevel(l); err != nil {
			w.err = fmt.Errorf("checkpoint level %d: %v", l, err)
			return
		}
		w.ckptLevel = l
		if len(w.buckets[l]) > 0 {
			w.recycleBucket(l)
		}
	}
}

// writeLevel splits level l's bucket by hash shard and writes one segment
// per owned shard (empty segments included — restore treats a missing
// file as a hard error, so absence is always detectable).
func (w *meshWorker) writeLevel(l int) error {
	var byShard [numShards][]verify.PackedState
	for _, s := range w.buckets[l] {
		sh := w.exp.Hash(s) >> 58
		byShard[sh] = append(byShard[sh], s)
	}
	var trans *[numShards]int64
	if l < len(w.ftTrans) {
		trans = &w.ftTrans[l]
	}
	for sh := 0; sh < numShards; sh++ {
		if int(w.owners[sh]) != w.id {
			continue
		}
		if ckptWriteHook != nil {
			if err := ckptWriteHook(w.id, l, sh); err != nil {
				return err
			}
		}
		sortStates(byShard[sh])
		var tr int64
		if trans != nil {
			tr = trans[sh]
		}
		if err := writeSegment(segPath(w.ckptDir, l, sh), byShard[sh], tr, w.words); err != nil {
			return err
		}
	}
	return nil
}

// restore rebuilds the worker's search state from checkpoint segments:
// every shard it owns under the current table, levels 0..cut. Levels
// below the cut land in the visited set with their counters; the cut
// level additionally becomes the re-expansion frontier (its transitions
// are recounted by the re-expansion, so the segment's count is not
// added). cut < 0 means no usable checkpoint: the run restarts from the
// initial state.
func (w *meshWorker) restore(cut int) error {
	if cut < 0 {
		w.ckptLevel = -1
		w.final = 0
		if init := w.exp.Initial(); int(w.owners[w.exp.Hash(init)>>58]) == w.id {
			w.ensureLevel(0)
			w.visited.Add(init)
			w.buckets[0] = append(w.buckets[0], init)
			w.freshAt[0] = 1
			w.fresh = 1
		}
		return nil
	}
	w.ensureLevel(cut)
	for sh := 0; sh < numShards; sh++ {
		if int(w.owners[sh]) != w.id {
			continue
		}
		for l := 0; l <= cut; l++ {
			states, trans, err := readSegment(segPath(w.ckptDir, l, sh), w.exp)
			if err != nil {
				return err
			}
			for _, s := range states {
				w.visited.Add(s)
			}
			w.fresh += len(states)
			w.freshAt[l] += len(states)
			if len(states) > 0 && l > w.maxFresh {
				w.maxFresh = l
			}
			if l < cut {
				w.transitions += int(trans)
			} else if len(states) > 0 {
				if len(w.buckets[cut]) == 0 && cap(w.buckets[cut]) == 0 {
					w.buckets[cut] = w.newBucket(cut)
				}
				w.buckets[cut] = append(w.buckets[cut], states...)
			}
		}
	}
	if w.fresh > w.budget {
		w.tooLarge = true
	}
	w.ckptLevel = cut
	w.final = cut
	return nil
}

// recoverTo executes the coordinator's takeover order: the uniform global
// rollback every worker (survivor or not) performs in lockstep. Volatile
// search state is reset exactly as reinit does; what survives is the
// session's wire history (routed/filtered/bytes — true traffic that
// happened), the violation knowledge (a found violation is a property of
// the state space, not of the dead worker) and the mesh links. Send
// filters are cleared because their justification — "the receiver has
// this state in its visited set" — is broken by the rollback.
func (w *meshWorker) recoverTo(rec *Recover) {
	if rec.Era <= w.era {
		return
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
		}
	}
	w.outLevel = -1
	w.ftTrans = w.ftTrans[:0]
	for _, ln := range w.lanes {
		if ln.defr != nil {
			w.putBatch(ln.defr)
		}
		ln.reset()
	}
	w.visited.Reset()
	w.fresh, w.transitions, w.maxFresh = 0, 0, 0
	w.tooLarge, w.err = false, nil
	w.lastSnap, w.haveSnap = meshDigest{}, false

	// Adopt the new era, table and death knowledge before touching the
	// inbox, so concurrent arrivals sort against the new era. Recover.Dead
	// is the complete current dead set — rebuilding (not accumulating)
	// lets a replacement worker adopted into a dead slot receive traffic
	// again — and the cumulative LinkDown report restarts empty: the
	// coordinator already acted on everything reported before this order.
	w.era = rec.Era
	w.owners = ownerTable(rec.Owners, w.n)
	if w.deadPeers == nil {
		w.deadPeers = make([]bool, w.n)
	}
	clear(w.deadPeers)
	for _, d := range rec.Dead {
		if d >= 0 && d < w.n {
			w.deadPeers[d] = true
		}
	}
	w.linkDown = w.linkDown[:0]
	for d := range w.filters {
		if w.filters[d].slots != nil {
			clear(w.filters[d].slots)
		}
	}
	// Drop undelivered old-era batches and release anything a recovered
	// peer raced ahead with (now current-era, re-queued for the drain).
	q := w.inbox.drain(w.spareQ)
	for i := range q {
		b := &q[i]
		if b.err != nil {
			w.noteLinkDown(b.from)
			continue
		}
		if b.era >= w.era {
			w.futureQ = append(w.futureQ, *b)
		} else {
			w.putBatch(b.states)
		}
		b.states = nil
	}
	w.spareQ = q[:0]
	keep := w.futureQ[:0]
	for _, b := range w.futureQ {
		switch {
		case b.era == w.era:
			w.inbox.push(b)
		case b.era > w.era:
			keep = append(keep, b)
		default:
			w.putBatch(b.states)
		}
	}
	w.futureQ = keep

	if err := w.restore(rec.Cut); err != nil {
		w.err = fmt.Errorf("restoring checkpoint cut %d: %v", rec.Cut, err)
	}
}

// removeCkpt deletes the worker's per-session segment directory; called
// on a clean Finish (an evicted worker never Finishes — its segments are
// exactly what the survivors restore from, so only the coordinator or a
// clean end may remove them).
func (w *meshWorker) removeCkpt() {
	if w.ckptDir != "" {
		os.RemoveAll(w.ckptDir)
	}
}
