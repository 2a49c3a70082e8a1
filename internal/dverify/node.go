package dverify

import (
	"fmt"
	"runtime"
	"slices"

	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// filterBits sizes each per-destination recent-state filter: 1<<filterBits
// entries of one PackedState each (256 KiB per destination).
const filterBits = 13

// sendFilter is a fixed-size probing cache of the states most recently
// routed to one destination: a 2-way set at each hash index, insertion
// displacing the older way. A hit proves the exact state was routed before
// (entries store the full state, and equality — not the hash — decides), so
// suppressing it can never lose a state the owner has not seen; an evicted
// entry merely costs a redundant re-send, which the owner dedups on absorb.
// Misses are therefore safe in both directions — the soundness argument in
// DESIGN.md §4.
type sendFilter struct {
	slots []verify.PackedState
}

func newSendFilter() sendFilter {
	return sendFilter{slots: make([]verify.PackedState, 1<<filterBits)}
}

// seen records s and reports whether it was already present. h must be the
// expander's hash of s; the index bits are disjoint from the shard selector
// (top six) so one destination's filter spreads over all its shards.
func (f *sendFilter) seen(s verify.PackedState, h uint64) bool {
	i := int(h>>24) & (len(f.slots) - 1) &^ 1
	if f.slots[i] == s || f.slots[i+1] == s {
		return true
	}
	f.slots[i+1] = f.slots[i]
	f.slots[i] = s
	return false
}

// effectiveWorkers resolves the job's pool size the way the workers do: 0
// means the node's own GOMAXPROCS. Reuse compatibility compares resolved
// sizes, so a daemon whose GOMAXPROCS moved between runs rebuilds.
func effectiveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// jobsCompatible reports whether a worker built for prev can be reused for
// next: everything that shaped its expander, visited partition, lane pool
// and cluster placement must be identical, leaving only per-run search
// state to reset. Session, Peers and MaxStates may differ — they never
// shape worker memory (the budget is re-read at reinit). This is what
// makes a standing cluster cheap to re-Init: the bench loop and a daemon
// re-verifying the same slot skip the expander rebuild and the visited
// reallocation entirely.
func jobsCompatible(prev, next *Job) bool {
	if prev == nil || next == nil ||
		prev.NumNodes != next.NumNodes || prev.NodeID != next.NodeID ||
		prev.MaxDisturbances != next.MaxDisturbances || prev.Policy != next.Policy ||
		prev.NondetTies != next.NondetTies || prev.SymmetryReduction != next.SymmetryReduction ||
		effectiveWorkers(prev.Workers) != effectiveWorkers(next.Workers) ||
		len(prev.Profiles) != len(next.Profiles) {
		return false
	}
	for i := range prev.Profiles {
		if !profilesEqual(&prev.Profiles[i], &next.Profiles[i]) {
			return false
		}
	}
	return true
}

// profilesEqual compares the full precomputed profile — the expander is a
// pure function of it, so equality here is what licenses expander reuse.
func profilesEqual(a, b *switching.Profile) bool {
	return a.Name == b.Name && a.JStar == b.JStar && a.R == b.R &&
		a.JT == b.JT && a.JE == b.JE && a.TwStar == b.TwStar &&
		a.Granularity == b.Granularity &&
		slices.Equal(a.TdwMinus, b.TdwMinus) && slices.Equal(a.TdwPlus, b.TdwPlus) &&
		slices.Equal(a.JBest, b.JBest) && slices.Equal(a.JAtMin, b.JAtMin)
}

// handler serves one coordinator session, holding the mesh worker across
// the session's requests. Both transports — the loopback goroutine and a
// verifyd TCP session — dispatch through it, so worker behaviour is
// identical on either.
type handler struct {
	// env wires mesh workers into their cluster's data plane.
	env meshEnv
	// draining, when non-nil, lets a shutting-down daemon refuse new jobs
	// while the active ones run to completion.
	draining func() bool
	// acquire, when non-nil, claims the host's single worker slot on the
	// session's first job — a worker node belongs to one cluster at a
	// time (its visited partition is sized by the per-node MaxStates
	// memory model, so concurrent coordinators would multiply residency).
	// The slot is held across re-Inits and released when the session ends.
	acquire func() bool

	mw *meshWorker
}

// reset tears down any live worker — a mesh worker's links and session
// registration must never outlive its job (conn reuse ships a fresh Init).
func (h *handler) reset() {
	if h.mw != nil {
		h.mw.shutdown()
		h.mw = nil
	}
}

// handle answers one request. Errors travel in Response.Err rather than
// tearing the session down: the coordinator turns them into Go errors.
func (h *handler) handle(req *Request) *Response {
	switch req.Kind {
	case KindInit:
		if req.Job == nil {
			return &Response{Err: "init without a job"}
		}
		if h.draining != nil && h.draining() {
			return &Response{Err: "worker is draining (shutting down); refusing new jobs"}
		}
		if h.acquire != nil && !h.acquire() {
			return &Response{Err: "worker is busy with another coordinator session (one cluster per worker)"}
		}
		// Keep the torn-down worker around as a reuse donor: a compatible
		// follow-up job reinitializes it in place instead of rebuilding.
		prev := h.mw
		h.reset()
		mw, resp, err := newMeshWorker(req.Job, h.env, prev)
		if err != nil {
			return &Response{Err: err.Error()}
		}
		h.mw = mw
		return resp
	case KindPoll:
		if h.mw == nil {
			return &Response{Err: "poll before init"}
		}
		return h.mw.poll(req.Ctl)
	default:
		return &Response{Err: fmt.Sprintf("unknown request kind %d", req.Kind)}
	}
}
