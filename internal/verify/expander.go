package verify

// The expansion-core seam: external search drivers — today the distributed
// backend of internal/dverify — need to expand states, hash them for
// partitioning, order them for the minimum-violator tie-break, and move
// frontiers across process boundaries, all without re-implementing the
// per-sample semantics. Expander exposes exactly that surface over a single
// encoding-independent state type, so the narrow one-word and wide
// multi-word encodings flow through one driver loop.

import (
	"encoding/binary"
	"fmt"

	"tightcps/internal/switching"
)

// PackedState is the encoding-independent packed form of one composed
// state: narrow (one-word) states occupy word 0 with words 1..3 zero, wide
// states are the multi-word encoding verbatim. Neither encoding produces
// the all-zero value (an idle slot stores a nonzero occupant sentinel), so
// the zero PackedState remains the empty-slot sentinel of the hash sets.
type PackedState [wideWords]uint64

// Expander exposes a Verifier's expansion core to external search drivers.
// Its methods are read-only over the underlying Verifier and safe for
// concurrent use, except where a caller-owned buffer or scratch is passed
// in.
type Expander struct {
	v *Verifier
}

// Expander returns the verifier's expansion core.
func (v *Verifier) Expander() *Expander { return &Expander{v: v} }

// NewExpander builds the expansion core for the profiles directly (the
// worker-node entry point: nodes never call Run).
func NewExpander(profiles []*switching.Profile, cfg Config) (*Expander, error) {
	v, err := New(profiles, cfg)
	if err != nil {
		return nil, err
	}
	return v.Expander(), nil
}

// Wide reports whether the composed state uses the multi-word encoding.
func (e *Expander) Wide() bool { return e.v.wide }

// StateWords is the number of significant words per state: 1 on the narrow
// fast path, the full word count on the wide path. It sizes the wire
// encoding of AppendState/DecodeStates.
func (e *Expander) StateWords() int {
	if e.v.wide {
		return wideWords
	}
	return 1
}

// Initial returns the all-Steady, slot-idle state.
func (e *Expander) Initial() PackedState { return e.v.initial() }

// ExpandScratch owns the expansion core's reusable buffers — the decoded
// base state and the successor arena — for one external search driver.
// A scratch is not safe for concurrent use: give every driver goroutine its
// own, exactly as the internal searches give one to every BFS worker. The
// arena grows to the verifier's maximum fanout and is then recycled, so
// steady-state expansion through SuccessorsHashedInto performs no
// allocation.
type ExpandScratch struct {
	sc     expandScratch
	narrow []hashed[uint64] // the codec's successor buffer, per encoding
	wide   []hashed[wstate]
}

// NewScratch returns a fresh scratch for SuccessorsHashedInto.
func (e *Expander) NewScratch() *ExpandScratch { return &ExpandScratch{} }

// HashedState pairs a packed state with its Expander.Hash. It is the unit
// of the seam's expansion output: the codec's successor sweep mixes each
// state while it is still hot from packing, and drivers carry the hash from
// shard routing through the send filter to the visited-set probe — one mix
// per expanded state on the whole hot path.
type HashedState struct {
	S PackedState
	H uint64
}

// SuccessorsHashedInto appends s's successors, each paired with its Hash,
// to out and returns the extended slice together with the index of the
// application whose deadline the expansion violated, or −1 when every
// disturbance choice stays safe. On a violation out is returned unchanged —
// no partial successors are appended (only the scratch's internal arena
// holds the truncated expansion), so callers accumulating successors from
// several states keep the earlier ones. The scratch carries the
// expansion's buffers between calls; its arena contents are overwritten on
// every call. s must be Valid.
func (e *Expander) SuccessorsHashedInto(s PackedState, scr *ExpandScratch, out []HashedState) ([]HashedState, int) {
	if e.v.wide {
		return appendSuccessors[wstate](wideCodec{e.v}, s, &scr.sc, &scr.wide, out)
	}
	return appendSuccessors[uint64](narrowCodec{e.v}, s, &scr.sc, &scr.narrow, out)
}

// appendSuccessors expands s through the codec into buf and appends the
// successors to out in PackedState form.
func appendSuccessors[S state](c codec[S], s PackedState, sc *expandScratch, buf *[]hashed[S], out []HashedState) ([]HashedState, int) {
	succ, viol := c.successors(unpacked[S](s), sc, (*buf)[:0])
	*buf = succ
	if viol >= 0 {
		return out, viol
	}
	for _, ns := range succ {
		out = append(out, HashedState{S: packed(ns.s), H: ns.h})
	}
	return out, -1
}

// Valid reports whether s is a well-formed state of this expander's
// encoding — the check every state decoded from outside the process
// passes before it is absorbed or expanded (see Verifier.valid).
func (e *Expander) Valid(s PackedState) bool { return e.v.valid(s) }

// Hash mixes a state for shard selection and set probing. Narrow states use
// the one-word splitmix finalizer (the same function behind the local
// sharded set), wide states the chained word hash. Every driver of one run
// must partition by the same hash, which this method guarantees: it depends
// only on the profiles and config the Expander was built from.
func (e *Expander) Hash(s PackedState) uint64 {
	if e.v.wide {
		return hashW(wstate(s))
	}
	return hashU64(s[0])
}

// LessState orders states lexicographically (word 0 most significant, the
// lessW order). For narrow states — words 1..3 zero — this coincides with
// the raw uint64 order of the one-word encoding, so the minimum-violator
// tie-break of a distributed run matches the local parallel search on
// either encoding.
func LessState(a, b PackedState) bool {
	return lessW(wstate(a), wstate(b))
}

// AppendState appends the wire encoding of s to dst: StateWords() words,
// little-endian. Batches are built by repeated appends and decoded in one
// call by DecodeStates.
func (e *Expander) AppendState(dst []byte, s PackedState) []byte {
	w := e.StateWords()
	for k := 0; k < w; k++ {
		dst = binary.LittleEndian.AppendUint64(dst, s[k])
	}
	return dst
}

// DecodeStates appends every state encoded in b (a batch built with
// AppendState under the same profiles and config) to out. A batch holding
// a state that is not Valid is rejected whole: decoded bytes come from
// peers and files, and an invalid state would panic the expansion core.
func (e *Expander) DecodeStates(b []byte, out []PackedState) ([]PackedState, error) {
	w := e.StateWords()
	stride := 8 * w
	if len(b)%stride != 0 {
		return out, fmt.Errorf("verify: frontier batch of %d bytes is not a multiple of the %d-byte state stride", len(b), stride)
	}
	for len(b) > 0 {
		var s PackedState
		for k := 0; k < w; k++ {
			s[k] = binary.LittleEndian.Uint64(b[8*k:])
		}
		if !e.Valid(s) {
			return out, fmt.Errorf("verify: frontier batch carries invalid state %x", s)
		}
		out = append(out, s)
		b = b[stride:]
	}
	return out, nil
}

// NewSet returns an empty visited set sized for the expander's encoding:
// narrow states are stored as bare words (8 bytes each), wide states as
// full multi-word keys. Not safe for concurrent use — each search driver
// owns its partition.
func (e *Expander) NewSet(capacity int) *StateSet {
	if e.v.wide {
		return &StateSet{wide: newStateSet[wstate](capacity)}
	}
	return &StateSet{narrow: newStateSet[uint64](capacity)}
}

// NewShardedSet returns a visited set striped 64-way by hash — the same
// sharding as the local parallel searches — for drivers that absorb
// states from several goroutines at once. Add and AddHashed are lock-free
// (CAS-claimed slots; see shardset.go for the exactness argument) and
// contend only when two states race for the same slot. Len is exact and
// Reserve/Reset rebuild tables in place, so both require quiescence —
// drivers count fresh adds for budgets and call Reserve only between
// levels, with no lanes in flight.
func (e *Expander) NewShardedSet(capacity int) *StateSet {
	if e.v.wide {
		return &StateSet{shWide: newShardedWideSet(capacity)}
	}
	return &StateSet{shNarrow: newShardedU64Set(capacity)}
}

// StateSet is an open-addressing set of PackedStates backing one search
// driver's visited partition. Exactly one of the underlying sets is
// non-nil, matching the encoding of the Expander that created it and the
// concurrency of the constructor (NewSet single-goroutine, NewShardedSet
// striped).
type StateSet struct {
	narrow   *stateSet[uint64]
	wide     *stateSet[wstate]
	shNarrow *shardedU64Set
	shWide   *shardedWideSet
}

// Add inserts k and reports whether it was absent.
func (s *StateSet) Add(k PackedState) bool {
	switch {
	case s.wide != nil:
		return s.wide.add(wstate(k))
	case s.shNarrow != nil:
		return s.shNarrow.add(k[0])
	case s.shWide != nil:
		return s.shWide.add(wstate(k))
	}
	return s.narrow.add(k[0])
}

// AddHashed is Add with the state's Expander.Hash precomputed — drivers
// that already hashed the state for shard routing skip the second mix.
func (s *StateSet) AddHashed(k PackedState, h uint64) bool {
	switch {
	case s.wide != nil:
		return s.wide.addHashed(wstate(k), h)
	case s.shNarrow != nil:
		return s.shNarrow.addHashed(k[0], h)
	case s.shWide != nil:
		return s.shWide.addHashed(wstate(k), h)
	}
	return s.narrow.addHashed(k[0], h)
}

// Len returns the number of stored states. On a sharded set it locks
// every stripe — search drivers track their own fresh-add counters for
// budget checks instead of calling this per insert.
func (s *StateSet) Len() int {
	switch {
	case s.wide != nil:
		return s.wide.len()
	case s.shNarrow != nil:
		return s.shNarrow.len()
	case s.shWide != nil:
		return s.shWide.len()
	}
	return s.narrow.len()
}

// Reserve grows the set — in a single rehash per stripe — until it can
// absorb n more states without exceeding the load factor. Search drivers
// call it with the expected fanout of the coming level so inserts never
// rehash mid-level, exactly like the internal BFS drivers.
func (s *StateSet) Reserve(n int) {
	switch {
	case s.wide != nil:
		s.wide.reserve(n)
	case s.shNarrow != nil:
		s.shNarrow.reserve(n)
	case s.shWide != nil:
		s.shWide.reserve(n)
	default:
		s.narrow.reserve(n)
	}
}

// Reset empties the set in place, keeping the tables at their grown sizes.
// A standing worker serving repeated runs clears its visited partition
// instead of reallocating it — the dominant per-run allocation otherwise.
// Not safe concurrently with Add; callers reset between runs, when the
// lanes are quiescent.
func (s *StateSet) Reset() {
	switch {
	case s.wide != nil:
		s.wide.reset()
	case s.shNarrow != nil:
		s.shNarrow.reset()
	case s.shWide != nil:
		s.shWide.reset()
	default:
		s.narrow.reset()
	}
}

// Stats returns the cumulative contention ledger of a sharded set (zero for
// the single-goroutine sets, which never contend). Distributed drivers fold
// it into the engine telemetry at session teardown via FlushContention.
func (s *StateSet) Stats() SetStats {
	switch {
	case s.shNarrow != nil:
		return s.shNarrow.stats()
	case s.shWide != nil:
		return s.shWide.stats()
	}
	return SetStats{}
}
