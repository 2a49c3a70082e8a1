package verify

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Sharding of the visited set for the parallel BFS: the stripe is selected by
// the top bits of the mixed hash, the open-addressing probe inside a stripe by
// the low bits, so the two never correlate.
//
// The stripes are lock-free on the hot path. A narrow stripe is a slice of
// atomic uint64 slots (zero = empty; the packed encoding never produces zero)
// claimed with a single CompareAndSwap. A wide stripe publishes its [4]uint64
// payload through an atomic header word per slot. Both are insert-only while
// lanes run: a slot transitions 0 → key exactly once and never changes again,
// which is what makes the probe protocol exact (see DESIGN.md §10).
//
// Exactness argument, narrow case. Every adder of key k probes the identical
// positional window [h&mask, h&mask+lfMaxProbe). A lost CAS re-inspects the
// same position (the race winner's value decides dup-vs-step), so a position
// is never skipped while empty. Slots fill monotonically, so the three
// position verdicts — holds k (duplicate), holds another key (step), empty
// (claim) — can only move toward "holds something", and a verdict of "holds
// x" is permanent. Hence exactly one adder of k wins a CAS, every other
// adder of k observes k and reports duplicate. If the whole window is
// non-k-occupied the adder falls through to the stripe's mutex-guarded
// overflow map; permanence means every adder of k then reaches the same map,
// where the mutex restores exact once-only semantics. Overflow keys migrate
// back into the table when `reserve` grows it (quiescent by the driver
// contract: Reserve/Reset run only between levels, with no lanes in flight).
const (
	shardBits = 6
	numShards = 1 << shardBits

	// lfMaxProbe bounds the positional probe window of the lock-free
	// stripes. Stripes hold at most ¾ load, so a window this long ends at
	// an empty slot with overwhelming probability; the rare saturated
	// window falls through to the stripe's overflow map rather than
	// probing unboundedly (and `reserve` then folds the overflow back in
	// at the next quiescent growth point).
	lfMaxProbe = 128

	// lfBusy marks a wide slot claimed but not yet published; readers
	// spin (briefly — the writer is four plain stores away) until the
	// writer replaces it with the key's tag.
	lfBusy = 1
)

// SetStats is the cumulative contention ledger of one sharded set, folded
// into the obs counters at run teardown; the distributed workers read it
// through StateSet.Stats.
type SetStats struct {
	Probes    int64 // probe steps beyond the home slot
	Retries   int64 // lost CAS claims
	Overflows int64 // keys parked in an overflow map
}

// shardedU64Set is a 64-way striped, lock-free variant of stateSet[uint64].
type shardedU64Set struct {
	stripes [numShards]lfU64Stripe
}

// lfU64Stripe is one lock-free stripe: atomic slots plus a mutex-guarded
// overflow map used only when a probe window saturates. Padded so adjacent
// stripes' hot words (count, probes) sit on separate cache lines.
type lfU64Stripe struct {
	slots   []uint64 // accessed via sync/atomic; 0 = empty
	mask    uint64
	count   atomic.Int64
	probes  atomic.Int64
	retries atomic.Int64
	mu      sync.Mutex
	over    map[uint64]struct{}
	overN   atomic.Int64
	_       [40]byte
}

// newShardedU64Set creates a sharded set with the given total initial
// capacity spread across the stripes.
func newShardedU64Set(capacity int) *shardedU64Set {
	per := capacity / numShards
	if per < 16 {
		per = 16
	}
	size := 16
	for size < per {
		size <<= 1
	}
	s := &shardedU64Set{}
	for i := range s.stripes {
		st := &s.stripes[i]
		st.slots = make([]uint64, size)
		st.mask = uint64(size - 1)
	}
	return s
}

// add inserts k and reports whether it was absent. Safe for concurrent use.
func (s *shardedU64Set) add(k uint64) bool {
	return s.addHashed(k, hashU64(k))
}

// addHashed is add with the key's hash precomputed — drivers that already
// hashed a state for shard routing (the mesh workers' expansion lanes) skip
// the second mix. Safe for concurrent use and lock-free unless the probe
// window saturates: the stripe is selected by the hash's top bits, the probe
// by its low bits.
func (s *shardedU64Set) addHashed(k, h uint64) bool {
	if k == 0 {
		panic("shardedU64Set: zero key is reserved")
	}
	st := &s.stripes[h>>(64-shardBits)]
	i := h & st.mask
	bound := lfMaxProbe
	if n := len(st.slots); n < bound {
		bound = n
	}
	steps := 0
	for w := 0; w < bound; {
		v := atomic.LoadUint64(&st.slots[i])
		if v == k {
			if steps > 0 {
				st.probes.Add(int64(steps))
			}
			return false
		}
		if v == 0 {
			if atomic.CompareAndSwapUint64(&st.slots[i], 0, k) {
				st.count.Add(1)
				if steps > 0 {
					st.probes.Add(int64(steps))
				}
				return true
			}
			// Lost the claim: re-inspect the same position — the
			// winner may have written k.
			st.retries.Add(1)
			continue
		}
		steps++
		w++
		i = (i + 1) & st.mask
	}
	st.probes.Add(int64(steps))
	return st.addOverflow(k)
}

// addOverflow parks a key whose probe window saturated. Permanence of slot
// verdicts guarantees every adder of the same key reaches this map, so the
// mutex restores exact once-only counting for these rare keys.
func (st *lfU64Stripe) addOverflow(k uint64) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.over == nil {
		st.over = make(map[uint64]struct{})
	}
	if _, dup := st.over[k]; dup {
		return false
	}
	st.over[k] = struct{}{}
	st.overN.Add(1)
	return true
}

// contains reports membership. Exact when quiescent; during concurrent adds
// a key being inserted may be reported either way.
func (s *shardedU64Set) contains(k uint64) bool {
	h := hashU64(k)
	st := &s.stripes[h>>(64-shardBits)]
	i := h & st.mask
	bound := lfMaxProbe
	if n := len(st.slots); n < bound {
		bound = n
	}
	for w := 0; w < bound; w++ {
		v := atomic.LoadUint64(&st.slots[i])
		if v == k {
			return true
		}
		if v == 0 {
			return false
		}
		i = (i + 1) & st.mask
	}
	st.mu.Lock()
	_, ok := st.over[k]
	st.mu.Unlock()
	return ok
}

// reserve pre-sizes every stripe for its even share of n additional keys, so
// a level whose fanout was predicted from the previous one inserts without
// mid-level growth. Callers guarantee quiescence (the drivers call it only
// between levels); growth rehashes in place and drains the overflow maps
// back into the enlarged tables.
func (s *shardedU64Set) reserve(n int) {
	per := n / numShards
	for i := range s.stripes {
		s.stripes[i].reserve(per)
	}
}

func (st *lfU64Stripe) reserve(per int) {
	need := int(st.count.Load()+st.overN.Load()) + per
	size := len(st.slots)
	grow := false
	for 4*need > 3*size {
		size <<= 1
		grow = true
	}
	if st.overN.Load() > 0 && !grow {
		// Probe windows saturated at the current size even though the
		// load factor allows more: the table is unlucky, not full.
		// Doubling rehashes every key to a fresh window.
		size <<= 1
		grow = true
	}
	if !grow {
		return
	}
	// Drain the overflow into a scratch slice before reinserting anything:
	// reinsert may re-park a key whose window saturates even in the grown
	// table, and it must land in (and be counted by) the fresh map, not be
	// wiped by a clear racing the drain.
	spill := make([]uint64, 0, st.overN.Load())
	for k := range st.over {
		spill = append(spill, k)
	}
	clear(st.over)
	st.overN.Store(0)
	old := st.slots
	st.slots = make([]uint64, size)
	st.mask = uint64(size - 1)
	st.count.Store(0)
	for _, v := range old {
		if v != 0 {
			st.reinsert(v)
		}
	}
	for _, k := range spill {
		st.reinsert(k)
	}
}

// reinsert places a key during a quiescent rebuild — plain writes, but the
// same positional window rule as addHashed so later bounded probes find it.
func (st *lfU64Stripe) reinsert(k uint64) {
	h := hashU64(k)
	i := h & st.mask
	bound := lfMaxProbe
	if n := len(st.slots); n < bound {
		bound = n
	}
	for w := 0; w < bound; w++ {
		if st.slots[i] == 0 {
			st.slots[i] = k
			st.count.Add(1)
			return
		}
		i = (i + 1) & st.mask
	}
	if st.over == nil {
		st.over = make(map[uint64]struct{})
	}
	st.over[k] = struct{}{}
	st.overN.Add(1)
}

// reset empties every stripe in place, keeping the tables at their grown
// sizes. Callers guarantee quiescence; the next run's lane handoff provides
// the happens-before edge.
func (s *shardedU64Set) reset() {
	for i := range s.stripes {
		st := &s.stripes[i]
		clear(st.slots)
		st.count.Store(0)
		if st.overN.Load() > 0 {
			clear(st.over)
			st.overN.Store(0)
		}
	}
}

// len returns the number of stored keys across all stripes. Exact when
// quiescent.
func (s *shardedU64Set) len() int {
	n := int64(0)
	for i := range s.stripes {
		n += s.stripes[i].count.Load() + s.stripes[i].overN.Load()
	}
	return int(n)
}

// stats returns the cumulative contention ledger across the stripes.
func (s *shardedU64Set) stats() SetStats {
	var t SetStats
	for i := range s.stripes {
		st := &s.stripes[i]
		t.Probes += st.probes.Load()
		t.Retries += st.retries.Load()
		t.Overflows += st.overN.Load()
	}
	return t
}

// wtagOf derives a wide slot's published header tag from the key's hash.
// Tags are ≥2, so they never collide with the empty (0) or busy (1) markers.
// Two distinct keys may share a tag (the shift drops two hash bits); readers
// therefore always confirm the payload after a tag match.
func wtagOf(h uint64) uint64 { return h<<2 | 2 }

// shardedWideSet is the multi-word sibling of shardedU64Set. A slot is a
// header word (atomic: 0 empty, lfBusy claimed, else tag) plus a [4]uint64
// payload published by the header's release store: a writer CASes 0→busy,
// fills the payload with plain stores, then publishes the tag; a reader that
// loads the tag (acquire) therefore sees the complete payload.
type shardedWideSet struct {
	stripes [numShards]lfWideStripe
}

type lfWideStripe struct {
	hdrs    []uint64 // accessed via sync/atomic
	slots   []wstate // payload, published via hdrs
	mask    uint64
	count   atomic.Int64
	probes  atomic.Int64
	retries atomic.Int64
	mu      sync.Mutex
	over    map[wstate]struct{}
	overN   atomic.Int64
	_       [16]byte
}

// newShardedWideSet creates a sharded wide set with the given total initial
// capacity spread across the stripes.
func newShardedWideSet(capacity int) *shardedWideSet {
	per := capacity / numShards
	if per < 16 {
		per = 16
	}
	size := 16
	for size < per {
		size <<= 1
	}
	s := &shardedWideSet{}
	for i := range s.stripes {
		st := &s.stripes[i]
		st.hdrs = make([]uint64, size)
		st.slots = make([]wstate, size)
		st.mask = uint64(size - 1)
	}
	return s
}

// add inserts k and reports whether it was absent. Safe for concurrent use.
func (s *shardedWideSet) add(k wstate) bool {
	return s.addHashed(k, hashW(k))
}

// addHashed is add with the key's hash precomputed (see
// shardedU64Set.addHashed). Safe for concurrent use; lock-free except for
// saturated probe windows and brief spins on a slot another lane is mid-way
// through publishing.
func (s *shardedWideSet) addHashed(k wstate, h uint64) bool {
	if k == (wstate{}) {
		panic("shardedWideSet: zero key is reserved")
	}
	st := &s.stripes[h>>(64-shardBits)]
	tag := wtagOf(h)
	i := h & st.mask
	bound := lfMaxProbe
	if n := len(st.hdrs); n < bound {
		bound = n
	}
	steps, spins := 0, 0
	for w := 0; w < bound; {
		hv := atomic.LoadUint64(&st.hdrs[i])
		switch {
		case hv == 0:
			if atomic.CompareAndSwapUint64(&st.hdrs[i], 0, lfBusy) {
				st.slots[i] = k
				atomic.StoreUint64(&st.hdrs[i], tag)
				st.count.Add(1)
				if steps > 0 {
					st.probes.Add(int64(steps))
				}
				return true
			}
			st.retries.Add(1)
		case hv == lfBusy:
			// Claimed but not yet published — possibly with k, so
			// the position cannot be skipped. Yield occasionally so
			// the writer gets the core on GOMAXPROCS=1 hosts.
			if spins++; spins&15 == 0 {
				runtime.Gosched()
			}
		case hv == tag && st.slots[i] == k:
			if steps > 0 {
				st.probes.Add(int64(steps))
			}
			return false
		default:
			steps++
			w++
			i = (i + 1) & st.mask
		}
	}
	st.probes.Add(int64(steps))
	return st.addOverflow(k)
}

func (st *lfWideStripe) addOverflow(k wstate) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.over == nil {
		st.over = make(map[wstate]struct{})
	}
	if _, dup := st.over[k]; dup {
		return false
	}
	st.over[k] = struct{}{}
	st.overN.Add(1)
	return true
}

// contains reports membership (see shardedU64Set.contains).
func (s *shardedWideSet) contains(k wstate) bool {
	h := hashW(k)
	st := &s.stripes[h>>(64-shardBits)]
	tag := wtagOf(h)
	i := h & st.mask
	bound := lfMaxProbe
	if n := len(st.hdrs); n < bound {
		bound = n
	}
	spins := 0
	for w := 0; w < bound; {
		hv := atomic.LoadUint64(&st.hdrs[i])
		switch {
		case hv == 0:
			return false
		case hv == lfBusy:
			if spins++; spins&15 == 0 {
				runtime.Gosched()
			}
		case hv == tag && st.slots[i] == k:
			return true
		default:
			w++
			i = (i + 1) & st.mask
		}
	}
	st.mu.Lock()
	_, ok := st.over[k]
	st.mu.Unlock()
	return ok
}

// reserve pre-sizes every stripe for its even share of n additional keys
// (see shardedU64Set.reserve). Callers guarantee quiescence.
func (s *shardedWideSet) reserve(n int) {
	per := n / numShards
	for i := range s.stripes {
		s.stripes[i].reserve(per)
	}
}

func (st *lfWideStripe) reserve(per int) {
	need := int(st.count.Load()+st.overN.Load()) + per
	size := len(st.hdrs)
	grow := false
	for 4*need > 3*size {
		size <<= 1
		grow = true
	}
	if st.overN.Load() > 0 && !grow {
		size <<= 1
		grow = true
	}
	if !grow {
		return
	}
	// Spill-then-reinsert, as in the narrow stripe: a key re-parked by
	// reinsert must survive in the fresh overflow map.
	spill := make([]wstate, 0, st.overN.Load())
	for k := range st.over {
		spill = append(spill, k)
	}
	clear(st.over)
	st.overN.Store(0)
	oldH, oldS := st.hdrs, st.slots
	st.hdrs = make([]uint64, size)
	st.slots = make([]wstate, size)
	st.mask = uint64(size - 1)
	st.count.Store(0)
	for j, hv := range oldH {
		if hv != 0 {
			st.reinsert(oldS[j])
		}
	}
	for _, k := range spill {
		st.reinsert(k)
	}
}

func (st *lfWideStripe) reinsert(k wstate) {
	h := hashW(k)
	i := h & st.mask
	bound := lfMaxProbe
	if n := len(st.hdrs); n < bound {
		bound = n
	}
	for w := 0; w < bound; w++ {
		if st.hdrs[i] == 0 {
			st.hdrs[i] = wtagOf(h)
			st.slots[i] = k
			st.count.Add(1)
			return
		}
		i = (i + 1) & st.mask
	}
	if st.over == nil {
		st.over = make(map[wstate]struct{})
	}
	st.over[k] = struct{}{}
	st.overN.Add(1)
}

// reset empties every stripe in place (see shardedU64Set.reset).
func (s *shardedWideSet) reset() {
	for i := range s.stripes {
		st := &s.stripes[i]
		clear(st.hdrs)
		clear(st.slots)
		st.count.Store(0)
		if st.overN.Load() > 0 {
			clear(st.over)
			st.overN.Store(0)
		}
	}
}

// len returns the number of stored keys across all stripes. Exact when
// quiescent.
func (s *shardedWideSet) len() int {
	n := int64(0)
	for i := range s.stripes {
		n += s.stripes[i].count.Load() + s.stripes[i].overN.Load()
	}
	return int(n)
}

// stats returns the cumulative contention ledger across the stripes.
func (s *shardedWideSet) stats() SetStats {
	var t SetStats
	for i := range s.stripes {
		st := &s.stripes[i]
		t.Probes += st.probes.Load()
		t.Retries += st.retries.Load()
		t.Overflows += st.overN.Load()
	}
	return t
}
