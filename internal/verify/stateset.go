package verify

// stateSet is an open-addressing hash set of packed states, one
// implementation for both encodings. The zero state is the empty-slot
// sentinel: neither encoding produces it (an idle slot stores a nonzero
// occupant sentinel, and an occupied one puts phase Granted in the
// occupant's lane), so no remapping is needed. Probes compare with == only;
// callers pass the hash the successor sweep already computed.
type stateSet[S state] struct {
	slots []S
	n     int
	mask  uint64
}

// newStateSet creates a set with the given initial capacity (rounded up to
// a power of two).
func newStateSet[S state](capacity int) *stateSet[S] {
	size := 16
	for size < capacity {
		size <<= 1
	}
	return &stateSet[S]{slots: make([]S, size), mask: uint64(size - 1)}
}

// hashU64 mixes a one-word key (splitmix64 finalizer).
func hashU64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// add inserts k and reports whether it was absent.
func (s *stateSet[S]) add(k S) bool {
	return s.addHashed(k, hashState(k))
}

// addHashed is add with the key's hashState precomputed — the search
// drivers carry the hash from the successor sweep, so no state is mixed
// twice.
func (s *stateSet[S]) addHashed(k S, h uint64) bool {
	var zero S
	if k == zero {
		panic("stateSet: zero key is reserved")
	}
	if 4*(s.n+1) > 3*len(s.slots) {
		s.grow()
	}
	i := h & s.mask
	for {
		v := s.slots[i]
		if v == zero {
			s.slots[i] = k
			s.n++
			return true
		}
		if v == k {
			return false
		}
		i = (i + 1) & s.mask
	}
}

// contains reports membership.
func (s *stateSet[S]) contains(k S) bool {
	var zero S
	i := hashState(k) & s.mask
	for {
		v := s.slots[i]
		if v == zero {
			return false
		}
		if v == k {
			return true
		}
		i = (i + 1) & s.mask
	}
}

// len returns the number of stored keys.
func (s *stateSet[S]) len() int { return s.n }

// reset empties the set in place, keeping the table at its grown size: a
// standing worker serving repeated runs clears instead of reallocating.
func (s *stateSet[S]) reset() {
	clear(s.slots)
	s.n = 0
}

// reserve grows the table — in a single rehash — until it can absorb n more
// keys without exceeding the load factor. The BFS drivers call it with the
// expected fanout of the coming level, so inserts inside a level never
// rehash.
func (s *stateSet[S]) reserve(n int) {
	need := s.n + n
	if 4*need <= 3*len(s.slots) {
		return
	}
	size := len(s.slots)
	for 4*need > 3*size {
		size <<= 1
	}
	s.growTo(size)
}

func (s *stateSet[S]) grow() { s.growTo(2 * len(s.slots)) }

func (s *stateSet[S]) growTo(size int) {
	var zero S
	old := s.slots
	s.slots = make([]S, size)
	s.mask = uint64(len(s.slots) - 1)
	s.n = 0
	for _, v := range old {
		if v != zero {
			i := hashState(v) & s.mask
			for s.slots[i] != zero {
				i = (i + 1) & s.mask
			}
			s.slots[i] = v
			s.n++
		}
	}
}
