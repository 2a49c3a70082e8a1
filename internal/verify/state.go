package verify

// The local search is written once, generic over the packed state type:
// the one-word narrow encoding (uint64) and the multi-word wide encoding
// (wstate). Everything that stores or orders states — the search drivers,
// the visited sets, the trace parent map, the minimum-violator tie-break —
// is generic over S; the little that differs per encoding (how a decoded
// cstate is packed, and the pack-and-hash sweep over the successor arena)
// lives in a codec, called once per expanded state. States cross the
// package's external seam (Expander) in the PackedState form.

import "unsafe"

// state is the set of packed state types. Each is a prefix of PackedState
// (a narrow state is word 0, a wide state all four words), which is what
// lets packed and unpacked convert between the forms without a branch.
type state interface{ uint64 | wstate }

// packed embeds s in the encoding-independent PackedState form.
func packed[S state](s S) (p PackedState) {
	*(*S)(unsafe.Pointer(&p)) = s
	return p
}

// unpacked is the inverse of packed: it reads the state type's prefix of p.
func unpacked[S state](p PackedState) S {
	return *(*S)(unsafe.Pointer(&p))
}

// hashState mixes a state for set probing and shard selection: the
// one-word splitmix finalizer on narrow states, the chained word hash on
// wide ones. The size test folds away at compile time in each
// instantiation.
func hashState[S state](s S) uint64 {
	if unsafe.Sizeof(s) == unsafe.Sizeof(uint64(0)) {
		return hashU64(*(*uint64)(unsafe.Pointer(&s)))
	}
	return hashW(*(*wstate)(unsafe.Pointer(&s)))
}

// lessState orders states lexicographically, word 0 most significant —
// the raw uint64 order on narrow states, since their high words are zero.
// It is the total order behind the parallel minimum-violator tie-break.
func lessState[S state](a, b S) bool {
	return lessW(wstate(packed(a)), wstate(packed(b)))
}

// hashed pairs a state with its hashState — the unit the successor sweep
// hands the drivers, so no state is mixed twice.
type hashed[S state] struct {
	s S
	h uint64
}

// codec is one packed encoding's side of the expansion core:
// narrowCodec implements codec[uint64], wideCodec codec[wstate].
type codec[S state] interface {
	pack(c *cstate) S
	unpack(s S, c *cstate)
	// successors unpacks s, expands it through sc and appends every
	// successor, packed and hashed, to out, returning the extended slice
	// and the violating application's index (−1 when every disturbance
	// choice stays safe). On a violation out is returned unchanged. After
	// a safe expansion, sc.masks holds each new successor's disturbance
	// mask, in order.
	successors(s S, sc *expandScratch, out []hashed[S]) ([]hashed[S], int)
}

type narrowCodec struct{ v *Verifier }

func (c narrowCodec) pack(cs *cstate) uint64      { return c.v.pack(cs) }
func (c narrowCodec) unpack(s uint64, cs *cstate) { c.v.unpack(s, cs) }

func (c narrowCodec) successors(s uint64, sc *expandScratch, out []hashed[uint64]) ([]hashed[uint64], int) {
	v := c.v
	v.unpack(s, &sc.base)
	if viol := v.expand(&sc.base, sc); viol >= 0 {
		return out, viol
	}
	for i := range sc.states {
		ns := v.pack(&sc.states[i])
		out = append(out, hashed[uint64]{ns, hashU64(ns)})
	}
	return out, -1
}

type wideCodec struct{ v *Verifier }

func (c wideCodec) pack(cs *cstate) wstate      { return c.v.packWide(cs) }
func (c wideCodec) unpack(s wstate, cs *cstate) { c.v.unpackWide(s, cs) }

func (c wideCodec) successors(s wstate, sc *expandScratch, out []hashed[wstate]) ([]hashed[wstate], int) {
	v := c.v
	v.unpackWide(s, &sc.base)
	if viol := v.expand(&sc.base, sc); viol >= 0 {
		return out, viol
	}
	for i := range sc.states {
		ns := v.packWide(&sc.states[i])
		out = append(out, hashed[wstate]{ns, hashW(ns)})
	}
	return out, -1
}

// initialState returns the all-Steady, slot-idle state.
func initialState[S state](c codec[S]) S {
	cs := cstate{occ: -1}
	return c.pack(&cs)
}

// initial is initialState in PackedState form, for the verifier's encoding.
func (v *Verifier) initial() PackedState {
	if v.wide {
		return packed(initialState[wstate](wideCodec{v}))
	}
	return packed(initialState[uint64](narrowCodec{v}))
}

// valid reports whether p is a state the expansion core can take: nonzero,
// bit-identical after an unpack→pack round trip (no stray bits outside the
// encoding's fields, no high words on a narrow state), with an occupant
// that is either idle or an application below n in phase Granted whose
// wait indexes its dwell table, and no other application in phase
// Granted. Every reachable state passes; states arriving from outside the
// process — peer frames, checkpoint segments — are checked before they
// reach a visited set or an expansion.
func (v *Verifier) valid(p PackedState) bool {
	if v.wide {
		return validState[wstate](v, wideCodec{v}, p)
	}
	return validState[uint64](v, narrowCodec{v}, p)
}

func validState[S state](v *Verifier, c codec[S], p PackedState) bool {
	s := unpacked[S](p)
	var zero S
	if s == zero || packed(s) != p {
		return false
	}
	var cs cstate
	c.unpack(s, &cs)
	if c.pack(&cs) != s {
		return false
	}
	if cs.occ >= 0 {
		o := int(cs.occ)
		if o >= v.n || cs.phase[o] != pGranted {
			return false
		}
		if _, _, ok := v.profs[o].Lookup(int(cs.val[o])); !ok {
			return false
		}
	}
	for i := 0; i < v.n; i++ {
		if cs.phase[i] == pGranted && i != int(cs.occ) {
			return false
		}
	}
	return true
}
