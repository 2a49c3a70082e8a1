package verify

import (
	"testing"

	"tightcps/internal/switching"
)

// TestValidRejectsMalformedStates pins the validity check on hand-built
// states of both encodings: the two states that used to panic the
// expansion core (the all-zero sentinel, and an occupant beyond the
// application count) and every other malformation the check names.
func TestValidRejectsMalformedStates(t *testing.T) {
	pair, err := New(fleet(2, 6, 1, 2, 10), Config{NondetTies: true})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := New(fleet(7, 6, 1, 2, 10), Config{NondetTies: true})
	if err != nil {
		t.Fatal(err)
	}
	granted := func(v *Verifier, app, wait int) PackedState {
		c := cstate{occ: int8(app)}
		c.phase[app] = pGranted
		c.val[app] = uint8(wait)
		if v.wide {
			return packed(v.packWide(&c))
		}
		return PackedState{v.pack(&c)}
	}
	for _, tc := range []struct {
		name string
		v    *Verifier
		s    PackedState
		want bool
	}{
		{"narrowInitial", pair, pair.initial(), true},
		{"narrowGranted", pair, granted(pair, 1, 3), true},
		{"narrowZero", pair, PackedState{}, false},
		{"narrowOccupantBeyondN", pair, PackedState{0xc0000}, false},
		{"narrowHighWord", pair, PackedState{pair.initial()[0], 1}, false},
		{"narrowStrayBits", pair, PackedState{pair.initial()[0] | 1<<60}, false},
		{"narrowWaitPastTable", pair, granted(pair, 0, 7), false},
		{"narrowOccupantNotGranted", pair, PackedState{pair.initial()[0] &^ (0xF << pair.occShift)}, false},
		{"wideInitial", wide, wide.initial(), true},
		{"wideGranted", wide, granted(wide, 6, 6), true},
		{"wideZero", wide, PackedState{}, false},
		{"wideOccupantBeyondN", wide, PackedState{0, 0, 0, 9}, false},
		{"wideHeaderStrayBits", wide, PackedState{0, 0, 0, wideIdle | 1<<20}, false},
		{"wideGrantedNonOccupant", wide, PackedState{uint64(pGranted), 0, 0, wideIdle}, false},
	} {
		if got := tc.v.valid(tc.s); got != tc.want {
			t.Errorf("%s: valid(%x) = %v, want %v", tc.name, tc.s, got, tc.want)
		}
	}
}

// forEachReachable runs an exhaustive BFS of c's state space, calling
// visit on every reachable state. The space must be schedulable.
func forEachReachable[S state](t *testing.T, c codec[S], visit func(PackedState)) {
	t.Helper()
	init := initialState(c)
	seen := newStateSet[S](1 << 16)
	seen.add(init)
	frontier := []S{init}
	var sc expandScratch
	var succ []hashed[S]
	for len(frontier) > 0 {
		var next []S
		for _, s := range frontier {
			visit(packed(s))
			var viol int
			succ, viol = c.successors(s, &sc, succ[:0])
			if viol >= 0 {
				t.Fatalf("application %d violates from %x", viol, packed(s))
			}
			for _, hs := range succ {
				if seen.addHashed(hs.s, hs.h) {
					next = append(next, hs.s)
				}
			}
		}
		frontier = next
	}
}

// TestReachableStatesValid is the validity check's oracle: every state the
// paper's hardest slot S1 (exact and bounded) and the ten-app wide fleet
// W10 reach must pass it, or peers would reject each other's frontiers.
// Bounded S1 runs at one disturbance per application: that exercises the
// bounded encoding's count fields at 1.6M states, where BoundFor's bound
// of 2 reaches 24M.
func TestReachableStatesValid(t *testing.T) {
	s1 := caseProfiles(t, "C1", "C5", "C4", "C3")
	for _, tc := range []struct {
		name   string
		ps     []*switching.Profile
		cfg    Config
		states int // pinned reachable count, 0 = not pinned
	}{
		{"S1", s1, Config{NondetTies: true}, 1_440_712},
		{"S1bounded", s1, Config{NondetTies: true, MaxDisturbances: 1}, 1_620_563},
		{"W10", fleet(10, 9, 1, 2, 10), Config{NondetTies: true, SymmetryReduction: true}, 189_618},
	} {
		if (testing.Short() || raceEnabled) && tc.name != "W10" {
			continue // millions of states: the plain full run covers them
		}
		v, err := New(tc.ps, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		n, bad := 0, 0
		visit := func(s PackedState) {
			n++
			if !v.valid(s) {
				if bad++; bad <= 5 {
					t.Errorf("%s: reachable state %x fails the validity check", tc.name, s)
				}
			}
		}
		if v.wide {
			forEachReachable[wstate](t, wideCodec{v}, visit)
		} else {
			forEachReachable[uint64](t, narrowCodec{v}, visit)
		}
		if bad > 0 {
			t.Errorf("%s: %d of %d reachable states invalid", tc.name, bad, n)
		}
		if tc.states > 0 && n != tc.states {
			t.Errorf("%s: %d reachable states, want %d", tc.name, n, tc.states)
		}
	}
}
