package verify

import (
	"errors"
	"fmt"
	"testing"

	"tightcps/internal/sched"
	"tightcps/internal/switching"
)

// fleet builds n identical synthetic profiles (distinct names), the
// symmetric workload the wide encoding and the symmetry quotient target.
func fleet(n, twStar, dm, dp, r int) []*switching.Profile {
	out := make([]*switching.Profile, n)
	for i := range out {
		out[i] = prof(fmt.Sprintf("F%d", i), twStar, dm, dp, r)
	}
	return out
}

// TestEncodingBoundary is the n = 6 / 7 / 12 table of the wide-state
// change: every count up to maxApps constructs without ErrEncoding, and the
// first count beyond it still fails cleanly.
func TestEncodingBoundary(t *testing.T) {
	for _, tc := range []struct {
		n      int
		wantOK bool
	}{
		{6, true},
		{7, true},
		{12, true},
		{13, false},
	} {
		v, err := New(fleet(tc.n, 5, 2, 4, 20), Config{NondetTies: true})
		if tc.wantOK {
			if err != nil {
				t.Errorf("n=%d: unexpected error %v", tc.n, err)
			}
			if tc.n > 6 && !v.wide {
				t.Errorf("n=%d: expected the wide encoding", tc.n)
			}
			if tc.n <= 6 && v.wide {
				t.Errorf("n=%d: expected the one-word fast path", tc.n)
			}
		} else if !errors.Is(err, ErrEncoding) {
			t.Errorf("n=%d: want ErrEncoding, got %v", tc.n, err)
		}
	}
	// Six bounded-mode apps no longer fit one word (6·11+8 = 74 bits) but
	// now run on the wide path instead of failing — a regression the old
	// encoding had.
	v, err := New(fleet(6, 5, 2, 4, 20), Config{MaxDisturbances: 2})
	if err != nil {
		t.Fatalf("bounded n=6: %v", err)
	}
	if !v.wide {
		t.Fatal("bounded n=6 should use the wide encoding")
	}
}

// TestWidePackUnpackRoundTrip exercises the multi-word lane layout at the
// full 12-app width, bounded mode (11-bit lanes, 5 per word).
func TestWidePackUnpackRoundTrip(t *testing.T) {
	v, err := New(fleet(12, 5, 2, 4, 20), Config{MaxDisturbances: 2})
	if err != nil {
		t.Fatal(err)
	}
	states := []cstate{
		{occ: -1},
		{phase: [maxApps]uint8{pWaiting, pSteady, pCooldown, pGranted, pWaiting, pCooldown, pSteady, pWaiting, pCooldown, pWaiting, pSteady, pCooldown},
			val: [maxApps]uint8{3, 0, 17, 5, 1, 9, 0, 4, 12, 2, 0, 19},
			cnt: [maxApps]uint8{1, 0, 2, 1, 0, 2, 1, 0, 1, 2, 0, 1}, occ: 3, cT: 2},
		{phase: [maxApps]uint8{pCooldown, pCooldown, pCooldown, pCooldown, pCooldown, pCooldown, pCooldown, pCooldown, pCooldown, pCooldown, pCooldown, pCooldown},
			val: [maxApps]uint8{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, occ: -1},
	}
	for i, c := range states {
		var d cstate
		v.unpackWide(v.packWide(&c), &d)
		if d != c {
			t.Fatalf("state %d round trip: %+v vs %+v", i, d, c)
		}
	}
}

// TestNarrowWideAgree forces sets that fit one word through the multi-word
// path and cross-checks verdicts AND exhaustive search statistics against
// the narrow fast path — the two encodings must describe the same state
// graph bit for bit.
func TestNarrowWideAgree(t *testing.T) {
	cases := []struct {
		name string
		ps   []*switching.Profile
	}{
		{"single", []*switching.Profile{prof("A", 5, 2, 4, 20)}},
		{"overload", []*switching.Profile{prof("A", 0, 3, 5, 20), prof("B", 0, 3, 5, 20)}},
		{"loosePair", []*switching.Profile{prof("A", 8, 2, 4, 40), prof("B", 8, 2, 4, 40)}},
		{"tightPair", []*switching.Profile{prof("A", 3, 4, 6, 30), prof("B", 3, 4, 6, 30)}},
		{"asymTriple", []*switching.Profile{prof("A", 2, 2, 3, 15), prof("B", 6, 2, 4, 25), prof("C", 9, 3, 5, 30)}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			cfg := Config{NondetTies: true, Workers: workers}
			narrow, err := Slot(tc.ps, cfg)
			if err != nil {
				t.Fatalf("%s: narrow: %v", tc.name, err)
			}
			v, err := New(tc.ps, cfg)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if v.wide {
				t.Fatalf("%s: expected a narrow set", tc.name)
			}
			v.wide = true // force the multi-word path
			wide, err := v.Run()
			if err != nil {
				t.Fatalf("%s: wide: %v", tc.name, err)
			}
			if wide.Schedulable != narrow.Schedulable {
				t.Errorf("%s workers=%d: wide=%v narrow=%v", tc.name, workers, wide.Schedulable, narrow.Schedulable)
			}
			if narrow.Schedulable &&
				(wide.States != narrow.States || wide.Transitions != narrow.Transitions || wide.Depth != narrow.Depth) {
				t.Errorf("%s workers=%d: wide counts (%d,%d,%d), narrow (%d,%d,%d)", tc.name, workers,
					wide.States, wide.Transitions, wide.Depth, narrow.States, narrow.Transitions, narrow.Depth)
			}
		}
	}
}

// TestWideSevenAppSlot is the first verification past the paper's scale: a
// fleet of seven identical applications that is schedulable exactly at the
// round-robin boundary (T*w = 6 tolerates the six other dwells), checked
// with the symmetry quotient sequentially and in parallel.
func TestWideSevenAppSlot(t *testing.T) {
	ps := fleet(7, 6, 1, 2, 10)
	cfg := Config{NondetTies: true, SymmetryReduction: true, Workers: 1}
	seq, err := Slot(ps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Schedulable {
		t.Fatalf("7-app round-robin fleet unschedulable: violator %d", seq.Violator)
	}
	for _, workers := range []int{2, 8} {
		cfg.Workers = workers
		par, err := Slot(ps, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.Schedulable != seq.Schedulable || par.States != seq.States ||
			par.Transitions != seq.Transitions || par.Depth != seq.Depth {
			t.Errorf("workers=%d: (%v,%d,%d,%d), sequential (%v,%d,%d,%d)", workers,
				par.Schedulable, par.States, par.Transitions, par.Depth,
				seq.Schedulable, seq.States, seq.Transitions, seq.Depth)
		}
	}
	// One more identical app breaks the boundary: eight waiters cannot all
	// be served within T*w = 6.
	over, err := Slot(fleet(8, 6, 1, 2, 10), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if over.Schedulable {
		t.Fatal("8-app fleet reported schedulable at the 7-app boundary")
	}
}

// TestSymmetryReductionSound cross-checks the quotient against the full
// state space on sets small enough to explore both ways: the verdict must
// match, and the quotient must never visit more states.
func TestSymmetryReductionSound(t *testing.T) {
	cases := []struct {
		name string
		ps   []*switching.Profile
	}{
		{"pairTight", fleet(2, 0, 3, 5, 20)},
		{"pairLoose", fleet(2, 8, 2, 4, 40)},
		{"tripleMid", fleet(3, 3, 2, 3, 10)},
		{"quadLoose", fleet(4, 6, 1, 2, 10)},
		{"mixed", append(fleet(3, 6, 1, 2, 10), prof("X", 4, 2, 3, 12))},
	}
	for _, tc := range cases {
		full, err := Slot(tc.ps, Config{NondetTies: true})
		if err != nil {
			t.Fatalf("%s: full: %v", tc.name, err)
		}
		quot, err := Slot(tc.ps, Config{NondetTies: true, SymmetryReduction: true})
		if err != nil {
			t.Fatalf("%s: quotient: %v", tc.name, err)
		}
		if quot.Schedulable != full.Schedulable {
			t.Errorf("%s: quotient=%v full=%v", tc.name, quot.Schedulable, full.Schedulable)
		}
		if quot.States > full.States {
			t.Errorf("%s: quotient states %d exceed full %d", tc.name, quot.States, full.States)
		}
	}
}

// TestWideTraceReplaysInArbiter: a counterexample found on the wide path
// must replay to a deadline miss in the runtime arbiter, exactly like the
// narrow path's traces.
func TestWideTraceReplaysInArbiter(t *testing.T) {
	ps := fleet(7, 2, 1, 2, 5)
	res, err := Slot(ps, Config{Trace: true}) // deterministic ties, like the arbiter
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedulable {
		t.Fatal("expected a violation")
	}
	if res.Counterexample == nil {
		t.Fatal("no counterexample recorded with Trace on")
	}
	arb := sched.NewArbiter(ps, sched.Options{})
	for _, dist := range res.Counterexample {
		if err := arb.Tick(dist); err != nil {
			t.Fatalf("replay error: %v", err)
		}
	}
	var dist []int
	for i := range ps {
		if arb.Phase(i) == sched.Steady {
			dist = append(dist, i)
		}
	}
	if err := arb.Tick(dist); err != nil {
		t.Fatalf("final replay tick: %v", err)
	}
	for k := 0; k <= ps[res.Violator].TwStar+1 && !arb.Missed(); k++ {
		if err := arb.Tick(nil); err != nil {
			t.Fatalf("drain tick: %v", err)
		}
	}
	if !arb.Missed() {
		t.Error("wide-path violation did not reproduce in the arbiter")
	}
}

// TestWideSetZeroKeyPanics mirrors the narrow set's sentinel guard.
func TestWideSetZeroKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newStateSet[wstate](4).add(wstate{})
}

// TestWideSetGrowth exercises the multi-word open-addressing set through
// several rehashes against a reference map.
func TestWideSetGrowth(t *testing.T) {
	s := newStateSet[wstate](4)
	ref := map[wstate]bool{}
	mk := func(i int) wstate {
		return wstate{uint64(i)*0x9e3779b97f4a7c15 + 1, uint64(i), uint64(i % 7), uint64(i % 3)}
	}
	for i := 0; i < 5000; i++ {
		k := mk(i)
		if s.add(k) != !ref[k] {
			t.Fatalf("add(%v) freshness mismatch", k)
		}
		ref[k] = true
	}
	for k := range ref {
		if !s.contains(k) {
			t.Fatalf("lost key %v after growth", k)
		}
	}
	if s.len() != len(ref) {
		t.Fatalf("len=%d, want %d", s.len(), len(ref))
	}
}
