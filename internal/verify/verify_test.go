package verify

import (
	"errors"
	"math/rand"
	"testing"

	"tightcps/internal/plants"
	"tightcps/internal/sched"
	"tightcps/internal/switching"
)

// prof builds a synthetic profile with constant dwell windows.
func prof(name string, twStar, dm, dp, r int) *switching.Profile {
	n := twStar + 1
	minT := make([]int, n)
	plusT := make([]int, n)
	for i := range minT {
		minT[i] = dm
		plusT[i] = dp
	}
	return &switching.Profile{Name: name, TwStar: twStar, TdwMinus: minT, TdwPlus: plusT,
		R: r, Granularity: 1, JStar: twStar + dp, JAtMin: make([]int, n), JBest: make([]int, n)}
}

func caseProfiles(t testing.TB, names ...string) []*switching.Profile {
	t.Helper()
	ps, err := plants.ProfileList(names...)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func TestSingleAppAlwaysSchedulable(t *testing.T) {
	res, err := Slot([]*switching.Profile{prof("A", 5, 2, 4, 20)}, Config{NondetTies: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Fatalf("single app unschedulable: %+v", res)
	}
}

func TestObviousOverloadUnschedulable(t *testing.T) {
	// Two apps, each needing the slot immediately (T*w=0): simultaneous
	// disturbances cannot both be served.
	ps := []*switching.Profile{prof("A", 0, 3, 5, 20), prof("B", 0, 3, 5, 20)}
	res, err := Slot(ps, Config{NondetTies: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedulable {
		t.Fatalf("overload reported schedulable")
	}
	if res.Counterexample == nil {
		t.Fatalf("no counterexample recorded with Trace on")
	}
}

func TestTwoLooseAppsSchedulable(t *testing.T) {
	// Each can wait longer than the other's maximum tenure.
	ps := []*switching.Profile{prof("A", 8, 2, 4, 40), prof("B", 8, 2, 4, 40)}
	res, err := Slot(ps, Config{NondetTies: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Fatalf("loose pair unschedulable: violator %d", res.Violator)
	}
}

// TestPaperSlotS1 reproduces the paper's hardest verification: C1, C5, C4
// and C3 share slot S1 and meet all requirements in every scenario.
func TestPaperSlotS1(t *testing.T) {
	res, err := Slot(caseProfiles(t, "C1", "C5", "C4", "C3"), Config{NondetTies: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Fatalf("paper slot S1 unschedulable: violator %d", res.Violator)
	}
	if res.States < 100000 {
		t.Fatalf("suspiciously few states for S1: %d", res.States)
	}
}

// TestPaperSlotS2 reproduces slot S2 = {C6, C2}.
func TestPaperSlotS2(t *testing.T) {
	res, err := Slot(caseProfiles(t, "C6", "C2"), Config{NondetTies: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Fatalf("paper slot S2 unschedulable")
	}
}

// TestPaperRejections: the combinations the paper's first-fit had to reject
// are indeed unschedulable.
func TestPaperRejections(t *testing.T) {
	for _, names := range [][]string{
		{"C1", "C5", "C4", "C6"},
		{"C1", "C5", "C4", "C2"},
	} {
		res, err := Slot(caseProfiles(t, names...), Config{NondetTies: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Schedulable {
			t.Errorf("%v reported schedulable; paper rejects it", names)
		}
	}
}

// TestBoundedAgreesWithExact: on every paper combination, the accelerated
// (bounded-disturbance) model returns the same verdict as the exact model.
func TestBoundedAgreesWithExact(t *testing.T) {
	combos := [][]string{
		{"C1", "C5"},
		{"C1", "C5", "C4"},
		{"C1", "C5", "C4", "C6"},
		{"C6", "C2"},
	}
	for _, names := range combos {
		ps := caseProfiles(t, names...)
		exact, err := Slot(ps, Config{NondetTies: true})
		if err != nil {
			t.Fatal(err)
		}
		bounded, err := Slot(ps, Config{NondetTies: true, MaxDisturbances: BoundFor(ps)})
		if err != nil {
			t.Fatal(err)
		}
		if exact.Schedulable != bounded.Schedulable {
			t.Errorf("%v: exact=%v bounded=%v", names, exact.Schedulable, bounded.Schedulable)
		}
		if !bounded.Bounded || exact.Bounded {
			t.Errorf("%v: Bounded flags wrong", names)
		}
	}
}

// TestCounterexampleReplaysInArbiter: a violation trace found by the
// verifier, replayed through the runtime arbiter with deterministic ties,
// must reproduce a deadline miss — the two implementations share semantics.
func TestCounterexampleReplaysInArbiter(t *testing.T) {
	cases := [][]*switching.Profile{
		{prof("A", 0, 3, 5, 20), prof("B", 0, 3, 5, 20)},
		{prof("A", 3, 4, 6, 30), prof("B", 3, 4, 6, 30)},
		caseProfiles(t, "C1", "C5", "C4", "C6"),
	}
	for ci, ps := range cases {
		res, err := Slot(ps, Config{Trace: true}) // deterministic ties, like the arbiter
		if err != nil {
			t.Fatal(err)
		}
		if res.Schedulable {
			t.Fatalf("case %d: expected violation", ci)
		}
		arb := sched.NewArbiter(ps, sched.Options{})
		for _, dist := range res.Counterexample {
			if err := arb.Tick(dist); err != nil {
				t.Fatalf("case %d: replay error: %v", ci, err)
			}
		}
		// One more adversarial sample (the violating expansion step): all
		// eligible apps get disturbed.
		var dist []int
		for i := range ps {
			if arb.Phase(i) == sched.Steady {
				dist = append(dist, i)
			}
		}
		if err := arb.Tick(dist); err != nil {
			t.Fatalf("case %d: final replay tick: %v", ci, err)
		}
		// The miss may need a few more empty ticks to surface (waiting out
		// the occupant), bounded by the violator's T*w.
		for k := 0; k <= ps[res.Violator].TwStar+1 && !arb.Missed(); k++ {
			if err := arb.Tick(nil); err != nil {
				t.Fatalf("case %d: drain tick: %v", ci, err)
			}
		}
		if !arb.Missed() {
			t.Errorf("case %d: verifier violation did not reproduce in the arbiter", ci)
		}
	}
}

// TestRandomSchedulesNeverMissOnVerifiedSets: fuzz the runtime arbiter with
// admissible random disturbance schedules on sets the verifier proved
// schedulable; no run may miss a deadline.
func TestRandomSchedulesNeverMissOnVerifiedSets(t *testing.T) {
	sets := [][]*switching.Profile{
		caseProfiles(t, "C6", "C2"),
		caseProfiles(t, "C1", "C5", "C4"),
		{prof("A", 8, 2, 4, 40), prof("B", 8, 2, 4, 40)},
	}
	for si, ps := range sets {
		res, err := Slot(ps, Config{NondetTies: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Schedulable {
			t.Fatalf("set %d: expected schedulable", si)
		}
		rng := rand.New(rand.NewSource(int64(1000 + si)))
		for trial := 0; trial < 30; trial++ {
			arb := sched.NewArbiter(ps, sched.Options{})
			for k := 0; k < 400; k++ {
				var dist []int
				for i := range ps {
					if arb.Phase(i) == sched.Steady && rng.Float64() < 0.3 {
						dist = append(dist, i)
					}
				}
				if err := arb.Tick(dist); err != nil {
					t.Fatalf("set %d trial %d: %v", si, trial, err)
				}
			}
			if arb.Missed() {
				t.Fatalf("set %d trial %d: arbiter missed on a verified set", si, trial)
			}
		}
	}
}

// TestLazyPolicyVerification: the future-work lazy-preemption policy is
// also safe for the paper's slot S2 (verified) — an ablation the paper
// suggests.
func TestLazyPolicyVerification(t *testing.T) {
	res, err := Slot(caseProfiles(t, "C6", "C2"), Config{NondetTies: true, Policy: sched.PreemptLazy})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Fatalf("lazy policy unsafe for S2")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("empty app set accepted")
	}
	// r ≤ T*w violates the sporadic model.
	if _, err := New([]*switching.Profile{prof("A", 10, 2, 4, 5)}, Config{}); err == nil {
		t.Fatal("r ≤ T*w accepted")
	}
	// Oversized clocks.
	if _, err := New([]*switching.Profile{prof("A", 5, 2, 4, 200)}, Config{}); err == nil {
		t.Fatal("r > 127 accepted")
	}
	// Too many disturbance-counter bits.
	if _, err := New([]*switching.Profile{prof("A", 5, 2, 4, 20)}, Config{MaxDisturbances: 9}); err == nil {
		t.Fatal("bound 9 accepted (needs >2 bits)")
	}
	// Thirteen apps exceed even the wide packing.
	var many []*switching.Profile
	for i := 0; i < 13; i++ {
		many = append(many, prof("A", 5, 2, 4, 20))
	}
	if _, err := New(many, Config{}); err == nil {
		t.Fatal("13 apps accepted")
	}
	// Symmetry reduction cannot produce counterexample traces.
	if _, err := New([]*switching.Profile{prof("A", 5, 2, 4, 20)}, Config{SymmetryReduction: true, Trace: true}); err == nil {
		t.Fatal("SymmetryReduction+Trace accepted")
	}
}

func TestMaxStatesAborts(t *testing.T) {
	ps := caseProfiles(t, "C1", "C5", "C4", "C3")
	_, err := Slot(ps, Config{NondetTies: true, MaxStates: 1000})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	ps := caseProfiles(t, "C1", "C5", "C4", "C3")
	v, err := New(ps, Config{MaxDisturbances: 2})
	if err != nil {
		t.Fatal(err)
	}
	states := []cstate{
		{occ: -1},
		{phase: [maxApps]uint8{pWaiting, pSteady, pCooldown, pGranted}, val: [maxApps]uint8{3, 0, 17, 5},
			cnt: [maxApps]uint8{1, 0, 2, 1}, occ: 3, cT: 2},
		{phase: [maxApps]uint8{pCooldown, pCooldown, pCooldown, pCooldown}, val: [maxApps]uint8{24, 24, 39, 49}, occ: -1},
	}
	for i, c := range states {
		var d cstate
		v.unpack(v.pack(&c), &d)
		if d != c {
			t.Fatalf("state %d round trip: %+v vs %+v", i, d, c)
		}
	}
}

func TestBoundFor(t *testing.T) {
	ps := []*switching.Profile{prof("A", 10, 2, 4, 20)}
	// Window = 10+4 = 14; ⌈14/20⌉+1 = 2.
	if b := BoundFor(ps); b != 2 {
		t.Fatalf("BoundFor = %d, want 2", b)
	}
}

func TestU64Set(t *testing.T) {
	s := newStateSet[uint64](4)
	keys := []uint64{1, 2, 3, 0xFFFFFFFFFFFFFFFF, 42, 1 << 40}
	for _, k := range keys {
		if !s.add(k) {
			t.Fatalf("fresh add(%d) returned false", k)
		}
	}
	for _, k := range keys {
		if s.add(k) {
			t.Fatalf("duplicate add(%d) returned true", k)
		}
		if !s.contains(k) {
			t.Fatalf("contains(%d) false", k)
		}
	}
	if s.contains(99) {
		t.Fatal("contains(99) true")
	}
	if s.len() != len(keys) {
		t.Fatalf("len=%d", s.len())
	}
	// Growth path: insert enough to trigger multiple rehashes.
	rng := rand.New(rand.NewSource(7))
	ref := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		k := rng.Uint64() | 1
		fresh := !ref[k]
		ref[k] = true
		if s.add(k) != fresh && !contains(keys, k) {
			t.Fatalf("add(%d) fresh mismatch", k)
		}
	}
	for k := range ref {
		if !s.contains(k) {
			t.Fatalf("lost key %d after growth", k)
		}
	}
}

func contains(ks []uint64, k uint64) bool {
	for _, v := range ks {
		if v == k {
			return true
		}
	}
	return false
}

func TestU64SetZeroKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newStateSet[uint64](4).add(0)
}
