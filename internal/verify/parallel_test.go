package verify

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"tightcps/internal/switching"
)

// parallelCase is one row of the local-driver equivalence table.
type parallelCase struct {
	name    string
	ps      []*switching.Profile
	wide    bool // multi-word encoding
	bounded bool
	sym     bool // only on slots with identical applications
}

// parallelCases is the one equivalence table of the local drivers: narrow
// and wide slots, exact and bounded, with and without the symmetry quotient.
func parallelCases(t *testing.T) []parallelCase {
	return []parallelCase{
		// Narrow (one-word) encoding.
		{"single", []*switching.Profile{prof("A", 5, 2, 4, 20)}, false, false, false},
		{"overload", []*switching.Profile{prof("A", 0, 3, 5, 20), prof("B", 0, 3, 5, 20)}, false, false, false},
		{"overloadSym", []*switching.Profile{prof("A", 0, 3, 5, 20), prof("B", 0, 3, 5, 20)}, false, false, true},
		{"loosePair", []*switching.Profile{prof("A", 8, 2, 4, 40), prof("B", 8, 2, 4, 40)}, false, false, false},
		{"loosePairSym", []*switching.Profile{prof("A", 8, 2, 4, 40), prof("B", 8, 2, 4, 40)}, false, false, true},
		{"tight", []*switching.Profile{prof("A", 3, 4, 6, 30), prof("B", 3, 4, 6, 30)}, false, false, false},
		{"tightBounded", []*switching.Profile{prof("A", 3, 4, 6, 30), prof("B", 3, 4, 6, 30)}, false, true, false},
		{"S2", caseProfiles(t, "C6", "C2"), false, false, false},
		{"S2bounded", caseProfiles(t, "C6", "C2"), false, true, false},
		{"S1prefix", caseProfiles(t, "C1", "C5", "C4"), false, false, false},
		{"S1prefixBounded", caseProfiles(t, "C1", "C5", "C4"), false, true, false},
		{"rejected", caseProfiles(t, "C1", "C5", "C4", "C6"), false, false, false},
		{"rejectedBounded", caseProfiles(t, "C1", "C5", "C4", "C6"), false, true, false},
		{"quadSym", fleet(4, 6, 1, 2, 10), false, false, true},
		// Wide (multi-word) encoding.
		{"overload7", fleet(7, 2, 1, 2, 5), true, false, false},
		{"overload7Bounded", fleet(7, 2, 1, 2, 5), true, true, false},
		{"overload12", fleet(12, 1, 1, 2, 6), true, false, false},
		{"fleet7", fleet(7, 6, 1, 2, 10), true, false, true},
		{"fleet9", fleet(9, 8, 1, 2, 9), true, false, true},
		{"mixed7", append(fleet(6, 7, 1, 2, 8), prof("X", 4, 2, 3, 12)), true, false, true},
		{"fleet6Bounded", fleet(6, 6, 1, 2, 10), true, true, true},
	}
}

// checkMatchesSequential runs each row with Workers 1 as the reference and
// then with every given worker count: each must return the sequential
// verdict, and on schedulable sets (exhaustive search) the exact same
// state/transition/depth counts. The parallel violator is the minimum
// violating packed state, so it must agree across explicit multi-lane
// worker counts.
func checkMatchesSequential(t *testing.T, cases []parallelCase, workerCounts []int) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{NondetTies: true, SymmetryReduction: tc.sym}
			if tc.bounded {
				cfg.MaxDisturbances = min(BoundFor(tc.ps), 1<<cntBits-1)
			}
			cfg.Workers = 1
			seq, err := Slot(tc.ps, cfg)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			violator := -1
			for _, workers := range workerCounts {
				cfg.Workers = workers
				p, err := Slot(tc.ps, cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if p.Schedulable != seq.Schedulable {
					t.Errorf("workers=%d schedulable=%v, sequential=%v", workers, p.Schedulable, seq.Schedulable)
				}
				if seq.Schedulable {
					if p.States != seq.States || p.Transitions != seq.Transitions || p.Depth != seq.Depth {
						t.Errorf("workers=%d counts (%d,%d,%d), sequential (%d,%d,%d)",
							workers, p.States, p.Transitions, p.Depth,
							seq.States, seq.Transitions, seq.Depth)
					}
					continue
				}
				// Workers 0 may resolve to a single lane — the sequential
				// search, whose violator is the first found, not the minimum.
				if workers == 0 {
					continue
				}
				if violator < 0 {
					violator = p.Violator
				} else if p.Violator != violator {
					t.Errorf("violator differs across worker counts: %d vs %d", violator, p.Violator)
				}
			}
		})
	}
}

// casesWhere keeps the rows of one encoding.
func casesWhere(cases []parallelCase, wide bool) []parallelCase {
	var out []parallelCase
	for _, tc := range cases {
		if tc.wide == wide {
			out = append(out, tc)
		}
	}
	return out
}

// TestParallelMatchesSequential: the narrow rows of the table with 2, 3
// and 8 workers.
func TestParallelMatchesSequential(t *testing.T) {
	checkMatchesSequential(t, casesWhere(parallelCases(t), false), []int{2, 3, 8})
}

// TestWideParallelMatchesSequential: the wide rows of the table with 2, 3
// and 8 workers.
func TestWideParallelMatchesSequential(t *testing.T) {
	checkMatchesSequential(t, casesWhere(parallelCases(t), true), []int{2, 3, 8})
}

// TestAutoWorkersMatchesSequential: every row of the table with Workers 0,
// the GOMAXPROCS pool.
func TestAutoWorkersMatchesSequential(t *testing.T) {
	checkMatchesSequential(t, parallelCases(t), []int{0})
}

// TestParallelFullSlotS1 runs the paper's hardest verification in parallel
// and cross-checks the exhaustive counts against the sequential search.
func TestParallelFullSlotS1(t *testing.T) {
	if testing.Short() {
		t.Skip("full S1 state space twice")
	}
	ps := caseProfiles(t, "C1", "C5", "C4", "C3")
	seq, err := Slot(ps, Config{NondetTies: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Slot(ps, Config{NondetTies: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !par.Schedulable || par.States != seq.States ||
		par.Transitions != seq.Transitions || par.Depth != seq.Depth {
		t.Fatalf("parallel %+v, sequential %+v", par, seq)
	}
}

// TestParallelMaxStatesAborts: the state cap also aborts the sharded search.
func TestParallelMaxStatesAborts(t *testing.T) {
	ps := caseProfiles(t, "C1", "C5", "C4", "C3")
	res, err := Slot(ps, Config{NondetTies: true, MaxStates: 1000, Workers: 4})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
	if res.States <= 1000 {
		t.Fatalf("aborted with only %d states", res.States)
	}
}

// TestShardedU64Set exercises the sharded set serially against a reference
// map and concurrently for add-once semantics.
func TestShardedU64Set(t *testing.T) {
	s := newShardedU64Set(64)
	rng := rand.New(rand.NewSource(11))
	ref := map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		k := rng.Uint64() | 1
		if s.add(k) != !ref[k] {
			t.Fatalf("add(%d) freshness mismatch", k)
		}
		ref[k] = true
	}
	for k := range ref {
		if !s.contains(k) {
			t.Fatalf("lost key %d", k)
		}
	}
	if s.len() != len(ref) {
		t.Fatalf("len=%d, want %d", s.len(), len(ref))
	}

	// Concurrently: every key claimed exactly once across goroutines.
	s = newShardedU64Set(64)
	keys := make([]uint64, 50000)
	for i := range keys {
		keys[i] = rng.Uint64() | 1
	}
	var fresh atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, k := range keys {
				if s.add(k) {
					fresh.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	want := len(uniq(keys))
	if int(fresh.Load()) != want {
		t.Fatalf("fresh adds = %d, want %d", fresh.Load(), want)
	}
	if s.len() != want {
		t.Fatalf("len = %d, want %d", s.len(), want)
	}
}

func uniq(ks []uint64) map[uint64]bool {
	m := map[uint64]bool{}
	for _, k := range ks {
		m[k] = true
	}
	return m
}
