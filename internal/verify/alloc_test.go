package verify

import (
	"testing"

	"tightcps/internal/obs"
)

// The allocation gates of the zero-allocation expansion core: once a
// search goroutine's scratch has grown to the verifier's maximum fanout,
// expanding a state must not allocate at all, and a whole sequential
// verification must stay at O(1) amortized allocations per visited state
// (set growth and frontier doubling are the only remaining sources).
// Regressions here are what -cpuprofile/-memprofile on cmd/verifyslot and
// the cmd/bench trajectory exist to diagnose.

// collectLevels runs the first depth BFS levels through the expansion core
// and returns all frontier states encountered, warming sc and the buffer.
func collectLevels[S state](c codec[S], sc *expandScratch, depth int) (states []S, succ []hashed[S]) {
	visited := newStateSet[S](1 << 12)
	frontier := []S{initialState(c)}
	visited.add(frontier[0])
	for d := 0; d < depth; d++ {
		var next []S
		for _, s := range frontier {
			states = append(states, s)
			var viol int
			succ, viol = c.successors(s, sc, succ[:0])
			if viol >= 0 {
				continue
			}
			for _, ns := range succ {
				if visited.addHashed(ns.s, ns.h) {
					next = append(next, ns.s)
				}
			}
		}
		frontier = next
	}
	return states, succ
}

// expansionAllocs warms a scratch on the first levels of c's state space,
// then counts the allocations of re-expanding every state seen.
func expansionAllocs[S state](c codec[S]) (states int, allocs float64) {
	var sc expandScratch
	seen, succ := collectLevels(c, &sc, 3)
	allocs = testing.AllocsPerRun(10, func() {
		for _, s := range seen {
			succ, _ = c.successors(s, &sc, succ[:0])
		}
	})
	return len(seen), allocs
}

// TestExpansionCoreAllocFree gates the steady state of the core: expanding
// any warmed-up batch of states through a scratch performs zero
// allocations, on the narrow encoding, the wide encoding, and the symmetry
// quotient.
func TestExpansionCoreAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race CI job")
	}
	for _, tc := range []struct {
		name string
		n    int
		cfg  Config
	}{
		{"narrow", 4, Config{NondetTies: true}},
		{"narrow-bounded", 4, Config{NondetTies: true, MaxDisturbances: 2}},
		{"wide", 7, Config{NondetTies: true}},
		{"symmetry", 5, Config{NondetTies: true, SymmetryReduction: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, err := New(fleet(tc.n, 6, 1, 2, 10), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var states int
			var allocs float64
			if v.wide {
				states, allocs = expansionAllocs[wstate](wideCodec{v})
			} else {
				states, allocs = expansionAllocs[uint64](narrowCodec{v})
			}
			if allocs != 0 {
				t.Fatalf("expansion of %d states (wide=%v) allocates %.1f times per sweep, want 0", states, v.wide, allocs)
			}
		})
	}
}

// TestSequentialSearchAllocAmortized gates the whole sequential driver:
// verifying slot S2 (10201 states) end to end — verifier construction
// included — must cost far less than one allocation per hundred states.
// The PR-3 core allocated ~3 per state. The traced subtest runs the same
// search with the full telemetry plane attached (metrics are always on; a
// RunTrace adds the per-level spans) under the same budget: telemetry is
// level-granular, so it must not change the gate.
func TestSequentialSearchAllocAmortized(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race CI job")
	}
	ps := caseProfiles(t, "C6", "C2")
	for _, tc := range []struct {
		name   string
		traced bool
	}{
		{"plain", false},
		{"telemetry", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var states int
			allocs := testing.AllocsPerRun(2, func() {
				cfg := Config{NondetTies: true, Workers: 1}
				if tc.traced {
					tr := obs.NewTrace("")
					cfg.RunID, cfg.RunTrace = tr.RunID, tr
				}
				res, err := Slot(ps, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Schedulable {
					t.Fatal("S2 must verify")
				}
				states = res.States
			})
			if budget := float64(states)/100 + 100; allocs > budget {
				t.Fatalf("sequential S2 search (%d states, traced=%v) allocates %.0f times, budget %.0f (O(1) amortized per state)",
					states, tc.traced, allocs, budget)
			}
		})
	}
}

// TestExpanderSuccessorsHashedIntoAllocFree pins the exported seam the
// mesh workers drive: SuccessorsHashedInto with an owned scratch and a
// recycled buffer — hashing during the packing sweep included — is
// allocation-free too.
func TestExpanderSuccessorsHashedIntoAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race CI job")
	}
	e, err := NewExpander(fleet(4, 6, 1, 2, 10), Config{NondetTies: true})
	if err != nil {
		t.Fatal(err)
	}
	sc := e.NewScratch()
	out, app := e.SuccessorsHashedInto(e.Initial(), sc, nil)
	if app >= 0 {
		t.Fatal("initial expansion violated")
	}
	states := make([]PackedState, len(out))
	for i := range out {
		states[i] = out[i].S
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, s := range states {
			out, _ = e.SuccessorsHashedInto(s, sc, out[:0])
		}
	})
	if allocs != 0 {
		t.Fatalf("SuccessorsHashedInto allocates %.1f times per sweep, want 0", allocs)
	}
}
