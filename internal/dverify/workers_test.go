package dverify

import (
	"fmt"
	"testing"

	"tightcps/internal/verify"
)

// TestWorkerPoolMatrixMatchesLocal is the concurrent-absorb matrix of the
// multi-core mesh work: 2- and 4-node mesh clusters, with per-node
// expansion pools of 1 and 4 lanes (and the GOMAXPROCS pool), must
// reproduce the local search bit-identically — verdict, exhaustive
// counts, depth and minimal violator — on both encodings, with and
// without the symmetry quotient. Exhaustive counts and depth coincide
// with the sequential search; the violator follows the parallel
// searches' minimum-violating-state tie-break (the sequential search
// short-circuits at the first violator in expansion order instead), so
// the ground truth is the local parallel search, as in the main matrix.
// Run under -race this drives the striped visited set, the chunk atomics
// and the lane merge from genuinely concurrent goroutines on every node.
func TestWorkerPoolMatrixMatchesLocal(t *testing.T) {
	sel := map[string]bool{
		"overload2":    true, // narrow, violating at level 1
		"narrow6":      true, // narrow, schedulable, largest one-word fleet
		"het7sym":      true, // wide, schedulable, symmetry quotient
		"wideBounded6": true, // wide via bounded-disturbance lanes
		"overload12":   true, // wide, violating, deepest fan-out
	}
	for _, tc := range equivalenceCases {
		if !sel[tc.name] {
			continue
		}
		ps := tc.ps()
		local, err := verify.Slot(ps, verify.Config{
			NondetTies: true, SymmetryReduction: tc.sym, MaxDisturbances: tc.md, Workers: 4,
		})
		if err != nil {
			t.Fatalf("%s: local: %v", tc.name, err)
		}
		seq, err := verify.Slot(ps, verify.Config{
			NondetTies: true, SymmetryReduction: tc.sym, MaxDisturbances: tc.md, Workers: 1,
		})
		if err != nil {
			t.Fatalf("%s: local sequential: %v", tc.name, err)
		}
		if local.Schedulable && (seq.States != local.States || seq.Transitions != local.Transitions || seq.Depth != local.Depth) {
			t.Fatalf("%s: local parallel (%d,%d,%d) disagrees with sequential (%d,%d,%d)", tc.name,
				local.States, local.Transitions, local.Depth, seq.States, seq.Transitions, seq.Depth)
		}
		for _, nodes := range []int{2, 4} {
			// workers = 0 is each node's GOMAXPROCS pool.
			for _, workers := range []int{0, 1, 4} {
				cfg := verify.Config{
					NondetTies: true, SymmetryReduction: tc.sym, MaxDisturbances: tc.md,
					Workers: workers,
				}
				dist, err := verifyOver(t, nodes, ps, cfg)
				if err != nil {
					t.Fatalf("%s: mesh nodes=%d workers=%d: %v", tc.name, nodes, workers, err)
				}
				checkMatchesLocal(t, fmt.Sprintf("%s: mesh nodes=%d workers=%d", tc.name, nodes, workers), dist, local)
			}
		}
	}
}
