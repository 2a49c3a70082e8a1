package dverify

import (
	"testing"

	"tightcps/internal/obs"
	"tightcps/internal/verify"
)

// TestDistributedTraceLevels: an exhaustive distributed run's folded
// per-level spans must partition the visited states exactly — every state
// is counted in the level it was committed at, once. The mesh reconstructs
// levels from the workers' cumulative fresh-commit counts
// (Response.FreshByLevel). This is the engine-level half of the
// verifyslot -tracefile check (on S1 = this invariant at 1.44M states).
func TestDistributedTraceLevels(t *testing.T) {
	ps := fleet(4, 6, 1, 2, 10)
	t.Run("mesh", func(t *testing.T) {
		tr := obs.NewTrace("")
		cfg := verify.Config{NondetTies: true, RunID: tr.RunID, RunTrace: tr}
		res, err := verifyOver(t, 2, ps, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Schedulable {
			t.Fatal("fleet must verify")
		}
		if got := tr.LevelStates(); got != res.States {
			t.Errorf("level spans sum to %d states, search visited %d", got, res.States)
		}
		if tr.Backend != "mesh" || tr.Nodes != 2 {
			t.Errorf("backend recorded as %q/%d nodes, want mesh/2", tr.Backend, tr.Nodes)
		}
		if len(tr.Levels) != res.Depth+1 {
			t.Errorf("trace has %d level spans, depth %d wants %d", len(tr.Levels), res.Depth, res.Depth+1)
		}
		if tr.Levels[0].States != 1 {
			t.Errorf("level 0 records %d states, the initial state makes it 1", tr.Levels[0].States)
		}
		if len(tr.Cluster) != 2 {
			t.Fatalf("mesh trace has %d node spans, want 2", len(tr.Cluster))
		}
		nodeSum := 0
		for _, n := range tr.Cluster {
			nodeSum += n.States
		}
		if nodeSum != res.States {
			t.Errorf("node spans own %d states, search visited %d", nodeSum, res.States)
		}
		if tr.Epochs <= 0 {
			t.Error("mesh trace must record its poll epochs")
		}
	})
}
