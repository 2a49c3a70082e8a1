// Command bench regenerates BENCH_verify.json, the repository's performance
// trajectory for the verification hot path. It measures, via
// testing.Benchmark, the workloads the dimensioning engine's capacity is
// quoted in:
//
//   - VerifyS1: the paper's hardest slot (C1+C5+C4+C3, 1.44M states) on the
//     sequential narrow-encoding search — the canonical states/second and
//     allocation number (the same workload as BenchmarkVerifyS1 in
//     bench_test.go);
//   - VerifyWideFleet9: a nine-instance fleet on the multi-word encoding
//     under the symmetry quotient;
//   - VerifyS1Loopback2 / VerifyS1Loopback4: S1 distributed over two and
//     four in-process loopback workers on the mesh topology (direct
//     worker↔worker exchange, pipelined levels), each also measured with a
//     4-lane per-node expansion pool (the ...2x4/...4x4 rows — the
//     workers_per_node dimension of the scaling study).
//
// The distributed_scaling section records states/second per node count and
// the speedup against both the single-node search and the recorded PR-4
// two-node relay baseline, so CI and later PRs can assert that adding
// nodes buys throughput (the PR-5 acceptance gate: 2-node mesh ≥ 1.5× the
// PR-4 loopback baseline). The pre-PR-4 VerifyS1 baseline stays for the
// allocation trajectory (≥ 5× fewer B/op and allocs/op).
//
// Usage:
//
//	bench [-o BENCH_verify.json]
//	bench -trace run.json        # summarize a -tracefile run report
//
// -trace consumes a per-run JSON trace written by verifyslot -tracefile
// (internal/obs), printing its throughput, level and wire numbers in the
// same shape as the benchmark rows.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"tightcps/internal/dverify"
	"tightcps/internal/obs"
	"tightcps/internal/plants"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// benchResult is one workload's measurement. Gomaxprocs/NumCPU pin the
// builder's core budget next to every number, so 1-CPU CI figures are
// never mistaken for multi-core results. They are omitempty because the
// recorded baselines predate the pinning — a literal 0 there would read
// as a (meaningless) measurement, not as "unknown".
type benchResult struct {
	Name         string  `json:"name"`
	States       int     `json:"states"`
	NsPerOp      int64   `json:"ns_per_op"`
	StatesPerSec float64 `json:"states_per_sec"`
	BPerOp       int64   `json:"b_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	Gomaxprocs   int     `json:"gomaxprocs,omitempty"`
	NumCPU       int     `json:"num_cpu,omitempty"`
}

// scalingEntry is one cluster-shape measurement of the
// distributed_scaling study: S1 throughput at a node count and per-node
// worker-pool size, with speedups against the single-node search and the
// recorded PR-4 two-node relay baseline. CoresTotal = nodes ×
// workers_per_node distinguishes node-scaling from core-scaling in the
// trajectory.
type scalingEntry struct {
	Nodes           int     `json:"nodes"`
	Topology        string  `json:"topology"` // "local" or "mesh"
	WorkersPerNode  int     `json:"workers_per_node"`
	CoresTotal      int     `json:"cores_total"`
	StatesPerSec    float64 `json:"states_per_sec"`
	SpeedupVsSingle float64 `json:"speedup_vs_single_node"`
	SpeedupVsPR4    float64 `json:"speedup_vs_pr4_loopback2"`
}

// laneScalingEntry is one workers-per-node measurement of the lane-pool
// study, carrying the contention counters (visited-set CAS retries,
// work-queue steals) accumulated by the run alongside throughput and
// allocation. Gomaxprocs/NumCPU qualify every row: on the 1-CPU CI
// containers the multi-lane rows measure coordination overhead, not
// speedup — Note says so explicitly, so nobody quotes them as scaling.
type laneScalingEntry struct {
	Nodes          int     `json:"nodes"`
	WorkersPerNode int     `json:"workers_per_node"`
	Gomaxprocs     int     `json:"gomaxprocs"`
	NumCPU         int     `json:"num_cpu"`
	StatesPerSec   float64 `json:"states_per_sec"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
	Steals         uint64  `json:"steals"`
	CASRetries     uint64  `json:"cas_retries"`
	Note           string  `json:"note,omitempty"`
}

// report is the BENCH_verify.json schema.
type report struct {
	Generated string `json:"generated"`
	// Baseline is the pre-PR-4 measurement of VerifyS1 (the allocating
	// expansion core), recorded once so later runs always compare against
	// the same anchor.
	Baseline benchResult   `json:"baseline_verify_s1_pr3"`
	Current  []benchResult `json:"current"`
	// Scaling is the distributed throughput study: states/second per node
	// count, against BaselineLB2 — the PR-4 two-node loopback relay
	// measurement, recorded once.
	BaselineLB2 float64        `json:"baseline_loopback2_pr4_states_per_sec"`
	Scaling     []scalingEntry `json:"distributed_scaling"`
	// LaneScaling is the workers-per-node study with contention counters —
	// the PR-10 lock-free set / work-stealing trajectory.
	LaneScaling []laneScalingEntry `json:"lane_scaling"`
	BRatio      float64            `json:"b_per_op_improvement"`
	AllocsRat   float64            `json:"allocs_per_op_improvement"`
}

// baselineS1 is the pre-PR-4 VerifyS1 measurement (PR-3 tree, same host
// class as CI: go test -bench VerifyFullWorkers1 -benchmem).
var baselineS1 = benchResult{
	Name:         "VerifyS1",
	States:       1440712,
	NsPerOp:      390238054,
	StatesPerSec: 1440712 / 0.390238054,
	BPerOp:       202052528,
	AllocsPerOp:  4888249,
}

// baselineLoopback2PR4 is the PR-4 two-node loopback measurement (the
// coordinator-relay exchange, 625ms for S1) — the anchor the mesh's
// scaling numbers are gated against.
const baselineLoopback2PR4 = 1440712 / 0.625211794

// laneAllocCeiling is the absolute allocs/op bound for the multi-lane
// loopback rows. Post-crew runs sit around a few hundred allocations per
// op (link buffers and level bookkeeping); the ceiling leaves headroom
// for noise while staying far below the ~12k/op of the spawn-per-chunk
// leak it guards against.
const laneAllocCeiling = 2000

// fleetProfiles builds n identical synthetic profiles (distinct names) with
// constant dwell windows — the fleet workload of the wide encoding,
// mirroring bench_test.go.
func fleetProfiles(n, twStar, dm, dp, r int) []*switching.Profile {
	out := make([]*switching.Profile, n)
	for i := range out {
		k := twStar + 1
		minT, plusT := make([]int, k), make([]int, k)
		for j := range minT {
			minT[j], plusT[j] = dm, dp
		}
		out[i] = &switching.Profile{
			Name: fmt.Sprintf("F%d", i), TwStar: twStar, TdwMinus: minT, TdwPlus: plusT,
			R: r, Granularity: 1, JStar: twStar + dp,
			JAtMin: make([]int, k), JBest: make([]int, k),
		}
	}
	return out
}

// summarizeTrace prints the bench-relevant numbers of one -tracefile run
// report (states, rate, level count, wire volume) in the same shape as a
// benchmark row, so a distributed run captured in production slots into
// the trajectory next to the loopback measurements.
func summarizeTrace(path string) {
	tr, err := obs.ReadTraceFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	backend := tr.Backend
	if backend == "" {
		backend = "local"
	}
	fmt.Printf("trace %s (run %s): slot %v %s", path, tr.RunID, tr.Slot, backend)
	if tr.Nodes > 0 {
		fmt.Printf(" nodes=%d", tr.Nodes)
	}
	fmt.Printf("\n  %-22s %8.0f states/s  states=%d depth=%d levels=%d (sum %d)\n",
		"Trace"+backend, tr.StatesPerSec, tr.States, tr.Depth, len(tr.Levels), tr.LevelStates())
	if tr.Wire != nil && tr.Wire.RawBytes > 0 {
		fmt.Printf("  wire: routed=%d filtered=%d raw=%dB shipped=%dB (%.0f%% saved)\n",
			tr.Wire.RoutedStates, tr.Wire.FilteredStates, tr.Wire.RawBytes, tr.Wire.WireBytes,
			100*(1-float64(tr.Wire.WireBytes)/float64(tr.Wire.RawBytes)))
	}
}

// measure runs one verification workload under testing.Benchmark and
// packages the result.
func measure(name string, states *int, run func() (verify.Result, error)) benchResult {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := run()
			if err != nil {
				b.Fatal(err)
			}
			if !res.Schedulable {
				b.Fatalf("%s: workload must verify", name)
			}
			*states = res.States
		}
	})
	ns := r.NsPerOp()
	return benchResult{
		Name:         name,
		States:       *states,
		NsPerOp:      ns,
		StatesPerSec: float64(*states) / (float64(ns) / 1e9),
		BPerOp:       r.AllocedBytesPerOp(),
		AllocsPerOp:  r.AllocsPerOp(),
		Gomaxprocs:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
	}
}

func main() {
	out := flag.String("o", "BENCH_verify.json", "path to write the benchmark report to")
	traceIn := flag.String("trace", "", "summarize a verifyslot/verifyd -tracefile run report at this path and exit (no benchmarks)")
	flag.Parse()

	if *traceIn != "" {
		summarizeTrace(*traceIn)
		return
	}

	s1, err := plants.ProfileList("C1", "C5", "C4", "C3")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fleet9 := fleetProfiles(9, 8, 1, 2, 9)

	var rep report
	rep.Generated = time.Now().UTC().Format(time.RFC3339)
	rep.Baseline = baselineS1

	var states int
	fmt.Fprintln(os.Stderr, "bench: VerifyS1 (narrow, sequential)...")
	rep.Current = append(rep.Current, measure("VerifyS1", &states, func() (verify.Result, error) {
		return verify.Slot(s1, verify.Config{NondetTies: true, Workers: 1})
	}))
	fmt.Fprintln(os.Stderr, "bench: VerifyWideFleet9 (wide, symmetry quotient)...")
	rep.Current = append(rep.Current, measure("VerifyWideFleet9", &states, func() (verify.Result, error) {
		return verify.Slot(fleet9, verify.Config{NondetTies: true, SymmetryReduction: true, Workers: 1})
	}))

	single := rep.Current[0].StatesPerSec
	rep.BaselineLB2 = baselineLoopback2PR4
	rep.Scaling = append(rep.Scaling, scalingEntry{
		Nodes: 1, Topology: "local", WorkersPerNode: 1, CoresTotal: 1, StatesPerSec: single,
		SpeedupVsSingle: 1, SpeedupVsPR4: single / baselineLoopback2PR4,
	})

	// Distributed S1: the mesh topology at two and four loopback workers,
	// each at per-node expansion pools of 1 and 4 lanes (the node-scaling ×
	// core-scaling study).
	var mesh2w1, mesh2w4, mesh4w1 benchResult
	meshRun := func(name string, n, workers int) benchResult {
		fmt.Fprintf(os.Stderr, "bench: %s (%d-node mesh, %d workers/node)...\n", name, n, workers)
		c0 := verify.Contention()
		ts := dverify.Loopback(n)
		defer dverify.Close(ts)
		runner := dverify.Runner(ts)
		run := func() (verify.Result, error) {
			return verify.Slot(s1, verify.Config{NondetTies: true, Workers: workers, Distributed: runner})
		}
		// One untimed run first: the standing cluster reuses its workers
		// across Inits, so the quoted numbers (and the alloc-trend gate) are
		// the steady state of a warm fleet, not first-run construction.
		if _, err := run(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		r := measure(name, &states, run)
		// Contention counters flush into the engine telemetry when a worker
		// session tears down, which a follow-up Init does synchronously: one
		// more untimed run closes the books on every measured session (its
		// own contention stays unflushed and outside the delta).
		if _, err := run(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		c1 := verify.Contention()
		rep.Current = append(rep.Current, r)
		rep.Scaling = append(rep.Scaling, scalingEntry{
			Nodes: n, Topology: "mesh", WorkersPerNode: workers, CoresTotal: n * workers,
			StatesPerSec:    r.StatesPerSec,
			SpeedupVsSingle: r.StatesPerSec / single,
			SpeedupVsPR4:    r.StatesPerSec / baselineLoopback2PR4,
		})
		note := ""
		if runtime.GOMAXPROCS(0) < n*workers {
			note = "host has fewer cores than lanes: row measures coordination overhead, not speedup"
		}
		rep.LaneScaling = append(rep.LaneScaling, laneScalingEntry{
			Nodes: n, WorkersPerNode: workers,
			Gomaxprocs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			StatesPerSec: r.StatesPerSec, AllocsPerOp: r.AllocsPerOp,
			Steals:     c1.Steals - c0.Steals,
			CASRetries: c1.CASRetries - c0.CASRetries,
			Note:       note,
		})
		return r
	}
	mesh2w1 = meshRun("VerifyS1Loopback2", 2, 1)
	mesh2w4 = meshRun("VerifyS1Loopback2x4", 2, 4)
	mesh4w1 = meshRun("VerifyS1Loopback4", 4, 1)
	mesh4w4 := meshRun("VerifyS1Loopback4x4", 4, 4)

	// Alloc-trend gate: per-op allocations of the loopback mesh must stay
	// roughly flat in the node count (each node recycles its inbox batches
	// and frontier buckets; only per-link structures scale). Before the
	// recycling fix the 4-node run allocated ~2× the 2-node run per op.
	if ratio := float64(mesh4w1.AllocsPerOp) / float64(mesh2w1.AllocsPerOp); ratio > 1.5 {
		fmt.Fprintf(os.Stderr, "bench: FAIL: 4-node mesh allocs/op is %.2f× the 2-node run (%d vs %d), want ≤ 1.5× — per-node allocation is growing with cluster size\n",
			ratio, mesh4w1.AllocsPerOp, mesh2w1.AllocsPerOp)
		os.Exit(1)
	}
	// Lane-pool alloc gates: multi-lane runs must stay within 10× the
	// one-lane figure (before the persistent crews the 2x4 run allocated
	// ~150× — a goroutine spawn plus escaped atomics per chunk) and under an
	// absolute per-op ceiling, so the leak cannot creep back gradually.
	for _, g := range []struct {
		multi, one benchResult
	}{{mesh2w4, mesh2w1}, {mesh4w4, mesh4w1}} {
		if g.multi.AllocsPerOp > 10*g.one.AllocsPerOp {
			fmt.Fprintf(os.Stderr, "bench: FAIL: %s allocs/op is %.1f× the 1-lane run (%d vs %d), want ≤ 10× — the lane pool is allocating per chunk again\n",
				g.multi.Name, float64(g.multi.AllocsPerOp)/float64(g.one.AllocsPerOp), g.multi.AllocsPerOp, g.one.AllocsPerOp)
			os.Exit(1)
		}
		if g.multi.AllocsPerOp > laneAllocCeiling {
			fmt.Fprintf(os.Stderr, "bench: FAIL: %s allocates %d/op, want ≤ %d (absolute ceiling)\n",
				g.multi.Name, g.multi.AllocsPerOp, laneAllocCeiling)
			os.Exit(1)
		}
	}
	// Throughput gate, meaningful only where the lanes have cores to run
	// on: with 4+ cores the 4-lane 2-node run must not be slower than the
	// 1-lane one. On the 1-CPU CI hosts this is skipped (and the rows carry
	// the overhead note instead).
	if runtime.GOMAXPROCS(0) >= 4 && mesh2w4.StatesPerSec < mesh2w1.StatesPerSec {
		fmt.Fprintf(os.Stderr, "bench: FAIL: on a %d-proc host the 4-lane 2-node mesh (%.0f states/s) is slower than 1-lane (%.0f states/s)\n",
			runtime.GOMAXPROCS(0), mesh2w4.StatesPerSec, mesh2w1.StatesPerSec)
		os.Exit(1)
	}
	cur := rep.Current[0]
	rep.BRatio = float64(rep.Baseline.BPerOp) / float64(cur.BPerOp)
	rep.AllocsRat = float64(rep.Baseline.AllocsPerOp) / float64(cur.AllocsPerOp)

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
	for _, c := range rep.Current {
		fmt.Printf("  %-22s %8.0f states/s  %12d B/op  %9d allocs/op\n",
			c.Name, c.StatesPerSec, c.BPerOp, c.AllocsPerOp)
	}
	fmt.Printf("  vs baseline: B/op ×%.1f, allocs/op ×%.0f\n", rep.BRatio, rep.AllocsRat)
	for _, s := range rep.Scaling {
		fmt.Printf("  scaling: %d-node %-5s ×%d workers (%2d cores) %8.0f states/s  ×%.2f vs single  ×%.2f vs PR-4 loopback2\n",
			s.Nodes, s.Topology, s.WorkersPerNode, s.CoresTotal, s.StatesPerSec, s.SpeedupVsSingle, s.SpeedupVsPR4)
	}
}
