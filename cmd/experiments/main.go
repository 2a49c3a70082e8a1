// Command experiments regenerates every table and figure of the paper's
// evaluation:
//
//	-table1     Table 1: JT, JE, T*w, Tdw−, Tdw+ for C1..C6
//	-fig2       Fig. 2: motivational response curves
//	-fig3       Fig. 3: settling-time surface, stable vs unstable pair
//	-fig4       Fig. 4: dwell-time tables vs wait time (C1, J* = 0.36 s)
//	-mapping    Sec. 5: slot dimensioning, proposed vs baseline [9]
//	-fig8       Fig. 8: co-simulated responses on slot S1
//	-fig9       Fig. 9: co-simulated responses on slot S2
//	-verifytime Sec. 5: verification-time study (exact vs bounded)
//	-all        everything above
//
// Beyond the paper's evaluation, -synthetic N dimensions a seeded random
// workload of N applications (see internal/plants.Synthetic): first-fit
// with exact wide-state verification under the symmetry quotient, a DP
// partitioner comparison on a tractable sample, and per-run statistics
// (slots needed, states explored, cache traffic). Slots of 8+ fleet
// instances exercise the multi-word encoding past the paper's 6-app scale.
//
// Scale-out and warm-start knobs:
//
//	-nodes K / -connect a,b   run every slot verification on the distributed
//	                          backend (K in-process loopback workers, or
//	                          cmd/verifyd daemons over TCP, exchanging
//	                          frontiers over the worker↔worker mesh);
//	                          -maxstates then budgets states per node
//	-cachefile warm.bin       persist the -synthetic admission cache across
//	                          invocations (config-salted, safe across runs)
//	-granularity-sweep l,h,s  re-dimension the -synthetic workload at every
//	                          Tw granularity in [l,h] step s, charting slots
//	                          needed against dwell-table words (replaces the
//	                          single-granularity sweep)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"tightcps/internal/baseline"
	"tightcps/internal/dverify"
	"tightcps/internal/mapping"
	"tightcps/internal/obs"
	"tightcps/internal/plants"
	"tightcps/internal/sched"
	"tightcps/internal/sim"
	"tightcps/internal/switching"
	"tightcps/internal/textplot"
	"tightcps/internal/verify"
)

func main() {
	var (
		table1     = flag.Bool("table1", false, "regenerate Table 1")
		fig2       = flag.Bool("fig2", false, "regenerate Fig. 2")
		fig3       = flag.Bool("fig3", false, "regenerate Fig. 3")
		fig4       = flag.Bool("fig4", false, "regenerate Fig. 4")
		mappingF   = flag.Bool("mapping", false, "regenerate the slot-dimensioning result")
		fig8       = flag.Bool("fig8", false, "regenerate Fig. 8")
		fig9       = flag.Bool("fig9", false, "regenerate Fig. 9")
		verifytime = flag.Bool("verifytime", false, "regenerate the verification-time study")
		jsonOut    = flag.Bool("json", false, "with -verifytime alone: emit per-combo run traces (states, rate, per-level table, wire stats) as JSON instead of the text table")
		all        = flag.Bool("all", false, "run every paper experiment above (excludes -synthetic)")
		synthetic  = flag.Int("synthetic", 0, "dimension a synthetic workload of N applications (0 = off)")
		seed       = flag.Int64("seed", 1, "random seed for -synthetic")
		maxStates  = flag.Int("maxstates", 30_000_000, "per-admission state budget for -synthetic (per node when distributed); busted checks are rejected conservatively")
		nodes      = flag.Int("nodes", 0, "distribute slot verification over K in-process loopback workers (0 = local)")
		connect    = flag.String("connect", "", "distribute slot verification over verifyd workers at these comma-separated addresses")
		cachefile  = flag.String("cachefile", "", "load/save the -synthetic admission cache at this path (warm starts across runs)")
		granSweep  = flag.String("granularity-sweep", "", "with -synthetic: re-dimension at every Tw granularity lo,hi,step (e.g. 1,8,1)")
	)
	flag.IntVar(&workers, "workers", 0, "worker pool size for verification (0 = GOMAXPROCS, 1 = serial; must be ≥ 0)")
	flag.Parse()
	if workers < 0 {
		fmt.Fprintf(os.Stderr, "experiments: -workers must be ≥ 0 (0 = GOMAXPROCS, 1 = serial), got %d\n", workers)
		os.Exit(2)
	}
	if *synthetic < 0 {
		fmt.Fprintf(os.Stderr, "experiments: -synthetic must be ≥ 0, got %d\n", *synthetic)
		os.Exit(2)
	}
	if *granSweep != "" && *synthetic == 0 {
		fmt.Fprintln(os.Stderr, "experiments: -granularity-sweep requires -synthetic N")
		os.Exit(2)
	}
	if *granSweep != "" && *cachefile != "" {
		// Each granularity verifies differently-coarsened profiles under its
		// own salt, so one cache file cannot warm the sweep; reject rather
		// than silently ignore the flag.
		fmt.Fprintln(os.Stderr, "experiments: -cachefile applies to the plain -synthetic sweep, not -granularity-sweep")
		os.Exit(2)
	}
	if *all {
		*table1, *fig2, *fig3, *fig4, *mappingF, *fig8, *fig9, *verifytime = true, true, true, true, true, true, true, true
	}
	if *jsonOut && (!*verifytime || *table1 || *fig2 || *fig3 || *fig4 || *mappingF || *fig8 || *fig9 || *synthetic > 0) {
		// Only the verification-time study is a run report; mixing JSON into
		// the other experiments' text output would leave neither parseable.
		fmt.Fprintln(os.Stderr, "experiments: -json applies to -verifytime alone")
		os.Exit(2)
	}
	if !(*table1 || *fig2 || *fig3 || *fig4 || *mappingF || *fig8 || *fig9 || *verifytime || *synthetic > 0) {
		flag.Usage()
		os.Exit(2)
	}
	ts, clusterDesc, err := dverify.Cluster(*nodes, *connect)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	if ts != nil {
		defer dverify.Close(ts)
		distRunner, distNodes = dverify.Runner(ts), len(ts)
		fmt.Println(clusterDesc)
	}
	if *synthetic > 0 {
		if *granSweep != "" {
			lo, hi, step, err := parseSweepRange(*granSweep)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(2)
			}
			runGranularitySweep(*synthetic, *seed, *maxStates, lo, hi, step)
		} else {
			runSynthetic(*synthetic, *seed, *maxStates, *cachefile)
		}
	}
	if *fig2 {
		runFig2()
	}
	if *fig3 {
		runFig3()
	}
	if *fig4 {
		runFig4()
	}
	if *table1 {
		runTable1()
	}
	if *mappingF {
		runMapping()
	}
	if *fig8 {
		runFig8()
	}
	if *fig9 {
		runFig9()
	}
	if *verifytime {
		runVerifyTime(*jsonOut)
	}
}

// workers is the shared -workers flag value.
var workers int

// distRunner and distNodes carry the -nodes/-connect cluster: when
// distRunner is non-nil every slot verification routes through the
// distributed backend, and distNodes salts budget-dependent cache keys
// (the per-node budget scales aggregate capacity with the cluster size).
var (
	distRunner func([]*switching.Profile, verify.Config) (verify.Result, error)
	distNodes  int
)

// admissionCache memoizes slot-admission verdicts across the experiments of
// one invocation (e.g. -mapping's first-fit and optimal sweeps).
var admissionCache = mapping.NewCache()

// slotVerify is the admission verifier the experiments share: the exact
// packed checker with nondeterministic ties, fanned out over -workers (or
// over the -nodes/-connect cluster).
func slotVerify(ps []*switching.Profile) (bool, error) {
	res, err := verify.Slot(ps, verify.Config{NondetTies: true, Workers: workers,
		Distributed: distRunner})
	if err != nil {
		return false, err
	}
	return res.Schedulable, nil
}

// parseSweepRange parses a lo,hi,step triple.
func parseSweepRange(s string) (lo, hi, step int, err error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("-granularity-sweep wants lo,hi,step, got %q", s)
	}
	vals := make([]int, 3)
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return 0, 0, 0, fmt.Errorf("-granularity-sweep %q: %v", s, err)
		}
		vals[i] = v
	}
	lo, hi, step = vals[0], vals[1], vals[2]
	if lo < 1 || hi < lo || step < 1 {
		return 0, 0, 0, fmt.Errorf("-granularity-sweep %q wants 1 ≤ lo ≤ hi and step ≥ 1", s)
	}
	return lo, hi, step, nil
}

func profiles() map[string]*switching.Profile {
	m, err := plants.Profiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "profiling:", err)
		os.Exit(1)
	}
	return m
}

func runFig2() {
	fmt.Println("== Fig. 2: response curves for different control strategies ==")
	sys := plants.Motivational()
	mk := func(kE, name string) switching.Plant {
		k := plants.MotivationalKEStable
		if kE == "u" {
			k = plants.MotivationalKEUnstable
		}
		return switching.Plant{Name: name, Sys: sys, KT: plants.MotivationalKT, KE: k,
			X0: plants.MotivationalX0, JStar: 18, R: 25}
	}
	horizon := 50
	curves := []textplot.Series{
		{Name: "KT", Y: switching.SimulateSequence(mk("s", "KT"), allMT(horizon), horizon)},
		{Name: "KsE", Y: switching.SimulateSequence(mk("s", "KsE"), nil, horizon)},
		{Name: "KuE", Y: switching.SimulateSequence(mk("u", "KuE"), nil, horizon)},
		{Name: "4KsE+4KT+nKsE", Y: switching.SimulateSequence(mk("s", "sw-s"), waitDwell(4, 4), horizon)},
		{Name: "4KuE+4KT+nKuE", Y: switching.SimulateSequence(mk("u", "sw-u"), waitDwell(4, 4), horizon)},
	}
	fmt.Print(textplot.Lines(curves, textplot.Options{}))
	for _, c := range curves {
		j, ok := settleOf(c.Y)
		fmt.Printf("  %-16s settling: %s\n", c.Name, secs(j, ok))
	}
	fmt.Println()
}

func allMT(n int) []switching.Mode {
	seq := make([]switching.Mode, n)
	for i := range seq {
		seq[i] = switching.MT
	}
	return seq
}

func waitDwell(w, d int) []switching.Mode {
	seq := make([]switching.Mode, w+d)
	for i := w; i < w+d; i++ {
		seq[i] = switching.MT
	}
	return seq
}

func settleOf(y []float64) (int, bool) {
	k := len(y)
	for i := len(y) - 1; i >= 0; i-- {
		if math.Abs(y[i]) > plants.SettleTol {
			break
		}
		k = i
	}
	return k, k < len(y)
}

func secs(j int, ok bool) string {
	if !ok {
		return ">horizon"
	}
	return fmt.Sprintf("%.2f s (%d samples)", float64(j)*plants.H, j)
}

func runFig3() {
	fmt.Println("== Fig. 3: settling time J(Tw, Tdw), stable vs unstable switching ==")
	sys := plants.Motivational()
	pairs := []struct {
		name string
		p    switching.Plant
	}{
		{"KT+KsE", switching.Plant{Name: "s", Sys: sys, KT: plants.MotivationalKT,
			KE: plants.MotivationalKEStable, X0: plants.MotivationalX0, JStar: 18, R: 25}},
		{"KT+KuE", switching.Plant{Name: "u", Sys: sys, KT: plants.MotivationalKT,
			KE: plants.MotivationalKEUnstable, X0: plants.MotivationalX0, JStar: 18, R: 25}},
	}
	for _, pr := range pairs {
		pts := switching.Surface(pr.p, 10, 8, switching.Config{})
		minJ, maxJ, unsettled := switching.SurfaceStats(pts)
		fmt.Printf("  %s: J over Tw∈[0,10] × Tdw∈[0,8]: min %.2f s, max %.2f s, unsettled %d\n",
			pr.name, float64(minJ)*plants.H, float64(maxJ)*plants.H, unsettled)
		header := []string{"Tw\\Tdw"}
		for d := 0; d <= 8; d++ {
			header = append(header, fmt.Sprint(d))
		}
		var rows [][]string
		for tw := 0; tw <= 10; tw++ {
			row := []string{fmt.Sprint(tw)}
			for d := 0; d <= 8; d++ {
				pt := pts[tw*9+d]
				if math.IsInf(pt.JSec, 1) {
					row = append(row, "inf")
				} else {
					row = append(row, fmt.Sprintf("%.2f", pt.JSec))
				}
			}
			rows = append(rows, row)
		}
		fmt.Print(textplot.Table(header, rows))
		fmt.Println()
	}
}

func runFig4() {
	fmt.Println("== Fig. 4: minimum/maximum dwell times vs wait time (C1, J*=0.36 s) ==")
	p := profiles()["C1"]
	header := []string{"Tw", "Tdw−", "J@Tdw− (s)", "Tdw+", "J@Tdw+ (s)"}
	var rows [][]string
	for tw := 0; tw <= p.TwStar; tw++ {
		rows = append(rows, []string{
			fmt.Sprint(tw),
			fmt.Sprint(p.TdwMinus[tw]),
			fmt.Sprintf("%.2f", float64(p.JAtMin[tw])*plants.H),
			fmt.Sprint(p.TdwPlus[tw]),
			fmt.Sprintf("%.2f", float64(p.JBest[tw])*plants.H),
		})
	}
	fmt.Print(textplot.Table(header, rows))
	fmt.Printf("  T*w = %d samples; RLE storage: Tdw− %d runs, Tdw+ %d runs\n\n",
		p.TwStar, switching.EncodeRLE(p.TdwMinus).Words(), switching.EncodeRLE(p.TdwPlus).Words())
}

func runTable1() {
	fmt.Println("== Table 1: case-study switching profiles (samples, h = 0.02 s) ==")
	m := profiles()
	header := []string{"App", "r", "J*", "JT", "JE", "T*w", "Tdw−", "Tdw+"}
	var rows [][]string
	for _, name := range []string{"C1", "C2", "C3", "C4", "C5", "C6"} {
		p := m[name]
		rows = append(rows, []string{
			name, fmt.Sprint(p.R), fmt.Sprint(p.JStar), fmt.Sprint(p.JT), fmt.Sprint(p.JE),
			fmt.Sprint(p.TwStar), textplot.IntsCSV(p.TdwMinus), textplot.IntsCSV(p.TdwPlus),
		})
	}
	fmt.Print(textplot.Table(header, rows))
	fmt.Println()
}

func runMapping() {
	fmt.Println("== Sec. 5: TT-slot dimensioning, proposed vs baseline [9] ==")
	m := profiles()
	names := []string{"C1", "C2", "C3", "C4", "C5", "C6"}
	var ps []*switching.Profile
	for _, n := range names {
		ps = append(ps, m[n])
	}
	t0 := time.Now()
	ff, err := mapping.FirstFitCached(ps, slotVerify, admissionCache)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("  proposed (first-fit + exact model checking): %d slots %v  [%d checks, %d cached, %.2fs]\n",
		len(ff.Slots), ff.SlotNames(ps), ff.Verifications, ff.CacheHits, time.Since(t0).Seconds())
	t0 = time.Now()
	opt, err := mapping.OptimalCached(ps, slotVerify, admissionCache)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("  exact DP partitioner (2ⁿ−1 subsets):         %d slots %v  [%d checks, %d served by cache, %.2fs]\n",
		len(opt.Slots), opt.SlotNames(ps), opt.Verifications, opt.CacheHits, time.Since(t0).Seconds())

	rs := map[string]int{}
	for n, p := range m {
		rs[n] = p.R
	}
	order := []int{0, 4, 3, 5, 1, 2} // paper order C1,C5,C4,C6,C2,C3 over name-sorted apps
	cal, err := baseline.PaperCalibratedTimings(rs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	an := baseline.Analysis{Strategy: baseline.NonPreemptiveDM}
	calSlots := an.FirstFitOrdered(cal, order)
	fmt.Printf("  baseline [9], calibrated reconstruction:     %d slots %v\n",
		len(calSlots), baseline.SlotNames(cal, calSlots))
	var def []baseline.AppTiming
	for _, n := range names {
		def = append(def, baseline.FromProfile(m[n]))
	}
	defSlots := an.FirstFitOrdered(def, order)
	fmt.Printf("  baseline [9], default reconstruction:        %d slots %v\n",
		len(defSlots), baseline.SlotNames(def, defSlots))
	saved := 100 * (1 - float64(len(ff.Slots))/float64(len(calSlots)))
	fmt.Printf("  saving vs calibrated baseline: %.0f%% (paper reports 50%%)\n\n", saved)
}

func runCoSim(title string, names []string, dists []sim.Disturbance, horizon int) {
	fmt.Println(title)
	m := profiles()
	var pls []switching.Plant
	var ps []*switching.Profile
	for _, n := range names {
		a, err := plants.ByName(n)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		pls = append(pls, plants.SwitchingPlant(a))
		ps = append(ps, m[n])
	}
	r, err := sim.New(pls, ps, plants.SettleTol)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res, err := r.Run(sim.Scenario{Disturbances: dists, Horizon: horizon})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var series []textplot.Series
	for _, a := range res.Apps {
		series = append(series, textplot.Series{Name: a.Name, Y: a.Y[:horizon/2]})
	}
	fmt.Print(textplot.Lines(series, textplot.Options{}))
	fmt.Println("  slot occupancy (first 40 samples):")
	short := res.Occupancy
	if len(short) > 40 {
		short = short[:40]
	}
	fmt.Print(textplot.Occupancy(names, short))
	for i, a := range res.Apps {
		fmt.Printf("  %s: J = %s, J* = %d samples, met = %v, TT samples used = %d\n",
			a.Name, secs(a.J, a.Settled), pls[i].JStar, a.Met, a.TTSamples)
	}
	fmt.Printf("  deadline missed: %v\n\n", res.Missed)
}

func runFig8() {
	runCoSim("== Fig. 8: responses of C1, C3, C4, C5 sharing slot S1 (simultaneous disturbances) ==",
		[]string{"C1", "C5", "C4", "C3"},
		[]sim.Disturbance{{Sample: 0, App: 0}, {Sample: 0, App: 1}, {Sample: 0, App: 2}, {Sample: 0, App: 3}},
		120)
}

func runFig9() {
	runCoSim("== Fig. 9: responses of C2 and C6 sharing slot S2 (C6 disturbed 10 samples after C2) ==",
		[]string{"C6", "C2"},
		[]sim.Disturbance{{Sample: 0, App: 1}, {Sample: 10, App: 0}},
		120)
}

// archetypeProfiles computes one switching profile per archetype of the
// workload at the given Tw granularity (instances share the design). Nil
// entries mark dropped archetypes.
func archetypeProfiles(w *plants.SyntheticWorkload, granularity int, verbose bool) []*switching.Profile {
	archProfs := make([]*switching.Profile, len(w.Designs))
	firstApp := make([]int, len(w.Designs))
	for i := range firstApp {
		firstApp[i] = -1
	}
	for i, d := range w.ArchetypeOf {
		if firstApp[d] < 0 {
			firstApp[d] = i
		}
	}
	for d := range w.Designs {
		p, err := switching.Compute(plants.SwitchingPlant(w.Apps[firstApp[d]]),
			switching.Config{Horizon: 800, Workers: workers, TwGranularity: granularity})
		if err != nil {
			if verbose {
				fmt.Printf("  archetype %02d dropped: %v\n", d, err)
			}
			continue
		}
		if p.R <= p.TwStar {
			// The plant settles below tolerance during the wait itself, so
			// T*w overtakes r; clamp conservatively to the sporadic model.
			p.ClampTwStar(p.R - 1)
		}
		archProfs[d] = p
		if verbose {
			fmt.Printf("  archetype %02d: %d instances, JT=%d J*=%d T*w=%d r=%d maxTdw−=%d%s%s\n",
				d, w.Designs[d].Instances, p.JT, p.JStar, p.TwStar, p.R, p.MaxTdwMinus(),
				flagStr(w.Designs[d].Unstable, " [unstable]"), flagStr(w.Designs[d].Slack, " [slack]"))
		}
	}
	return archProfs
}

// instanceProfiles clones the archetype profiles across their fleet
// instances, returning the instance profile list, the archetype index of
// each entry, and the number of instances dropped with their archetype.
func instanceProfiles(w *plants.SyntheticWorkload, archProfs []*switching.Profile) (ps []*switching.Profile, archOfPs []int, dropped int) {
	for i, a := range w.Apps {
		ap := archProfs[w.ArchetypeOf[i]]
		if ap == nil {
			dropped++
			continue
		}
		ps = append(ps, ap.Clone(a.Name))
		archOfPs = append(archOfPs, w.ArchetypeOf[i])
	}
	return ps, archOfPs, dropped
}

// admissionStats counts what the synthetic admission verifier did.
type admissionStats struct {
	statesExplored  int
	budgetRejects   int
	replayRefuted   int
	encodingRejects int
	verifySecs      float64          // wall time inside the exact checker
	wire            verify.WireStats // distributed runs only
}

// syntheticAdmission builds the sweep's admission verifier: counterexample
// replay prefilter, then the exact checker on the symmetry quotient with
// the per-check state budget, routed through the -nodes/-connect cluster
// when one is up. Budget and encoding busts reject conservatively (never
// unsoundly) and are counted.
func syntheticAdmission(budget int) (mapping.VerifyFunc, *admissionStats) {
	stats := &admissionStats{}
	vf := func(set []*switching.Profile) (bool, error) {
		if verify.Refute(set, sched.PreemptEager) {
			stats.replayRefuted++
			return false, nil
		}
		t0 := time.Now()
		res, err := verify.Slot(set, verify.Config{
			NondetTies: true, SymmetryReduction: true, Workers: workers,
			MaxStates: budget, Distributed: distRunner})
		stats.verifySecs += time.Since(t0).Seconds()
		stats.statesExplored += res.States
		stats.wire.Add(res.Wire)
		if errors.Is(err, verify.ErrTooLarge) {
			stats.budgetRejects++
			return false, nil
		}
		if errors.Is(err, verify.ErrEncoding) {
			// Candidate exceeds the packed encoding (today: 12 apps);
			// reject conservatively rather than aborting the sweep.
			stats.encodingRejects++
			return false, nil
		}
		if err != nil {
			return false, err
		}
		return res.Schedulable, nil
	}
	return vf, stats
}

// syntheticCacheKey salts the sweep's admission cache: the budget makes
// verdicts configuration-dependent (busted checks reject conservatively),
// and a distributed run scales the aggregate budget with the cluster size,
// so both participate in the key.
func syntheticCacheKey(budget int) uint64 {
	return mapping.VerifyConfigKey(verify.Config{
		NondetTies: true, SymmetryReduction: true, MaxStates: budget,
	}, uint64(distNodes))
}

// runSynthetic dimensions a seeded synthetic workload end-to-end: archetype
// profiling (one switching analysis per design, cloned across fleet
// instances), first-fit mapping with exact wide-state verification under
// the symmetry quotient, and a DP-partitioner comparison on a tractable
// sample. Admission checks are prefiltered by counterexample replay
// (verify.Refute) and bounded by the -maxstates budget; a busted budget
// rejects conservatively (never unsoundly) and is reported. With
// -cachefile, admission verdicts persist across invocations and the run
// reports its cache hit rate.
func runSynthetic(n int, seed int64, budget int, cachefile string) {
	t0 := time.Now()
	w := plants.Synthetic(plants.SyntheticOptions{N: n, Seed: seed})
	fmt.Printf("== Synthetic dimensioning sweep: %d applications, %d archetypes, seed %d ==\n",
		len(w.Apps), len(w.Designs), seed)

	archProfs := archetypeProfiles(w, 1, true)
	ps, archOfPs, dropped := instanceProfiles(w, archProfs)
	fmt.Printf("  profiled %d applications (%d dropped) in %.1fs\n", len(ps), dropped, time.Since(t0).Seconds())

	vf, stats := syntheticAdmission(budget)
	// The budget makes verdicts configuration-dependent, so the sweep keeps
	// its own config-salted cache instead of sharing admissionCache.
	cache := mapping.NewCacheFor(syntheticCacheKey(budget))
	if cachefile != "" {
		loaded, err := cache.LoadFile(cachefile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: loading admission cache:", err)
			os.Exit(1)
		}
		if loaded {
			fmt.Printf("  admission cache: warm start with %d verdicts from %s\n", cache.Len(), cachefile)
		}
	}

	t1 := time.Now()
	ff, err := mapping.FirstFitCached(ps, vf, cache)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	maxSlot, deep := 0, 0
	for _, s := range ff.Slots {
		if len(s) > maxSlot {
			maxSlot = len(s)
		}
		if len(s) >= 8 {
			deep++
		}
	}
	fmt.Printf("  first-fit: %d slots for %d applications (largest slot %d apps, %d slots with ≥8 apps) in %.1fs\n",
		len(ff.Slots), len(ps), maxSlot, deep, time.Since(t1).Seconds())
	rate := 0
	if stats.verifySecs > 0 {
		rate = int(float64(stats.statesExplored) / stats.verifySecs)
	}
	effWorkers := workers
	if effWorkers <= 0 {
		effWorkers = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("  admission checks %d (%d served by cache), states explored %d, rate=%d states/s [gomaxprocs=%d numcpu=%d workers=%d]\n",
		ff.Verifications, ff.CacheHits, stats.statesExplored, rate,
		runtime.GOMAXPROCS(0), runtime.NumCPU(), effWorkers)
	fmt.Printf("  rejects: %d by counterexample replay, %d by state budget (conservative), %d over the encoding cap\n",
		stats.replayRefuted, stats.budgetRejects, stats.encodingRejects)
	if stats.wire.RawBytes > 0 {
		fmt.Printf("  %s\n", stats.wire.Report())
	}
	for si, names := range ff.SlotNames(ps) {
		if len(names) >= 8 {
			fmt.Printf("    slot S%d (%d apps): %v\n", si+1, len(names), names)
		}
	}

	// DP partitioner comparison on a tractable sample: the instances of the
	// two lowest-T*w archetypes (2^n subset checks stay cheap there, and
	// the shared cache reuses every verdict first-fit already settled).
	sample := dpSample(ps, archOfPs, archProfs)
	if len(sample) >= 4 {
		t2 := time.Now()
		ffS, err1 := mapping.FirstFitCached(sample, vf, cache)
		dp, err2 := mapping.OptimalCached(sample, vf, cache)
		if err1 != nil || err2 != nil {
			fmt.Fprintln(os.Stderr, "DP sample:", errors.Join(err1, err2))
			os.Exit(1)
		}
		fmt.Printf("  DP sample (%d apps of the 2 tightest archetypes): first-fit %d slots, optimal %d slots [%d subset checks, %d cached] in %.1fs\n",
			len(sample), len(ffS.Slots), len(dp.Slots), dp.Verifications, dp.CacheHits, time.Since(t2).Seconds())
	}
	hits, misses, _ := cache.Stats()
	if lookups := hits + misses; lookups > 0 {
		fmt.Printf("  admission cache: %d hits / %d lookups (%.0f%% hit rate)\n",
			hits, lookups, 100*float64(hits)/float64(lookups))
	}
	if cachefile != "" {
		if err := cache.SaveFile(cachefile); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: saving admission cache:", err)
			os.Exit(1)
		}
		fmt.Printf("  admission cache: %d verdicts saved to %s\n", cache.Len(), cachefile)
	}
	fmt.Printf("  total sweep time %.1fs\n\n", time.Since(t0).Seconds())
}

// runGranularitySweep re-dimensions the synthetic workload at every Tw
// granularity in [lo, hi] (step apart), charting the paper's Sec. 3
// trade-off at scale: coarser wait-time grids shrink the dwell tables
// (fewer Tw rows to store on the ECU) but make every profile more
// conservative, which costs TT slots.
func runGranularitySweep(n int, seed int64, budget, lo, hi, step int) {
	t0 := time.Now()
	w := plants.Synthetic(plants.SyntheticOptions{N: n, Seed: seed})
	fmt.Printf("== Tw-granularity coarsening sweep: %d applications, seed %d, granularity %d..%d step %d ==\n",
		len(w.Apps), seed, lo, hi, step)

	type point struct {
		g, slots, rawWords, rleWords, checks int
		secs                                 float64
	}
	var pts []point
	for g := lo; g <= hi; g += step {
		t1 := time.Now()
		archProfs := archetypeProfiles(w, g, false)
		ps, _, dropped := instanceProfiles(w, archProfs)
		if len(ps) == 0 {
			fmt.Printf("  granularity %d: every archetype dropped\n", g)
			continue
		}
		vf, _ := syntheticAdmission(budget)
		// The cache lives for this one first-fit call and is never
		// persisted, so no config salt is needed — each granularity's
		// profiles fingerprint differently anyway.
		cache := mapping.NewCache()
		ff, err := mapping.FirstFitCached(ps, vf, cache)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		raw, rle := 0, 0
		for _, p := range ps {
			raw += len(p.TdwMinus) + len(p.TdwPlus)
			rle += switching.EncodeRLE(p.TdwMinus).Words() + switching.EncodeRLE(p.TdwPlus).Words()
		}
		pts = append(pts, point{g, len(ff.Slots), raw, rle, ff.Verifications, time.Since(t1).Seconds()})
		fmt.Printf("  granularity %d: %d slots, %d table words (%d RLE) for %d apps (%d dropped), %d checks, %.1fs\n",
			g, len(ff.Slots), raw, rle, len(ps), dropped, ff.Verifications, time.Since(t1).Seconds())
	}
	if len(pts) == 0 {
		return
	}
	header := []string{"granularity", "slots", "table words", "RLE words", "admission checks", "time (s)"}
	var rows [][]string
	slotsY := make([]float64, len(pts))
	wordsY := make([]float64, len(pts))
	for i, p := range pts {
		rows = append(rows, []string{
			fmt.Sprint(p.g), fmt.Sprint(p.slots), fmt.Sprint(p.rawWords),
			fmt.Sprint(p.rleWords), fmt.Sprint(p.checks), fmt.Sprintf("%.1f", p.secs),
		})
		slotsY[i] = float64(p.slots)
		wordsY[i] = float64(p.rawWords)
	}
	fmt.Print(textplot.Table(header, rows))
	fmt.Println("  slots needed vs granularity:")
	fmt.Print(textplot.Lines([]textplot.Series{{Name: "slots", Y: slotsY}}, textplot.Options{Height: 10}))
	fmt.Println("  dwell-table words vs granularity:")
	fmt.Print(textplot.Lines([]textplot.Series{{Name: "table words", Y: wordsY}}, textplot.Options{Height: 10}))
	fmt.Printf("  total sweep time %.1fs\n\n", time.Since(t0).Seconds())
}

// dpSample picks up to 5 instances of each of the two archetypes with the
// smallest T*w — a set whose 2^n subset enumeration stays tractable.
// archOfPs maps each profile in ps to its archetype index.
func dpSample(ps []*switching.Profile, archOfPs []int, archProfs []*switching.Profile) []*switching.Profile {
	var live []int
	for d, p := range archProfs {
		if p != nil {
			live = append(live, d)
		}
	}
	sort.Slice(live, func(i, j int) bool { return archProfs[live[i]].TwStar < archProfs[live[j]].TwStar })
	if len(live) > 2 {
		live = live[:2]
	}
	var out []*switching.Profile
	for _, d := range live {
		picked := 0
		for i, inst := range ps {
			if picked < 5 && archOfPs[i] == d {
				out = append(out, inst)
				picked++
			}
		}
	}
	return out
}

func flagStr(on bool, s string) string {
	if on {
		return s
	}
	return ""
}

// runVerifyTime regenerates the verification-time study. With jsonRep the
// text table is replaced by a JSON array of per-combo run reports — the
// internal/obs traces of the exact and bounded runs (states, rate,
// per-level frontier table, wire stats), one parseable document instead of
// grepping the table.
func runVerifyTime(jsonRep bool) {
	if !jsonRep {
		fmt.Println("== Sec. 5: verification-time study ==")
	}
	m := profiles()
	combos := [][]string{
		{"C6", "C2"},
		{"C1", "C5"},
		{"C1", "C5", "C4"},
		{"C1", "C5", "C4", "C3"},
	}
	type comboReport struct {
		Exact   *obs.Trace `json:"exact"`
		Bounded *obs.Trace `json:"bounded"`
	}
	var reports []comboReport
	header := []string{"slot set", "exact states", "exact time", "bounded states", "bounded time", "verdict"}
	var rows [][]string
	for _, names := range combos {
		var ps []*switching.Profile
		for _, n := range names {
			ps = append(ps, m[n])
		}
		cfg := verify.Config{NondetTies: true, Workers: workers}
		var exTr, bdTr *obs.Trace
		if jsonRep {
			exTr = obs.NewTrace("")
			cfg.RunID, cfg.RunTrace = exTr.RunID, exTr
		}
		t0 := time.Now()
		exact, err := verify.Slot(ps, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		exactT := time.Since(t0)
		bcfg := verify.Config{NondetTies: true, Workers: workers,
			MaxDisturbances: verify.BoundFor(ps)}
		if jsonRep {
			bdTr = obs.NewTrace("")
			bcfg.RunID, bcfg.RunTrace = bdTr.RunID, bdTr
		}
		t0 = time.Now()
		bounded, err := verify.Slot(ps, bcfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		boundedT := time.Since(t0)
		if jsonRep {
			reports = append(reports, comboReport{Exact: exTr, Bounded: bdTr})
			continue
		}
		rows = append(rows, []string{
			fmt.Sprint(names),
			fmt.Sprint(exact.States), fmt.Sprintf("%.3fs", exactT.Seconds()),
			fmt.Sprint(bounded.States), fmt.Sprintf("%.3fs", boundedT.Seconds()),
			fmt.Sprint(exact.Schedulable),
		})
	}
	if jsonRep {
		b, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(string(b))
		return
	}
	fmt.Print(textplot.Table(header, rows))
	fmt.Println(`  Note: the paper accelerated UPPAAL (5 h → 15 min) by bounding disturbance
  instances. Our discrete exact checker is already fast; bounding instances
  adds per-application counters to the state and is counterproductive here —
  a negative result (see the BenchmarkVerifyBounded comment in bench_test.go).`)
}
