package main

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"time"

	"tightcps/internal/control"
	"tightcps/internal/core"
	"tightcps/internal/mapping"
	"tightcps/internal/plants"
	"tightcps/internal/sched"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// The dimension workload: closed loop, one caller. Each operation is one
// cold dimensioning in two parts:
//
//	(a) the paper's six case-study applications through core.Dimensioner
//	    (default Options plus the switching-stability check, fresh cache);
//	(b) a seeded synthetic fleet of 64 applications through the pipeline of
//	    cmd/experiments -synthetic: per-archetype profiling, a replay
//	    prefilter, symmetry-reduced exact checks under a state budget, and
//	    first-fit plus the optimal partitioner over one fresh shared cache.

const (
	fleetN      = 64
	fleetBudget = 300_000 // states per admission check; busting it rejects
	smallCall   = 10_000  // verify.small_call_us counts calls below this many states
)

// caseStudySlots is the paper's allocation of the six applications.
var caseStudySlots = [][]string{{"C1", "C5", "C4", "C3"}, {"C6", "C2"}}

// fleetStats counts what one fleet's admission verifier did.
type fleetStats struct {
	checks, refuted, budgetRejects, encodingRejects int
	states, bustedStates                            int
	lookups, hits                                   int
	smallCallSecs                                   []float64
}

// fleetResult is the answer part (b) produces for one fleet.
type fleetResult struct {
	Apps      int // applications profiled (dropped archetypes excluded)
	FirstFit  [][]int
	SampleFF  [][]int
	SampleOpt [][]int
}

// fleet is the input of part (b): the generated workload, generated
// outside the timed window.
type fleet struct {
	seed int64
	w    *plants.SyntheticWorkload
}

// runFleet dimensions one synthetic fleet with the given engine worker
// count, recording spans when tr is non-nil.
func runFleet(f fleet, workers int, tr *tracer, parent, op int, st *fleetStats) (fleetResult, error) {
	w := f.w
	// Archetype profiling: one switching analysis per design, cloned over
	// its instances.
	arch := make([]*switching.Profile, len(w.Designs))
	first := make([]int, len(w.Designs))
	for i := range first {
		first[i] = -1
	}
	for i, d := range w.ArchetypeOf {
		if first[d] < 0 {
			first[d] = i
		}
	}
	for d := range w.Designs {
		id := tr.begin("switching.compute", parent, op)
		p, err := switching.Compute(plants.SwitchingPlant(w.Apps[first[d]]),
			switching.Config{Horizon: 800, Workers: workers, TwGranularity: 1})
		tr.end(id)
		if err != nil {
			continue // archetype dropped, as in cmd/experiments
		}
		if p.R <= p.TwStar {
			p.ClampTwStar(p.R - 1)
		}
		arch[d] = p
	}
	var ps []*switching.Profile
	var archOf []int
	for i, a := range w.Apps {
		if ap := arch[w.ArchetypeOf[i]]; ap != nil {
			ps = append(ps, ap.Clone(a.Name))
			archOf = append(archOf, w.ArchetypeOf[i])
		}
	}

	var mapSpan int // the mapping span the verifier's spans nest under
	vf := func(set []*switching.Profile) (bool, error) {
		st.checks++
		id := tr.begin("verify.refute", mapSpan, op)
		refuted := verify.Refute(set, sched.PreemptEager)
		tr.end(id)
		if refuted {
			st.refuted++
			return false, nil
		}
		id = tr.begin("verify.slot", mapSpan, op)
		res, err := verify.Slot(set, verify.Config{
			NondetTies: true, SymmetryReduction: true, Workers: workers, MaxStates: fleetBudget})
		d := tr.end(id)
		st.states += res.States
		if tr != nil && res.States < smallCall {
			st.smallCallSecs = append(st.smallCallSecs, d.Seconds())
		}
		switch {
		case errors.Is(err, verify.ErrTooLarge):
			st.budgetRejects++
			st.bustedStates += res.States
			return false, nil
		case errors.Is(err, verify.ErrEncoding):
			st.encodingRejects++
			return false, nil
		case err != nil:
			return false, err
		}
		return res.Schedulable, nil
	}
	cache := mapping.NewCacheFor(mapping.VerifyConfigKey(verify.Config{
		NondetTies: true, SymmetryReduction: true, MaxStates: fleetBudget}))

	out := fleetResult{Apps: len(ps)}
	mapSpan = tr.begin("mapping.first_fit", parent, op)
	ff, err := mapping.FirstFitCached(ps, vf, cache)
	tr.end(mapSpan)
	if err != nil {
		return out, err
	}
	out.FirstFit = ff.Slots
	if sample := dpSample(ps, archOf, arch); len(sample) >= 4 {
		mapSpan = tr.begin("mapping.first_fit", parent, op)
		ffS, err := mapping.FirstFitCached(sample, vf, cache)
		tr.end(mapSpan)
		if err != nil {
			return out, err
		}
		mapSpan = tr.begin("mapping.optimal", parent, op)
		dp, err := mapping.OptimalCached(sample, vf, cache)
		tr.end(mapSpan)
		if err != nil {
			return out, err
		}
		out.SampleFF, out.SampleOpt = ffS.Slots, dp.Slots
	}
	hits, misses, coalesced := cache.Stats()
	st.lookups += hits + misses + coalesced
	st.hits += hits
	return out, nil
}

// dpSample picks up to five instances of each of the two archetypes with
// the smallest T*w, the optimal partitioner's tractable sample in
// cmd/experiments.
func dpSample(ps []*switching.Profile, archOf []int, arch []*switching.Profile) []*switching.Profile {
	var live []int
	for d, p := range arch {
		if p != nil {
			live = append(live, d)
		}
	}
	sort.Slice(live, func(i, j int) bool { return arch[live[i]].TwStar < arch[live[j]].TwStar })
	if len(live) > 2 {
		live = live[:2]
	}
	var out []*switching.Profile
	for _, d := range live {
		picked := 0
		for i, inst := range ps {
			if picked < 5 && archOf[i] == d {
				out = append(out, inst)
				picked++
			}
		}
	}
	return out
}

// validPartition reports whether slots partition 0..n-1.
func validPartition(slots [][]int, n int) bool {
	seen := make([]bool, n)
	count := 0
	for _, s := range slots {
		for _, i := range s {
			if i < 0 || i >= n || seen[i] {
				return false
			}
			seen[i] = true
			count++
		}
	}
	return count == n
}

func runDimension(r *run) error {
	var apps []core.App
	setupS, err := timeSetup(func(bool) error {
		apps = core.CaseStudyApps()
		if len(apps) != 6 {
			return fmt.Errorf("case study has %d applications, want 6", len(apps))
		}
		// Warm the code an operation runs (CQLF search, profiling,
		// verification) on one application; the answers are discarded.
		a := apps[0]
		if _, err := control.SwitchingStable(a.Plant, a.KT, a.KE); err != nil {
			return fmt.Errorf("warming CQLF: %w", err)
		}
		p, err := core.Profile(a, switching.Config{})
		if err != nil {
			return fmt.Errorf("warming profiling: %w", err)
		}
		_, err = verify.Slot([]*switching.Profile{p}, verify.Config{NondetTies: true})
		return err
	})
	if err != nil {
		return err
	}
	r.set("setup_s", setupS, "s")

	var (
		ops, partA, partB []float64
		verifyA, selfA    []float64
		cqlf, compute     []float64
		calls             []float64
		total             fleetStats
		tracedFleets      int
		used              []fleet
		answers           []fleetResult
	)
	r.heapPeak.start()
	start := time.Now()
	for op := 0; op == 0 || time.Since(start) < r.seconds; op++ {
		f := fleet{seed: r.rng.Int63()}
		f.w = plants.Synthetic(plants.SyntheticOptions{N: fleetN, Seed: f.seed})
		tr := r.opTracer(op)

		// Part (a): the case study through the library facade.
		opts := core.Options{CheckSwitchingStability: true, Cache: mapping.NewCache()}
		var parent int
		var verifySecs float64
		if tr != nil {
			opts.AdmitFunc = func(ps []*switching.Profile) (bool, error) {
				id := tr.begin("verify.slot", parent, op)
				res, err := verify.Slot(ps, verify.Config{NondetTies: true, Policy: opts.Policy})
				verifySecs += tr.end(id).Seconds()
				return res.Schedulable, err
			}
		}
		rss := startRSSWindow()
		t0 := time.Now()
		parent = tr.begin("core.dimension", -1, op)
		alloc, err := (&core.Dimensioner{Apps: apps, Opts: opts}).Dimension()
		tr.end(parent)
		ta := time.Since(t0)
		if err != nil {
			r.check(false, "case study: %v", err)
		} else {
			r.check(reflect.DeepEqual(alloc.SlotNames(), caseStudySlots) && alloc.Verifications == 6,
				"case study: slots %v with %d verifications, want %v with 6", alloc.SlotNames(), alloc.Verifications, caseStudySlots)
		}

		// Part (b): the synthetic fleet, engine workers on auto.
		var st fleetStats
		t1 := time.Now()
		fid := tr.begin("bench.fleet", -1, op)
		res, err := runFleet(f, 0, tr, fid, op, &st)
		tr.end(fid)
		tb := time.Since(t1)
		r.endRSSWindow(rss)
		if err != nil {
			r.check(false, "fleet seed %d: %v", f.seed, err)
		} else {
			r.check(validPartition(res.FirstFit, res.Apps) && len(res.SampleOpt) <= len(res.SampleFF),
				"fleet seed %d: first-fit %v must partition %d applications, and optimal (%d slots) must not need more than first-fit (%d)",
				f.seed, res.FirstFit, res.Apps, len(res.SampleOpt), len(res.SampleFF))
		}
		used, answers = append(used, f), append(answers, res)

		d := ta + tb
		ops = append(ops, d.Seconds()*1000)
		partA, partB = append(partA, ta.Seconds()), append(partB, tb.Seconds())
		r.recordOp(op, d)
		if tr == nil {
			continue
		}
		verifyA = append(verifyA, verifySecs)
		selfA = append(selfA, ta.Seconds()-verifySecs)
		// Profiling and the CQLF check happen inside core.Dimension; a
		// serial probe of the same public calls attributes them.
		var cq, cs float64
		for _, a := range apps {
			id := tr.begin("control.cqlf", -1, op)
			if _, err := control.SwitchingStable(a.Plant, a.KT, a.KE); err != nil {
				r.check(false, "CQLF probe %s: %v", a.Name, err)
			}
			cq += tr.end(id).Seconds()
			id = tr.begin("switching.compute", -1, op)
			if _, err := core.Profile(a, switching.Config{}); err != nil {
				r.check(false, "profiling probe %s: %v", a.Name, err)
			}
			cs += tr.end(id).Seconds()
		}
		cqlf = append(cqlf, cq)
		compute = append(compute, cs)
		calls = append(calls, float64(len(apps)+len(f.w.Designs)))
		tracedFleets++
		total.checks += st.checks
		total.refuted += st.refuted
		total.budgetRejects += st.budgetRejects
		total.states += st.states
		total.bustedStates += st.bustedStates
		total.lookups += st.lookups
		total.hits += st.hits
		total.smallCallSecs = append(total.smallCallSecs, st.smallCallSecs...)
	}
	r.heapPeak.stopSampling()
	r.set("latency_ms", median(ops), "ms")
	r.info["ops"] = len(ops)
	r.info["op_ms"] = ops
	r.info["part_a_s"] = partA
	r.info["part_b_s"] = partB

	// The allocation must not depend on the engine's worker count: re-run
	// one seeded-random fleet of the timed phase serially.
	i := r.rng.Intn(len(used))
	var st fleetStats
	ref, err := runFleet(used[i], 1, nil, -1, -1, &st)
	r.check(err == nil && reflect.DeepEqual(ref, answers[i]),
		"fleet seed %d: allocation with auto workers differs from the Workers: 1 reference (%v)", used[i].seed, err)

	if !r.traced || tracedFleets == 0 {
		return nil
	}
	r.set("core.dimension_s", median(partA), "s")
	r.set("core.verify_s", median(verifyA), "s")
	r.set("mapping.fleet_s", median(partB), "s")
	r.set("control.cqlf_s", median(cqlf), "s")
	r.set("switching.compute_s", median(compute), "s")
	r.set("switching.calls", median(calls), "count")
	n := float64(tracedFleets)
	r.set("mapping.checks_run", float64(total.checks)/n, "count")
	r.set("mapping.budget_rejects", float64(total.budgetRejects)/n, "count")
	if total.checks > 0 {
		r.set("mapping.refuted_frac", float64(total.refuted)/float64(total.checks), "frac")
	}
	if total.states > 0 {
		r.set("mapping.wasted_state_frac", float64(total.bustedStates)/float64(total.states), "frac")
	}
	r.set("mapping.lookups", float64(total.lookups)/n, "count")
	if total.lookups > 0 {
		r.set("mapping.hit_frac", float64(total.hits)/float64(total.lookups), "frac")
	}
	r.set("mapping.self_s", r.tr.selfTimes()["mapping"]/n, "s")
	r.set("core.self_s", median(selfA), "s")
	r.set("verify.small_call_us", 1e6*median(total.smallCallSecs), "us")
	return nil
}
