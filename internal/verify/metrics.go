package verify

// Engine telemetry. The registry handles live at package level — one
// registration at init, lock-free atomic updates after — and every update
// sits at run or level granularity, never per state: the expansion core's
// zero-allocation contract (alloc_test.go) and the ~80 allocs/op S1 gate
// hold with telemetry enabled because the hot loop is untouched.

import (
	"fmt"
	"sync"

	"tightcps/internal/obs"
)

var (
	obsRuns = obs.NewCounter("tightcps_verify_runs_total",
		"Completed verification runs (coordinator side: local searches and distributed runs both count once).")
	obsStates = obs.NewCounter("tightcps_verify_states_total",
		"States visited across completed verification runs.")
	obsTransitions = obs.NewCounter("tightcps_verify_transitions_total",
		"Transitions generated across completed verification runs.")
	obsLevels = obs.NewCounter("tightcps_verify_levels_total",
		"BFS levels expanded by local search drivers.")
	obsViolations = obs.NewCounter("tightcps_verify_violations_total",
		"Completed runs whose verdict was a deadline violation.")
	obsErrors = obs.NewCounter("tightcps_verify_errors_total",
		"Verification runs that ended in an error (budget exhaustion, encoding limits, backend failures).")
	obsActive = obs.NewGauge("tightcps_verify_active_runs",
		"Verification runs currently executing.")
	obsSetCASRetries = obs.NewCounter("tightcps_verify_set_cas_retries_total",
		"Lost CAS claims in the lock-free visited sets (lanes racing for the same slot).")
	obsSetProbeSteps = obs.NewCounter("tightcps_verify_set_probe_steps_total",
		"Open-addressing probe steps beyond the home slot in the lock-free visited sets.")
	obsSetOverflows = obs.NewCounter("tightcps_verify_set_overflow_keys_total",
		"Keys parked in a stripe's overflow map because a probe window saturated.")
	obsSteals = obs.NewCounter("tightcps_verify_lane_steals_total",
		"Frontier chunks claimed from a foreign lane's partition by the work-stealing queues.")
	obsProbeLen = obs.NewHistogram("tightcps_verify_set_probe_len",
		"Mean probe steps per visited-set add, observed once per run.",
		[]float64{0.01, 0.05, 0.1, 0.25, 0.5, 1, 2, 4, 8})
)

// ContentionStats is the cumulative contention ledger of the lock-free
// visited sets and work-stealing queues, as folded into the obs counters at
// run teardown. The bench harness snapshots it around a measured run to
// report per-run deltas in BENCH_verify.json's lane_scaling rows.
type ContentionStats struct {
	CASRetries uint64
	ProbeSteps uint64
	Overflows  uint64
	Steals     uint64
}

// Contention returns the process-wide cumulative contention counters.
func Contention() ContentionStats {
	return ContentionStats{
		CASRetries: obsSetCASRetries.Value(),
		ProbeSteps: obsSetProbeSteps.Value(),
		Overflows:  obsSetOverflows.Value(),
		Steals:     obsSteals.Value(),
	}
}

// flushContention folds one run's visited-set ledger and steal count into
// the obs counters — called at run teardown, never per state or per level.
func flushContention(set SetStats, adds int64, steals int64) {
	if set.Probes > 0 {
		obsSetProbeSteps.Add(uint64(set.Probes))
	}
	if set.Retries > 0 {
		obsSetCASRetries.Add(uint64(set.Retries))
	}
	if set.Overflows > 0 {
		obsSetOverflows.Add(uint64(set.Overflows))
	}
	if steals > 0 {
		obsSteals.Add(uint64(steals))
	}
	if adds > 0 {
		obsProbeLen.Observe(float64(set.Probes) / float64(adds))
	}
}

// FlushContention is flushContention for the distributed workers: they own
// standing visited sets and work queues, so they fold ledger *deltas* into
// the obs counters at session teardown.
func FlushContention(set SetStats, adds int64, steals int64) {
	flushContention(set, adds, steals)
}

// linkCounters are the labeled wire-volume handles of one directed mesh
// link. They are cached in wireCounters below because the registry lookup
// renders labels (and allocates) on every call: a 4-node mesh has 12
// directed links, and re-registering them per run made the mesh's per-op
// allocations grow with cluster size — exactly what the bench alloc-trend
// gate exists to catch. With the cache, repeat runs on a standing cluster
// touch only a map read and two atomics per link.
type linkCounters struct {
	bytes  *obs.Counter
	states *obs.Counter
}

var (
	linkMu     sync.Mutex
	linkSeries = map[uint64]linkCounters{}
)

// wireCounters finds (or registers once) the counter handles for the
// from→to link.
func wireCounters(from, to int) linkCounters {
	key := uint64(uint32(from))<<32 | uint64(uint32(to))
	linkMu.Lock()
	defer linkMu.Unlock()
	c, ok := linkSeries[key]
	if !ok {
		lbl := fmt.Sprintf("%d->%d", from, to)
		c = linkCounters{
			bytes: obs.NewCounter("tightcps_verify_wire_bytes_total",
				"Bytes shipped over each directed worker-to-worker mesh link (coordinator view).",
				"link", lbl),
			states: obs.NewCounter("tightcps_verify_wire_states_total",
				"States shipped over each directed worker-to-worker mesh link (coordinator view).",
				"link", lbl),
		}
		linkSeries[key] = c
	}
	return c
}

// recordRun folds one completed run into the engine metrics and finishes
// the run trace, if one rides the config. Runs once per Run call — the
// only allocations (first-sighting link registration, trace finalization)
// are per-run and only on distributed/traced runs.
func (v *Verifier) recordRun(res Result, err error) {
	if err != nil {
		obsErrors.Inc()
		return
	}
	obsRuns.Inc()
	obsStates.Add(uint64(res.States))
	obsTransitions.Add(uint64(res.Transitions))
	if !res.Schedulable {
		obsViolations.Inc()
	}
	for _, l := range res.Wire.Links {
		c := wireCounters(l.From, l.To)
		c.bytes.Add(uint64(l.Bytes))
		c.states.Add(uint64(l.States))
	}
	tr := v.cfg.RunTrace
	if tr == nil {
		return
	}
	tr.SetWire(res.Wire.RoutedStates, res.Wire.FilteredStates, res.Wire.RawBytes, res.Wire.WireBytes)
	for _, l := range res.Wire.Links {
		tr.AddLink(l.From, l.To, l.States, l.Bytes)
	}
	names := make([]string, len(v.profs))
	for i, p := range v.profs {
		names[i] = p.Name
	}
	violator := ""
	if !res.Schedulable && res.Violator >= 0 && res.Violator < len(names) {
		violator = names[res.Violator]
	}
	tr.SetSlot(names, violator)
	tr.SetResult(res.Schedulable, res.States, res.Transitions, res.Depth)
}
