// Command perfbench is the repository benchmark: three seeded workloads,
// each run in its own process, that load different layers of the
// dimensioning stack and check every answer against pinned references.
//
//	perfbench --workload dimension|verify|admit --seed N --seconds S --trace 0|1
//
// Run it through run.py, which builds this module and keeps every build
// and run artifact under .bench_build/. With --trace 0 the last line of
// standard output is a JSON object holding the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics, taken from spans the benchmark
// records around its own calls into each module's public functions.
// README.md in this directory documents the workloads, the metrics and
// which metric each layer should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

const (
	// defaultSeed is the seed for routine runs; heldOutSeed is reserved
	// for checking a performance claim on inputs its author did not tune
	// against.
	defaultSeed = 1
	heldOutSeed = 7919
	// setupReps is how often each workload sets up; setup_s is the median.
	setupReps = 3
)

// endToEnd and perLayer name, in order, the metrics of an untraced and a
// traced run. Every workload reports every name; a layer a workload does
// not load reports 0 work.
var endToEnd = []string{"setup_s", "latency_ms", "max_rss_mb"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is the state of one benchmark process.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	rng      *rand.Rand
	tr       *tracer // non-nil in traced runs

	attempted, failed int
	mismatches        []string

	metrics map[string]metric
	info    map[string]any // extra facts written to the run record

	opTraced, opPlain []float64 // traced runs: op wall times, split by tracing state
	opRSS             []float64 // peak RSS of each operation, MiB
	heapPeak          heapSampler
}

func (r *run) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// check counts one answered operation, recording a mismatch when ok is
// false.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.mismatches) < 20 {
			r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
		}
	}
}

// opTracer returns the tracer for operation op: traced runs alternate
// traced and untraced operations so that trace.overhead_frac compares the
// two within one process.
func (r *run) opTracer(op int) *tracer {
	if r.tr == nil || op%2 == 0 {
		return nil
	}
	return r.tr
}

// recordOp files an operation's wall time under its tracing state.
func (r *run) recordOp(op int, d time.Duration) {
	if r.opTracer(op) != nil {
		r.opTraced = append(r.opTraced, d.Seconds())
	} else {
		r.opPlain = append(r.opPlain, d.Seconds())
	}
}

// timeSetup runs setup setupReps times and returns the median wall time.
// Every repetition but the last is torn down again; the last one's state
// is what the timed phase uses.
func timeSetup(setup func(last bool) error) (float64, error) {
	var ds []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := setup(i == setupReps-1); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}

var workloads = map[string]func(*run) error{
	"dimension": runDimension,
	"verify":    runVerify,
	"admit":     runAdmit,
}

func main() {
	workload := flag.String("workload", "", "workload to run: dimension, verify or admit")
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("input seed (default %d; %d is held out for claim checks)", defaultSeed, heldOutSeed))
	seconds := flag.Int("seconds", 25, "measured phase length in seconds")
	traceOn := flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload dimension|verify|admit --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *traceOn == 1, rng: rand.New(rand.NewSource(*seed)),
		metrics: map[string]metric{}, info: map[string]any{},
	}
	if r.traced {
		r.tr = newTracer()
	}
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	if len(r.opRSS) > 0 {
		r.set("max_rss_mb", median(r.opRSS), "MB")
	} else {
		r.set("max_rss_mb", maxRSSMB(), "MB")
	}
	r.set("gc.pause_ms", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6, "ms")
	r.set("heap.peak_mb", r.heapPeak.peakMB(), "MB")
	if r.traced {
		r.set("trace.overhead_frac", ratioMinusOne(median(r.opTraced), median(r.opPlain)), "frac")
	}
	os.Exit(r.report())
}

// ratioMinusOne is a/b − 1, or 0 when either side has no samples.
func ratioMinusOne(a, b float64) float64 {
	if a == 0 || b == 0 {
		return 0
	}
	return a/b - 1
}

// report prints the human-readable record, writes it (and the spans) under
// PERFBENCH_OUT, and prints the JSON result line. It returns the exit code.
func (r *run) report() int {
	names := endToEnd
	if r.traced {
		names = perLayer
	}
	out := map[string]metric{}
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok {
			m = metric{0, layerUnits[n]}
		}
		out[n] = m
	}
	env := map[string]any{
		"workload": r.workload, "seed": r.seed, "seconds": r.seconds.Seconds(), "traced": r.traced,
		"gomaxprocs": runtime.GOMAXPROCS(0), "num_cpu": runtime.NumCPU(), "go": runtime.Version(),
		"commit": os.Getenv("PERFBENCH_COMMIT"),
	}
	for k, v := range r.info {
		env[k] = v
	}
	all := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		all = append(all, n)
	}
	sort.Strings(all)
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# %s=%v\n", k, env[k])
	}
	for _, n := range all {
		fmt.Printf("%-40s %14.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	for _, m := range r.mismatches {
		fmt.Printf("MISMATCH %s\n", m)
	}
	if dir := os.Getenv("PERFBENCH_OUT"); dir != "" {
		if err := r.writeRecord(dir, env); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing run record:", err)
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.failed == 0 && r.attempted > 0, "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// writeRecord stores the run record, and the spans of a traced run, under
// dir/runs.
func (r *run) writeRecord(dir string, env map[string]any) error {
	base := filepath.Join(dir, "runs", fmt.Sprintf("%s-seed%d-trace%t", r.workload, r.seed, r.traced))
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return err
	}
	rec, err := json.MarshalIndent(map[string]any{"env": env, "metrics": r.metrics, "mismatches": r.mismatches}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", rec, 0o644); err != nil {
		return err
	}
	if r.tr != nil {
		return r.tr.write(base + ".spans.json")
	}
	return nil
}

// quantile is the nearest-rank q-quantile of xs (0 for none), without
// reordering xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.999999) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// median is the middle value of xs (mean of the two middle ones for an
// even count), without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// startRSSWindow resets the kernel's peak-RSS mark to the current RSS,
// so the next maxRSSMB reads the peak since this call. It reports false
// where the kernel cannot reset the mark.
func startRSSWindow() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// endRSSWindow records the peak RSS of a window opened by a successful
// startRSSWindow; without kernel support nothing is recorded and
// max_rss_mb falls back to the process peak.
func (r *run) endRSSWindow(started bool) {
	if started {
		r.opRSS = append(r.opRSS, maxRSSMB())
	}
}

// maxRSSMB is the peak resident set (VmHWM) in MiB: since process start,
// or since the last startRSSWindow.
func maxRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// heapSampler tracks the peak live heap while the measured phase runs.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

// start samples every 10ms until stopSampling.
func (h *heapSampler) start() {
	h.stop = make(chan struct{})
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
}

func (h *heapSampler) stopSampling() {
	if h.stop != nil {
		close(h.stop)
		h.done.Wait()
		h.stop = nil
	}
}

func (h *heapSampler) peakMB() float64 { return float64(h.peak) / (1 << 20) }
