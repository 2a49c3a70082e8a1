package main

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"time"

	"tightcps/internal/dverify"
	"tightcps/internal/plants"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// The verify workload: closed loop, one caller. Each operation verifies
// the slot set {S1, W10, V5} once on each of four backends and checks
// every verdict against the pinned references below.

// slotCase is one member of the verify workload's slot set with its
// pinned answer.
type slotCase struct {
	name     string
	profiles []*switching.Profile
	symmetry bool
	// schedulable sets pin states and depth; violating ones pin depth and
	// the minimal violator's name.
	schedulable bool
	states      int
	depth       int
	violator    string
}

// backend is one verification path of the verify workload.
type backend struct {
	name    string
	layer   string // module that owns the path: "verify" or "dverify"
	workers int
	dist    func([]*switching.Profile, verify.Config) (verify.Result, error)
}

// caseStudyProfiles profiles the named case-study applications with the
// default switching configuration — the computation plants.Profiles
// caches, redone here so that every set-up pays for it.
func caseStudyProfiles(names ...string) (map[string]*switching.Profile, error) {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]*switching.Profile{}
	for _, a := range plants.CaseStudy() {
		if !want[a.Name] {
			continue
		}
		p, err := switching.Compute(plants.SwitchingPlant(a), switching.Config{})
		if err != nil {
			return nil, fmt.Errorf("profiling %s: %w", a.Name, err)
		}
		out[a.Name] = p
	}
	if len(out) != len(want) {
		return nil, fmt.Errorf("case study lacks some of %v", names)
	}
	return out, nil
}

func pick(m map[string]*switching.Profile, names ...string) []*switching.Profile {
	out := make([]*switching.Profile, len(names))
	for i, n := range names {
		out[i] = m[n]
	}
	return out
}

// fleetProfiles builds n identical profiles with constant dwell windows,
// the fleet shape cmd/bench measures.
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

// tcpCluster is two in-process verifyd worker servers on 127.0.0.1 and
// the transports dialed to them.
type tcpCluster struct {
	servers []*dverify.Server
	serving sync.WaitGroup
	ts      []dverify.Transport
}

func startTCPCluster(n int) (*tcpCluster, error) {
	c := &tcpCluster{}
	var addrs []string
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		s := dverify.NewServer(l, nil)
		c.servers = append(c.servers, s)
		addrs = append(addrs, l.Addr().String())
		c.serving.Add(1)
		go func() {
			defer c.serving.Done()
			_ = s.Serve() // returns nil after Shutdown
		}()
	}
	ts, err := dverify.Dial(addrs, 5*time.Second)
	if err != nil {
		c.close()
		return nil, err
	}
	c.ts = ts
	return c, nil
}

// close hangs up, drains the servers and waits for them to exit.
func (c *tcpCluster) close() {
	if c.ts != nil {
		dverify.Close(c.ts)
	}
	for _, s := range c.servers {
		s.Shutdown()
	}
	c.serving.Wait()
}

// verifyCheck compares one result with the pinned reference.
func (r *run) verifyCheck(sc slotCase, b backend, res verify.Result, err error) {
	switch {
	case err != nil:
		r.check(false, "%s on %s: %v", sc.name, b.name, err)
	case sc.schedulable:
		r.check(res.Schedulable && res.States == sc.states && res.Depth == sc.depth,
			"%s on %s: schedulable=%v states=%d depth=%d, want schedulable states=%d depth=%d",
			sc.name, b.name, res.Schedulable, res.States, res.Depth, sc.states, sc.depth)
	default:
		got := ""
		if res.Violator >= 0 && res.Violator < len(sc.profiles) {
			got = sc.profiles[res.Violator].Name
		}
		r.check(!res.Schedulable && res.Depth == sc.depth && got == sc.violator,
			"%s on %s: schedulable=%v depth=%d violator=%q, want violation at depth %d by %s",
			sc.name, b.name, res.Schedulable, res.Depth, got, sc.depth, sc.violator)
	}
}

func runVerify(r *run) error {
	var (
		slots    []slotCase
		backends []backend
		mesh     []dverify.Transport
		tcp      *tcpCluster
		clusterS []float64
	)
	teardown := func() {
		if mesh != nil {
			dverify.Close(mesh)
			mesh = nil
		}
		if tcp != nil {
			tcp.close()
			tcp = nil
		}
	}
	defer teardown()
	setupS, err := timeSetup(func(last bool) error {
		teardown()
		ps, err := caseStudyProfiles("C1", "C2", "C3", "C4", "C5")
		if err != nil {
			return err
		}
		slots = []slotCase{
			{name: "S1", profiles: pick(ps, "C1", "C5", "C4", "C3"), schedulable: true, states: 1440712, depth: 50},
			{name: "W10", profiles: fleetProfiles(10, 9, 1, 2, 10), symmetry: true, schedulable: true, states: 189618, depth: 11},
			{name: "V5", profiles: pick(ps, "C1", "C2", "C3", "C4", "C5"), depth: 13, violator: "C5"},
		}
		t0 := time.Now()
		mesh = dverify.Loopback(2)
		if tcp, err = startTCPCluster(2); err != nil {
			return err
		}
		clusterS = append(clusterS, time.Since(t0).Seconds())
		backends = []backend{
			{name: "seq", layer: "verify", workers: 1},
			{name: "auto", layer: "verify", workers: 0},
			{name: "mesh", layer: "dverify", workers: 1, dist: dverify.Runner(mesh)},
			{name: "tcp", layer: "dverify", workers: 1, dist: dverify.Runner(tcp.ts)},
		}
		// Warm every path (code, cluster sessions, lane crews) on the
		// cheap violating slot; answers are never cached across calls.
		for _, b := range backends {
			if _, err := verify.Slot(slots[2].profiles, verify.Config{NondetTies: true, Workers: b.workers, Distributed: b.dist}); err != nil {
				return fmt.Errorf("warming %s: %w", b.name, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("setup_s", setupS, "s")
	r.set("dverify.cluster_setup_s", median(clusterS), "s")

	type key struct{ slot, backend string }
	durs := map[key][]float64{}
	allocs := map[key][]float64{}
	states := map[key]int{}
	setTimes := map[string][]float64{}
	var wire verify.WireStats
	var tracedRounds int
	var autoStates int
	var contention verify.ContentionStats
	var ops []float64

	r.heapPeak.start()
	start := time.Now()
	for op := 0; op == 0 || time.Since(start) < r.seconds; op++ {
		tr := r.opTracer(op)
		rss := startRSSWindow()
		t0 := time.Now()
		root := tr.begin("bench.round", -1, op)
		for _, b := range backends {
			bt := time.Now()
			for _, sc := range slots {
				cfg := verify.Config{NondetTies: true, Workers: b.workers, SymmetryReduction: sc.symmetry, Distributed: b.dist}
				var ms0 runtime.MemStats
				if tr != nil && b.dist == nil {
					runtime.ReadMemStats(&ms0)
				}
				var c0 verify.ContentionStats
				if tr != nil && b.name == "auto" {
					c0 = verify.Contention()
				}
				id := tr.begin(b.layer+".slot", root, op)
				res, err := verify.Slot(sc.profiles, cfg)
				d := tr.end(id)
				r.verifyCheck(sc, b, res, err)
				if tr == nil {
					continue
				}
				k := key{sc.name, b.name}
				durs[k] = append(durs[k], d.Seconds())
				states[k] = res.States
				if b.dist == nil {
					var ms1 runtime.MemStats
					runtime.ReadMemStats(&ms1)
					allocs[k] = append(allocs[k], float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(max(res.States, 1)))
				}
				if b.name == "auto" {
					c1 := verify.Contention()
					autoStates += res.States
					contention.CASRetries += c1.CASRetries - c0.CASRetries
					contention.ProbeSteps += c1.ProbeSteps - c0.ProbeSteps
					contention.Steals += c1.Steals - c0.Steals
				}
				if b.name == "tcp" && sc.schedulable {
					wire.Add(res.Wire)
				}
			}
			if tr != nil {
				setTimes[b.name] = append(setTimes[b.name], time.Since(bt).Seconds())
			}
		}
		if tr != nil {
			tracedRounds++
		}
		tr.end(root)
		d := time.Since(t0)
		r.endRSSWindow(rss)
		ops = append(ops, d.Seconds()*1000)
		r.recordOp(op, d)
	}
	r.heapPeak.stopSampling()
	r.set("latency_ms", median(ops), "ms")
	r.info["ops"] = len(ops)
	r.info["op_ms"] = ops
	if tracedRounds == 0 {
		return nil
	}
	for _, b := range backends {
		r.set(b.layer+"."+b.name+".set_s", median(setTimes[b.name]), "s")
		for _, sc := range slots {
			k := key{sc.name, b.name}
			prefix := b.layer + "." + strings.ToLower(sc.name) + "." + b.name
			if sc.schedulable {
				r.set(prefix+".states_per_s", float64(states[k])/median(durs[k]), "1/s")
				if b.dist == nil {
					r.set(prefix+".alloc_bytes_per_state", median(allocs[k]), "B")
				}
			} else {
				r.set(prefix+".ms", 1000*median(durs[k]), "ms")
			}
		}
	}
	if autoStates > 0 {
		r.set("verify.auto.cas_retries_per_state", float64(contention.CASRetries)/float64(autoStates), "count")
		r.set("verify.auto.probe_steps_per_state", float64(contention.ProbeSteps)/float64(autoStates), "count")
		r.set("verify.auto.steals", float64(contention.Steals)/float64(tracedRounds), "count")
	}
	if wire.RawBytes > 0 {
		r.set("dverify.tcp.wire_bytes", float64(wire.WireBytes)/float64(tracedRounds), "B")
		r.set("dverify.tcp.raw_bytes", float64(wire.RawBytes)/float64(tracedRounds), "B")
		r.set("dverify.tcp.saved_frac", 1-float64(wire.WireBytes)/float64(wire.RawBytes), "frac")
		r.set("dverify.tcp.filtered_frac", float64(wire.FilteredStates)/float64(wire.FilteredStates+wire.RoutedStates), "frac")
	}
	return nil
}
