package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"tightcps/internal/admit"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// The admit workload: open loop, Poisson arrivals at a fixed rate into a
// fresh admission service (local engine, Workers 2, Concurrency 1),
// called through its HTTP handler in process — one goroutine per
// in-flight request, no sockets — so requests queue inside the service.
// The seeded mix, as shares of requests: 70% repeats of 16 fixed named
// subsets, 25% fresh inline questions, 5% members of bursts of four
// identical fresh questions sent at the same instant.

const (
	// admitRate is the offered load in arrivals per second (a burst is
	// one arrival), about half the capacity measured for this mix on a
	// 2-CPU host (see README.md).
	admitRate = 50.0
	// admitLimit is the latency limit: an answer later than this, or a
	// failure, counts against goodput and as over the limit in percentiles.
	admitLimit = time.Second
	// lateBound marks a run invalid when the generator's p99 lateness
	// exceeds it: the schedule, not the service, would then set latency.
	lateBound  = 20 * time.Millisecond
	hotSubsets = 16
	spinWindow = 2 * time.Millisecond
	freshCheck = 8 // fresh answers re-verified after the timed phase
)

// Arrival shares giving a request mix of 70% hot, 25% fresh and 5% burst
// members (a burst arrival carries four requests).
const (
	freshArrival = 25 / 96.25
	burstArrival = 1.25 / 96.25
)

var caseStudyNames = []string{"C1", "C2", "C3", "C4", "C5", "C6"}

// caseStudySubsets lists every subset of 2–4 case-study applications.
func caseStudySubsets() [][]string {
	var out [][]string
	for mask := 0; mask < 1<<len(caseStudyNames); mask++ {
		var names []string
		for i, n := range caseStudyNames {
			if mask&(1<<i) != 0 {
				names = append(names, n)
			}
		}
		if len(names) >= 2 && len(names) <= 4 {
			out = append(out, names)
		}
	}
	return out
}

// hotSets is the fixed list of named subsets the hot traffic repeats: a
// seed-independent draw of 2–4 case-study applications.
func hotSets() [][]string {
	rng := rand.New(rand.NewSource(0x5eed))
	seen := map[string]bool{}
	var out [][]string
	for len(out) < hotSubsets {
		k := 2 + rng.Intn(3)
		idx := rng.Perm(len(caseStudyNames))[:k]
		sort.Ints(idx)
		var names []string
		for _, i := range idx {
			names = append(names, caseStudyNames[i])
		}
		if key := strings.Join(names, ","); !seen[key] {
			seen[key] = true
			out = append(out, names)
		}
	}
	return out
}

// admitReq is one scheduled request.
type admitReq struct {
	due   time.Duration // offset from the schedule start
	kind  string        // "hot", "fresh" or "burst"
	group int           // hot: subset index; fresh/burst: question index
	body  []byte
}

// admitResp is what the generator observed for one request.
type admitResp struct {
	latency  time.Duration // completion − due
	serve    time.Duration // completion − dispatch
	late     time.Duration // dispatch − due
	status   int
	resp     admit.AdmitResponse
	badParse bool
}

// freshQuestion is an inline question: a subset of the case study with
// every inter-arrival bound raised, so its fingerprint is new.
type freshQuestion struct {
	profiles []*switching.Profile
}

// admitSchedule draws the seeded request mix for seconds of arrivals at
// rate.
func admitSchedule(rng *rand.Rand, ps map[string]*switching.Profile, hot [][]string, rate float64, seconds time.Duration) ([]admitReq, []freshQuestion, error) {
	var reqs []admitReq
	var fresh []freshQuestion
	// Fresh questions are stratified: every block of fresh questions asks
	// about each 2–4-application subset once, in seeded order, because the
	// subset sets the cost (about 0.3ms to 0.6s) and a free draw would
	// make the engine's load differ from seed to seed.
	subsets := caseStudySubsets()
	var block []int
	seen := map[string]bool{}
	newFresh := func() ([]byte, int, error) {
		if len(block) == 0 {
			block = rng.Perm(len(subsets))
		}
		// Raised bounds give the set a fingerprint no hot subset shares;
		// redraw until no earlier fresh question shares it either.
		var q freshQuestion
		for {
			q.profiles = q.profiles[:0]
			var key strings.Builder
			for _, n := range subsets[block[0]] {
				p := ps[n].Clone(n)
				p.R += 1 + rng.Intn(6)
				q.profiles = append(q.profiles, p)
				fmt.Fprintf(&key, "%s+%d,", n, p.R)
			}
			if !seen[key.String()] {
				seen[key.String()] = true
				break
			}
		}
		block = block[1:]
		var req admit.AdmitRequest
		for _, p := range q.profiles {
			req.Profiles = append(req.Profiles, admit.ProfileJSONOf(p))
		}
		body, err := json.Marshal(&req)
		fresh = append(fresh, q)
		return body, len(fresh) - 1, err
	}
	hotBodies := make([][]byte, len(hot))
	for i, names := range hot {
		b, err := json.Marshal(&admit.AdmitRequest{Apps: names})
		if err != nil {
			return nil, nil, err
		}
		hotBodies[i] = b
	}
	// A fixed number of arrivals at uniformly drawn times (a Poisson
	// process conditioned on its count) with exact kind counts: the seed
	// moves when questions arrive and which are asked, not how much
	// engine work a run offers.
	n := int(rate*seconds.Seconds() + 0.5)
	dues := make([]float64, n)
	for i := range dues {
		dues[i] = rng.Float64() * seconds.Seconds()
	}
	sort.Float64s(dues)
	kinds := make([]string, n)
	// Fresh questions come in whole blocks of every subset.
	nBurst := int(float64(n)*burstArrival + 0.5)
	per := len(caseStudySubsets())
	nFresh := (int(float64(n)*(freshArrival+burstArrival))+per/2)/per*per - nBurst
	for i := range kinds {
		switch {
		case i < nFresh:
			kinds[i] = "fresh"
		case i < nFresh+nBurst:
			kinds[i] = "burst"
		default:
			kinds[i] = "hot"
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	for i, t := range dues {
		due := time.Duration(t * float64(time.Second))
		switch kinds[i] {
		case "hot":
			g := rng.Intn(len(hot))
			reqs = append(reqs, admitReq{due: due, kind: "hot", group: g, body: hotBodies[g]})
		case "fresh":
			body, q, err := newFresh()
			if err != nil {
				return nil, nil, err
			}
			reqs = append(reqs, admitReq{due: due, kind: "fresh", group: q, body: body})
		default:
			body, q, err := newFresh()
			if err != nil {
				return nil, nil, err
			}
			for j := 0; j < 4; j++ {
				reqs = append(reqs, admitReq{due: due, kind: "burst", group: q, body: body})
			}
		}
	}
	return reqs, fresh, nil
}

// serve sends one request through the handler and records the outcome.
func serve(h http.Handler, body []byte) (int, admit.AdmitResponse, bool) {
	req := httptest.NewRequest(http.MethodPost, "/v1/admit", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var resp admit.AdmitResponse
	err := json.Unmarshal(rec.Body.Bytes(), &resp)
	return rec.Code, resp, err != nil
}

// playSchedule runs the open loop: one dispatcher sleeps to each due time
// and starts a goroutine per request. It returns once every request has
// completed.
func playSchedule(h http.Handler, reqs []admitReq, tracerOf func(int) *tracer) []admitResp {
	out := make([]admitResp, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		// Sleep to just short of the due time, then yield until it
		// arrives: timer wake-ups alone run up to a millisecond late,
		// which would swamp the ~0.1ms hot answers.
		if d := reqs[i].due - time.Since(start) - spinWindow; d > 0 {
			time.Sleep(d)
		}
		for time.Since(start) < reqs[i].due {
			runtime.Gosched()
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t := tracerOf(i)
			dispatch := time.Since(start)
			id := t.begin("admit.handler", -1, i)
			status, resp, bad := serve(h, reqs[i].body)
			t.end(id)
			done := time.Since(start)
			out[i] = admitResp{latency: done - reqs[i].due, serve: done - dispatch, late: dispatch - reqs[i].due,
				status: status, resp: resp, badParse: bad}
		}(i)
	}
	wg.Wait()
	return out
}

func runAdmit(r *run) error {
	var (
		ps   map[string]*switching.Profile
		svc  *admit.Service
		hot  = hotSets()
		reqs []admitReq
		qs   []freshQuestion
	)
	setupS, err := timeSetup(func(last bool) error {
		var err error
		if ps, err = caseStudyProfiles(caseStudyNames...); err != nil {
			return err
		}
		if svc != nil {
			svc.Drain()
		}
		resolve := func(names []string) ([]*switching.Profile, error) {
			out := make([]*switching.Profile, len(names))
			for i, n := range names {
				if out[i] = ps[n]; out[i] == nil {
					return nil, fmt.Errorf("unknown application %q", n)
				}
			}
			return out, nil
		}
		svc = admit.New(admit.Options{Workers: 2, Concurrency: 1, Profiles: resolve})
		rng := rand.New(rand.NewSource(r.seed))
		reqs, qs, err = admitSchedule(rng, ps, hot, admitRate, r.seconds)
		return err
	})
	if err != nil {
		return err
	}
	defer svc.Drain()
	r.set("setup_s", setupS, "s")
	r.info["requests"] = len(reqs)
	r.info["rate"] = admitRate

	r.heapPeak.start()
	rss := startRSSWindow()
	res := playSchedule(svc.Handler(), reqs, r.opTracer)
	r.endRSSWindow(rss)
	r.heapPeak.stopSampling()
	stats := svc.ServiceStats()

	// Latency from the scheduled send time; a failure counts as over the
	// limit.
	var lat, late, hotServe, coldServe []float64
	good := 0
	for i, x := range res {
		ok := x.status == http.StatusOK && !x.badParse && x.resp.Verdict != nil
		l := x.latency.Seconds() * 1000
		if !ok {
			l = max(l, 2*float64(admitLimit.Milliseconds()))
		} else if x.latency <= admitLimit {
			good++
		}
		lat = append(lat, l)
		late = append(late, x.late.Seconds()*1000)
		if ok && x.resp.Cached {
			hotServe = append(hotServe, x.serve.Seconds()*1e6)
		} else if ok && !x.resp.Coalesced {
			coldServe = append(coldServe, x.serve.Seconds()*1000)
		}
		if r.traced {
			r.recordOp(i, x.serve)
		}
	}
	// The gated latency is the 99th percentile: the median sits on the
	// boundary between cached answers and answers that waited for the
	// engine, so it jumps with small changes in utilization.
	r.set("latency_ms", quantile(lat, 0.99), "ms")
	r.info["latency_p50_p90_p95_p98_p99_ms"] = []float64{quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.95), quantile(lat, 0.98), quantile(lat, 0.99)}
	r.set("admit.p50_ms", quantile(lat, 0.50), "ms")
	r.set("admit.p99_ms", quantile(lat, 0.99), "ms")
	r.set("admit.goodput_rps", float64(good)/r.seconds.Seconds(), "1/s")
	lateP99 := quantile(late, 0.99)
	r.set("loadgen.late_p99_ms", lateP99, "ms")
	r.info["valid"] = lateP99 <= float64(lateBound.Milliseconds())
	if lateP99 > float64(lateBound.Milliseconds()) {
		fmt.Printf("# INVALID: generator p99 lateness %.1fms exceeds %v\n", lateP99, lateBound)
	}
	r.set("admit.hot_us", median(hotServe), "us")
	r.set("admit.cold_ms", median(coldServe), "ms")
	if stats.Submitted > 0 {
		r.set("admit.hit_frac", float64(stats.CacheHits)/float64(stats.Submitted), "frac")
		r.set("admit.coalesce_frac", float64(stats.Coalesced)/float64(stats.Submitted), "frac")
	}
	r.set("admit.backend_runs", float64(stats.Verifications), "count")
	r.set("admit.refused", float64(stats.Refused), "count")
	if stats.QueueWait != nil {
		r.set("admit.queue_wait_mean_ms", stats.QueueWait.MeanMs, "ms")
	}
	if stats.BackendRun != nil {
		r.set("admit.backend_run_mean_ms", stats.BackendRun.MeanMs, "ms")
	}

	// Answers: hot ones against a reference verification of each subset,
	// burst members against each other, and a seeded sample of fresh ones
	// re-verified from scratch.
	refCfg := verify.Config{NondetTies: true, Workers: 2}
	hotRef := make([]*admit.Verdict, len(hot))
	freshRef := map[int]*admit.Verdict{}
	for _, i := range rand.New(rand.NewSource(r.seed + 1)).Perm(len(qs))[:min(freshCheck, len(qs))] {
		freshRef[i] = nil
	}
	reference := func(profiles []*switching.Profile, names []string) *admit.Verdict {
		res, err := verify.Slot(profiles, refCfg)
		if err != nil {
			return nil
		}
		v := admit.VerdictOf(res, names)
		return &v
	}
	burstFirst := map[int]admit.Verdict{}
	for i, x := range res {
		q := reqs[i]
		v := x.resp.Verdict
		if x.status != http.StatusOK || v == nil {
			r.check(false, "request %d (%s): status %d: %s", i, q.kind, x.status, x.resp.Error)
			continue
		}
		switch q.kind {
		case "hot":
			if hotRef[q.group] == nil {
				names := hot[q.group]
				hotRef[q.group] = reference(pick(ps, names...), names)
			}
			ref := hotRef[q.group]
			r.check(ref != nil && *ref == *v, "hot %v: verdict %+v, reference %+v", hot[q.group], *v, ref)
		case "burst":
			if first, ok := burstFirst[q.group]; ok {
				r.check(first == *v, "burst %d: verdicts differ: %+v vs %+v", q.group, first, *v)
				continue
			}
			burstFirst[q.group] = *v
			fallthrough
		default:
			want, sampled := freshRef[q.group]
			if !sampled {
				r.check(true, "")
				continue
			}
			if want == nil {
				qp := qs[q.group].profiles
				names := make([]string, len(qp))
				for j, p := range qp {
					names[j] = p.Name
				}
				want = reference(qp, names)
				freshRef[q.group] = want
			}
			r.check(want != nil && *want == *v, "fresh question %d: verdict %+v, reference %+v", q.group, *v, want)
		}
	}
	return nil
}
