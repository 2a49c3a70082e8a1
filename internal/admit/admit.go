// Package admit is the admission service front door: a long-running
// HTTP/JSON control plane over the dimensioning engine, the config-salted
// persistent admission cache (internal/mapping) and an optionally attached
// distributed verification cluster (internal/dverify).
//
// The paper's dimensioning loop is an admission decision — "does this
// profile set fit the slot?" — and this package serves it: POST /v1/admit
// submits a profile set plus a slot configuration and returns the verdict
// with its search statistics (states, depth, minimal violator);
// GET /v1/jobs/{id} polls an asynchronous submit; /healthz and /statsz
// expose liveness and counters.
//
// Three service-level disciplines sit between the HTTP surface and the
// engine:
//
//   - Coalescing. Concurrent submits whose profile sets are
//     fingerprint-equal (any permutation of the same profiles, under the
//     same verdict-relevant config) collapse into ONE backend
//     verification: the first becomes the leader, the rest park as
//     waiters and share the leader's full verdict. This lifts the
//     in-process singleflight of mapping.Cache to the service boundary,
//     where a fleet of clients asking the same hot question costs one
//     search no matter the fan-in.
//
//   - Bounded queue with per-request budgets. Leaders pass through a
//     bounded queue drained by a fixed worker pool; a full queue refuses
//     with 503 + Retry-After instead of building unbounded backlog. Every
//     request carries an optional wall-clock budget (timeoutMs) and a
//     state budget (config.maxStates, clamped by the server): a waiter
//     whose budget expires gets 504 while the leader keeps running and
//     populates the cache for the retry.
//
//   - Drain. Drain (wired to SIGTERM by cmd/verifyd) refuses new submits
//     with 503 + Retry-After while in-flight verdicts run to completion,
//     then checkpoints the persistent cache — so a fleet of admission
//     daemons rolls without dropping or corrupting a verdict. A second
//     signal forces exit (DrainOnSignal).
//
// Verdicts are cached at two levels: an in-memory full-verdict map
// (states/depth/violator included) serving repeat submits instantly, and
// the persistent mapping.Cache sharded by fingerprint prefix
// (Cache.SaveDir) holding the admission bit across restarts. A warm-start
// hit answers schedulable/not from disk without search counts; the
// response marks it "warm" so clients can re-verify if they need the
// statistics. Verification errors are never cached — a failed backend run
// poisons nothing.
package admit

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tightcps/internal/mapping"
	"tightcps/internal/obs"
	"tightcps/internal/plants"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// VerifyBackend runs one slot-sharing verification. The service's backend
// is dverify.Runner over an attached cluster, or the local engine when
// nil. Backends are invoked from the service's worker pool, at most
// Options.Concurrency at a time.
type VerifyBackend func(profiles []*switching.Profile, cfg verify.Config) (verify.Result, error)

// Options configures a Service.
type Options struct {
	// Backend verifies admission questions; nil uses the in-process
	// engine (verify.Slot).
	Backend VerifyBackend
	// BackendNodes is the attached cluster's size. It salts cache keys —
	// MaxStates is a per-node budget in distributed runs, so aggregate
	// capacity (and budget-capped verdicts) depends on it — and is
	// reported by /statsz.
	BackendNodes int
	// BackendDesc names the backend in /statsz ("local engine" when "").
	BackendDesc string
	// QueueDepth bounds the leader queue (default 64). A full queue
	// refuses submits with 503 + Retry-After.
	QueueDepth int
	// Concurrency is the worker-pool size draining the queue (default 1:
	// a distributed backend serializes its cluster sessions anyway, and
	// the local engine already parallelizes inside one search).
	Concurrency int
	// Workers is the per-search (per-node, when distributed) expansion
	// pool size passed to the engine. 0 uses GOMAXPROCS. Values below 2
	// are raised to 2: the parallel driver's minimum-state violator rule
	// is what keeps verdicts identical across backends, so the service
	// never runs the sequential driver's insertion-order tie-break.
	Workers int
	// MaxStates clamps per-request state budgets (0 = engine default
	// only). Requests asking for more are capped, not refused.
	MaxStates int
	// DefaultTimeout is the per-request wall budget when the request does
	// not set one (0 = wait for the verdict).
	DefaultTimeout time.Duration
	// CacheDir, when non-empty, persists admission bits across restarts:
	// one shard directory per verification config under this root,
	// written incrementally by Checkpoint/Drain.
	CacheDir string
	// Checkpoint is the periodic checkpoint interval for a hot service
	// (default 30s when CacheDir is set).
	Checkpoint time.Duration
	// RetryAttempts is the number of times a failed backend verification
	// is retried before the failure is reported (0 = no retries, the
	// default). Only transient cluster faults are retried — budget
	// (ErrTooLarge) and encoding errors are deterministic properties of
	// the request and never retry; see retryable.
	RetryAttempts int
	// RetryBackoff is the base delay before the first retry; successive
	// retries double it (with jitter, capped at 5s). 0 = 100ms.
	RetryBackoff time.Duration
	// BreakerThreshold opens the backend circuit after this many
	// consecutive failed verifications (retries exhausted); while open,
	// submits skip the cluster entirely — served locally when
	// LocalFallback is set, refused with 503 + Retry-After otherwise.
	// 0 (the default) disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long the circuit stays open (0 = 30s). The
	// first submit after the cooldown probes the cluster again.
	BreakerCooldown time.Duration
	// LocalFallback serves verdicts from the in-process engine when the
	// cluster is unavailable (retries exhausted, or breaker open) instead
	// of returning 502. Off by default: the local engine's MaxStates is a
	// per-process budget, so a budget-capped question can get a
	// different (still sound) ErrTooLarge boundary than the cluster.
	LocalFallback bool
	// Profiles resolves named applications ("apps" in a request) to
	// profiles; nil uses the paper's case study (plants.ProfileList).
	Profiles func(names []string) ([]*switching.Profile, error)
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

// record is one completed admission question: the full verdict, or the
// error that ended it. Error records are never stored in the result map.
type record struct {
	verdict Verdict
	runID   string // telemetry run ID of the verification that produced it
	warm    bool   // admission bit from the persistent cache, no search counts
	err     error
	status  int // HTTP status classifying err
}

// call is one in-flight admission question. The leader owns the slot in
// Service.inflight; waiters block on done and share rec.
type call struct {
	key      uint64
	cfgKey   uint64
	runID    string // minted at enqueue — the admission boundary
	profiles []*switching.Profile
	names    []string
	cfg      verify.Config
	enqueued time.Time
	deadline time.Time // leader's budget; zero = none
	done     chan struct{}
	rec      *record
}

// job is one asynchronous submit, holding the (possibly shared) call.
type job struct {
	id string
	c  *call
}

// Service is the admission front door. Create with New, serve its
// Handler, Drain before exit.
type Service struct {
	opts  Options
	start time.Time

	mu       sync.Mutex
	caches   map[uint64]*mapping.Cache // persistent bit caches, per config salt
	results  map[uint64]*record        // full verdicts, per service key
	lat      map[uint64]*obs.Histogram // admission latency, per config salt
	inflight map[uint64]*call
	jobs     map[string]*job
	jobOrder []string
	jobSeq   int
	queue    chan *call
	draining bool
	stats    Stats

	// Circuit-breaker state (under mu): consecutive backend failures and
	// the instant until which the circuit stays open.
	breakerFails int
	breakerUntil time.Time

	workers   sync.WaitGroup
	drainOnce sync.Once
	drained   chan struct{}
	stopCk    chan struct{}
}

// maxJobs caps the async-job table; the oldest completed jobs are evicted
// beyond it.
const maxJobs = 1024

// New starts a Service: the worker pool begins draining the queue
// immediately, and the checkpoint loop runs when persistence is on.
func New(opts Options) *Service {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 1
	}
	if opts.Checkpoint <= 0 {
		opts.Checkpoint = 30 * time.Second
	}
	if opts.Profiles == nil {
		opts.Profiles = func(names []string) ([]*switching.Profile, error) {
			return plants.ProfileList(names...)
		}
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	s := &Service{
		opts:     opts,
		start:    time.Now(),
		caches:   map[uint64]*mapping.Cache{},
		results:  map[uint64]*record{},
		lat:      map[uint64]*obs.Histogram{},
		inflight: map[uint64]*call{},
		jobs:     map[string]*job{},
		queue:    make(chan *call, opts.QueueDepth),
		drained:  make(chan struct{}),
		stopCk:   make(chan struct{}),
	}
	// Function gauges read the live service at scrape time; re-registering
	// rebinds the series, so the newest Service in a process (tests start
	// several) is the one exposed.
	obs.NewGaugeFunc("tightcps_admit_queue_depth",
		"Leader calls waiting in the bounded queue.",
		func() float64 { return float64(len(s.queue)) })
	obs.NewGaugeFunc("tightcps_admit_inflight",
		"Admission questions currently holding an in-flight verification.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.inflight))
		})
	for i := 0; i < opts.Concurrency; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	if opts.CacheDir != "" {
		go s.checkpointLoop()
	}
	return s
}

// resolved is a parsed, validated admission question.
type resolved struct {
	profiles []*switching.Profile
	names    []string
	cfg      verify.Config
	cfgKey   uint64
	key      uint64
	deadline time.Time
}

// resolve parses and validates a request into the canonical question:
// profiles, effective config, and the service key every coalescing and
// caching decision hangs on. Errors report the HTTP status to return.
func (s *Service) resolve(req *AdmitRequest) (*resolved, int, error) {
	var profiles []*switching.Profile
	var names []string
	switch {
	case len(req.Profiles) > 0 && len(req.Apps) > 0:
		return nil, http.StatusBadRequest, errors.New("request carries both inline profiles and named apps; send one")
	case len(req.Profiles) > 0:
		profiles = make([]*switching.Profile, len(req.Profiles))
		names = make([]string, len(req.Profiles))
		for i, pj := range req.Profiles {
			p, err := pj.profile(i)
			if err != nil {
				return nil, http.StatusBadRequest, err
			}
			profiles[i] = p
			names[i] = p.Name
		}
	case len(req.Apps) > 0:
		ps, err := s.opts.Profiles(req.Apps)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		profiles, names = ps, req.Apps
	default:
		return nil, http.StatusBadRequest, errors.New("request names no profiles (send \"profiles\" or \"apps\")")
	}

	cfg, err := req.Config.Config(profiles)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if s.opts.MaxStates > 0 && (cfg.MaxStates <= 0 || cfg.MaxStates > s.opts.MaxStates) {
		cfg.MaxStates = s.opts.MaxStates
	}
	cfg.Workers = s.opts.Workers
	if cfg.Workers < 2 {
		// The parallel driver's minimum-violating-state rule makes the
		// reported violator identical across worker counts and cluster
		// sizes; the sequential driver's insertion-order
		// tie-break does not. A service answer must not depend on the
		// box it ran on, so Workers ≥ 2 always.
		cfg.Workers = 2
	}
	if _, err := verify.New(profiles, cfg); err != nil {
		return nil, http.StatusBadRequest, err
	}

	// The config salt covers every verdict-relevant knob plus the cluster
	// size (per-node budgets scale aggregate capacity); the service key
	// folds in the order-independent profile-set fingerprint. Symmetry
	// reduction is salted in too — mapping.VerifyConfigKey excludes it
	// because it never flips the admission bit, but the service serves
	// full verdicts whose state/depth counts the quotient does change.
	var extra []uint64
	if s.opts.Backend != nil && s.opts.BackendNodes > 0 {
		extra = append(extra, uint64(s.opts.BackendNodes))
	}
	if cfg.SymmetryReduction {
		extra = append(extra, 0xa11ce5)
	}
	cfgKey := mapping.VerifyConfigKey(cfg, extra...)
	key := mapping.VerifyConfigKey(cfg, append(extra, mapping.Fingerprint(profiles))...)

	rq := &resolved{profiles: profiles, names: names, cfg: cfg, cfgKey: cfgKey, key: key}
	if req.TimeoutMs > 0 {
		rq.deadline = time.Now().Add(time.Duration(req.TimeoutMs) * time.Millisecond)
	} else if s.opts.DefaultTimeout > 0 {
		rq.deadline = time.Now().Add(s.opts.DefaultTimeout)
	}
	return rq, 0, nil
}

// Admit answers one admission question synchronously, returning the
// response and its HTTP status. Identical concurrent questions coalesce
// onto one backend verification.
func (s *Service) Admit(req *AdmitRequest) (*AdmitResponse, int) {
	t0 := time.Now()
	rq, status, err := s.resolve(req)
	if err != nil {
		s.countError()
		return &AdmitResponse{Error: err.Error()}, status
	}
	c, state, status := s.lookup(rq)
	switch state {
	case lookupCached:
		s.observeLatency(rq.cfgKey, t0)
		v := c.rec.verdict
		return &AdmitResponse{Verdict: &v, Cached: true, Warm: c.rec.warm, RunID: c.rec.runID, ElapsedMs: msSince(t0)}, http.StatusOK
	case lookupRefused:
		return &AdmitResponse{Error: refusalText(status, s.Draining())}, status
	}
	resp, status := s.wait(c, rq.deadline, state == lookupCoalesced, t0)
	s.observeLatency(rq.cfgKey, t0)
	return resp, status
}

type lookupState int

const (
	lookupLeader lookupState = iota
	lookupCoalesced
	lookupCached
	lookupRefused
)

// lookup resolves the question against the result map, the in-flight
// table and the queue, under one lock acquisition: a cached record, an
// existing call to coalesce onto, a freshly enqueued leader call, or a
// refusal (draining / queue full). For cached results the returned call
// carries only rec.
func (s *Service) lookup(rq *resolved) (*call, lookupState, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Submitted++
	obsSubmissions.Inc()
	if rec, ok := s.results[rq.key]; ok {
		s.stats.CacheHits++
		return &call{rec: rec}, lookupCached, http.StatusOK
	}
	if c, ok := s.inflight[rq.key]; ok {
		s.stats.Coalesced++
		return c, lookupCoalesced, http.StatusOK
	}
	if s.draining {
		s.stats.Refused++
		return nil, lookupRefused, http.StatusServiceUnavailable
	}
	c := &call{
		key: rq.key, cfgKey: rq.cfgKey,
		runID:    obs.NewRunID(),
		profiles: rq.profiles, names: rq.names, cfg: rq.cfg,
		enqueued: time.Now(),
		deadline: rq.deadline, done: make(chan struct{}),
	}
	select {
	case s.queue <- c:
	default:
		s.stats.Refused++
		return nil, lookupRefused, http.StatusServiceUnavailable
	}
	s.inflight[rq.key] = c
	return c, lookupLeader, http.StatusOK
}

func refusalText(status int, draining bool) string {
	if draining {
		return "service is draining; retry against another instance"
	}
	return "request queue is full; retry"
}

// wait parks on the call until the verdict lands or the caller's budget
// expires. A timed-out waiter does not cancel the leader — the search
// completes and populates the cache, so the retry is free.
func (s *Service) wait(c *call, deadline time.Time, coalesced bool, t0 time.Time) (*AdmitResponse, int) {
	var timeout <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-c.done:
	case <-timeout:
		s.countError()
		return &AdmitResponse{
			Error:     "deadline exceeded while the verification runs; retry for the cached verdict",
			ElapsedMs: msSince(t0),
		}, http.StatusGatewayTimeout
	}
	rec := c.rec
	if rec.err != nil {
		return &AdmitResponse{Error: rec.err.Error(), RunID: rec.runID, ElapsedMs: msSince(t0)}, rec.status
	}
	v := rec.verdict
	return &AdmitResponse{Verdict: &v, Coalesced: coalesced, Warm: rec.warm, RunID: rec.runID, ElapsedMs: msSince(t0)}, http.StatusOK
}

// submitAsync registers the question as a pollable job. Async submits
// coalesce with sync ones — the job may share its call.
func (s *Service) submitAsync(req *AdmitRequest) (*AdmitResponse, int) {
	rq, status, err := s.resolve(req)
	if err != nil {
		s.countError()
		return &AdmitResponse{Error: err.Error()}, status
	}
	c, state, status := s.lookup(rq)
	if state == lookupRefused {
		return &AdmitResponse{Error: refusalText(status, s.Draining())}, status
	}
	if state == lookupCached {
		// Completed on arrival: fabricate a done call so the job is
		// immediately pollable.
		done := make(chan struct{})
		close(done)
		c = &call{rec: c.rec, done: done}
	}
	s.mu.Lock()
	s.jobSeq++
	j := &job{id: fmt.Sprintf("j%d", s.jobSeq), c: c}
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	s.pruneJobsLocked()
	s.mu.Unlock()
	return &AdmitResponse{Job: j.id, Status: "pending"}, http.StatusAccepted
}

// pruneJobsLocked evicts the oldest completed jobs beyond maxJobs.
func (s *Service) pruneJobsLocked() {
	for len(s.jobs) > maxJobs {
		evicted := false
		for i, id := range s.jobOrder {
			j, ok := s.jobs[id]
			if !ok {
				continue
			}
			select {
			case <-j.c.done:
				delete(s.jobs, id)
				s.jobOrder = append(s.jobOrder[:i:i], s.jobOrder[i+1:]...)
				evicted = true
			default:
				continue
			}
			break
		}
		if !evicted {
			return // everything pending; let the table run hot
		}
	}
}

// jobStatus reports an async job's state without blocking.
func (s *Service) jobStatus(id string) (*AdmitResponse, int) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return &AdmitResponse{Error: "unknown job " + id}, http.StatusNotFound
	}
	select {
	case <-j.c.done:
		rec := j.c.rec
		if rec.err != nil {
			return &AdmitResponse{Job: id, Status: "error", Error: rec.err.Error(), RunID: rec.runID}, rec.status
		}
		v := rec.verdict
		return &AdmitResponse{Job: id, Status: "done", Verdict: &v, Warm: rec.warm, RunID: rec.runID}, http.StatusOK
	default:
		return &AdmitResponse{Job: id, Status: "pending"}, http.StatusOK
	}
}

// worker drains the leader queue until Drain closes it.
func (s *Service) worker() {
	defer s.workers.Done()
	for c := range s.queue {
		s.run(c)
	}
}

// run executes one leader call: through the persistent cache's
// singleflight into the backend, then publishes the record and wakes the
// waiters. Errors are published but never cached.
func (s *Service) run(c *call) {
	obsQueueWait.Observe(time.Since(c.enqueued).Seconds())
	rec := &record{runID: c.runID}
	if !c.deadline.IsZero() && time.Now().After(c.deadline) {
		rec.err = errors.New("request budget exhausted while queued")
		rec.status = http.StatusServiceUnavailable
	} else {
		cache := s.cacheFor(c.cfgKey)
		ran := false
		var res verify.Result
		ok, err := cache.Do(c.profiles, func(ps []*switching.Profile) (bool, error) {
			ran = true
			s.mu.Lock()
			s.stats.Verifications++
			s.mu.Unlock()
			cfg := c.cfg
			cfg.RunID = c.runID
			t := time.Now()
			var verr error
			res, verr = s.verify(ps, cfg)
			obsBackendRun.Observe(time.Since(t).Seconds())
			return res.Schedulable, verr
		})
		switch {
		case err != nil:
			rec.err = err
			rec.status = s.statusOf(err)
		case ran:
			rec.verdict = VerdictOf(res, c.names)
		default:
			// Persistent warm-start hit: the admission bit without search
			// counts. The response marks it so a client needing the
			// statistics can ask for a fresh search (distinct MaxStates ⇒
			// distinct key) or accept the bit.
			rec.verdict = Verdict{Schedulable: ok, Violator: -1, Bounded: c.cfg.MaxDisturbances > 0}
			rec.warm = true
			s.mu.Lock()
			s.stats.WarmHits++
			s.mu.Unlock()
		}
	}

	s.mu.Lock()
	delete(s.inflight, c.key)
	if rec.err == nil {
		s.results[c.key] = rec
	} else {
		s.stats.Errors++
	}
	s.mu.Unlock()
	c.rec = rec
	close(c.done)
}

// statusOf classifies a verification error: budget and encoding problems
// are the request's fault; an open circuit is a 503 (with Retry-After —
// the cooldown will pass); anything else from an attached cluster is a
// bad gateway (a crashed worker, a broken mesh link — the error names the
// node).
func (s *Service) statusOf(err error) int {
	switch {
	case errors.Is(err, verify.ErrTooLarge):
		return http.StatusUnprocessableEntity
	case errors.Is(err, verify.ErrEncoding):
		return http.StatusBadRequest
	case errors.Is(err, errBreakerOpen):
		return http.StatusServiceUnavailable
	case s.opts.Backend != nil:
		return http.StatusBadGateway
	default:
		return http.StatusInternalServerError
	}
}

func (s *Service) countError() {
	s.mu.Lock()
	s.stats.Errors++
	s.mu.Unlock()
}

// cacheFor returns (creating and warm-loading on first use) the
// persistent bit cache for one config salt.
func (s *Service) cacheFor(cfgKey uint64) *mapping.Cache {
	s.mu.Lock()
	if c, ok := s.caches[cfgKey]; ok {
		s.mu.Unlock()
		return c
	}
	c := mapping.NewCacheFor(cfgKey)
	s.caches[cfgKey] = c
	s.mu.Unlock()
	if s.opts.CacheDir != "" {
		// A bad shard is skipped, not fatal: the healthy shards still
		// warm-start, and the damage is logged for the operator.
		n, err := c.LoadDir(s.cacheSubdir(cfgKey))
		if err != nil {
			s.opts.Logf("admit: unreadable cache shards for cfg %016x skipped: %v", cfgKey, err)
		}
		if n > 0 {
			s.opts.Logf("admit: warm start: %d verdicts from %d shards (cfg %016x)", c.Len(), n, cfgKey)
		}
	}
	return c
}

func (s *Service) cacheSubdir(cfgKey uint64) string {
	return filepath.Join(s.opts.CacheDir, fmt.Sprintf("cfg-%016x", cfgKey))
}

// Checkpoint incrementally persists every config's dirty cache shards,
// returning the number of shard files rewritten.
func (s *Service) Checkpoint() (int, error) {
	if s.opts.CacheDir == "" {
		return 0, nil
	}
	s.mu.Lock()
	keys := make([]uint64, 0, len(s.caches))
	for k := range s.caches {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	total := 0
	var first error
	for _, k := range keys {
		s.mu.Lock()
		c := s.caches[k]
		s.mu.Unlock()
		n, err := c.SaveDir(s.cacheSubdir(k))
		total += n
		if err != nil && first == nil {
			first = err
		}
	}
	return total, first
}

func (s *Service) checkpointLoop() {
	t := time.NewTicker(s.opts.Checkpoint)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if n, err := s.Checkpoint(); err != nil {
				s.opts.Logf("admit: checkpoint: %v", err)
			} else if n > 0 {
				s.opts.Logf("admit: checkpointed %d cache shard(s)", n)
			}
		case <-s.stopCk:
			return
		}
	}
}

// Drain refuses new submits (503 + Retry-After), lets in-flight verdicts
// run to completion, checkpoints the persistent cache, and returns.
// Idempotent; concurrent callers all block until the drain completes.
func (s *Service) Drain() {
	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()
		close(s.stopCk)
		// No submit can enqueue after draining=true was published under
		// the lock, and every earlier enqueue completed before we took
		// it, so closing the intake here is race-free.
		close(s.queue)
		s.workers.Wait()
		if _, err := s.Checkpoint(); err != nil {
			s.opts.Logf("admit: final checkpoint: %v", err)
		}
		close(s.drained)
		s.opts.Logf("admit: drained")
	})
	<-s.drained
}

// Draining reports whether the service is refusing new submits.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drained reports whether every in-flight verdict has completed and the
// final checkpoint is on disk.
func (s *Service) Drained() bool {
	select {
	case <-s.drained:
		return true
	default:
		return false
	}
}

// DrainOnSignal implements the fleet drain discipline on a signal stream
// (bpm-style: first signal drains, second forces): the first delivery
// starts Drain in the background, a second calls force — the caller's
// immediate-exit path. Runs in its own goroutine; returns immediately.
func (s *Service) DrainOnSignal(sigs <-chan os.Signal, force func()) {
	go func() {
		<-sigs
		s.opts.Logf("admit: draining on signal (signal again to force exit)")
		go s.Drain()
		<-sigs
		force()
	}()
}

// Stats are the /statsz counters.
type Stats struct {
	UptimeSec     float64 `json:"uptimeSec"`
	Backend       string  `json:"backend"`
	BackendNodes  int     `json:"backendNodes,omitempty"`
	Submitted     int     `json:"submitted"`
	Verifications int     `json:"verifications"`
	Coalesced     int     `json:"coalesced"`
	CacheHits     int     `json:"cacheHits"`
	WarmHits      int     `json:"warmHits"`
	Refused       int     `json:"refused"`
	Errors        int     `json:"errors"`
	// Backend resilience counters (zero unless the retry policy, breaker
	// or local fallback are configured).
	Retries        int  `json:"retries,omitempty"`
	BreakerTrips   int  `json:"breakerTrips,omitempty"`
	LocalFallbacks int  `json:"localFallbacks,omitempty"`
	QueueDepth     int  `json:"queueDepth"`
	Inflight       int  `json:"inflight"`
	Jobs           int  `json:"jobs"`
	Verdicts       int  `json:"verdicts"`           // full in-memory verdicts
	PersistentLen  int  `json:"persistentVerdicts"` // admission bits across configs
	Draining       bool `json:"draining"`
	// Latency summaries; the full bucketed histograms live in /metricsz.
	QueueWait  *TimingStats           `json:"queueWait,omitempty"`
	BackendRun *TimingStats           `json:"backendRun,omitempty"`
	Latency    map[string]TimingStats `json:"admitLatency,omitempty"` // per config salt
}

// ServiceStats snapshots the counters.
func (s *Service) ServiceStats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.UptimeSec = time.Since(s.start).Seconds()
	st.Backend = s.opts.BackendDesc
	if st.Backend == "" {
		st.Backend = "local engine"
	}
	st.BackendNodes = s.opts.BackendNodes
	st.QueueDepth = len(s.queue)
	st.Inflight = len(s.inflight)
	st.Jobs = len(s.jobs)
	st.Verdicts = len(s.results)
	for _, c := range s.caches {
		st.PersistentLen += c.Len()
	}
	st.Draining = s.draining
	st.QueueWait = timingOf(obsQueueWait)
	st.BackendRun = timingOf(obsBackendRun)
	for k, h := range s.lat {
		if t := timingOf(h); t != nil {
			if st.Latency == nil {
				st.Latency = map[string]TimingStats{}
			}
			st.Latency[fmt.Sprintf("%016x", k)] = *t
		}
	}
	return st
}

func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0).Microseconds()) / 1000
}
