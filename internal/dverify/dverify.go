// Package dverify distributes the slot-sharing verification of
// internal/verify across worker nodes: the packed state space is
// partitioned by hash — each node owns a contiguous range of the 64 hash
// shards — and every node expands its own frontier through the shared
// expansion core, routing successor states to their owners.
//
// One driver, the worker mesh, runs every distributed search and keeps the
// coordinator out of the data path: workers hold one direct link per peer
// — in-process channels on a loopback cluster, dial-out TCP connections
// negotiated at job setup for verifyd fleets — and ship level-tagged
// successor batches straight to their shard owners while the coordinator
// runs a thin control plane (session setup, epoch accounting, violation
// short-circuit, fault recovery, result aggregation). Levels are
// pipelined: a worker expands level L+1 states as they arrive while peers
// still drain level L, with termination detected from cluster-wide
// states-sent vs states-absorbed counts per epoch (see mesh.go for the
// exactness invariants).
//
// TCP links are bandwidth-engineered: every node suppresses states it
// provably already routed to a destination (a fixed-size per-destination
// recent-state filter — misses are safe, owners dedup on absorb) and
// encodes each batch with a versioned codec (sorted varint-delta, DEFLATE
// when it helps, fixed-width fallback; see proto.go). Loopback links hand
// decoded batches over in memory and skip both. Wire-volume counters,
// with per-link breakdowns, flow back into verify.Result.Wire.
//
// Both packed encodings flow through the same driver, so narrow and wide
// slots verify with bit-identical semantics to the local searches: the
// verdict always matches, exhaustively-searched (schedulable) runs report
// the same state/transition/depth counts, and a violating run reports
// the same minimal violator as the local parallel search (minimum
// violating packed state of the first violating level).
//
// Coordinator communication goes through the Transport interface. Two
// implementations exist: Loopback (in-process channel workers, for tests
// and single-machine multi-worker runs) and the TCP/gob client returned
// by Dial, served by the cmd/verifyd worker daemon. A transport wrapping
// one of these (fault injection, instrumentation) joins the mesh by
// exposing it through an Unwrap() Transport method: control calls go
// through the wrapper, data links come from the transport underneath.
// Config.MaxStates is a per-node budget in distributed runs — it models
// per-node memory — so a cluster of k nodes verifies slots up to k times
// larger than one node admits.
package dverify

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// defaultMaxStates mirrors the local verifier's per-run state cap; in the
// distributed search it applies per node.
const defaultMaxStates = 200_000_000

// maxNodes is the cluster-size cap: nodes own contiguous ranges of the 64
// hash shards, so more nodes than shards cannot all receive work.
const maxNodes = 64

// Transport is one coordinator↔worker link carrying the request/response
// protocol of proto.go. Calls are strictly sequential per transport (the
// coordinator never has two outstanding requests to one node). A failed
// Call poisons the run — the protocol state of the cluster is undefined —
// but a new Verify over the same transports recovers, because KindInit
// resets every node.
type Transport interface {
	Call(*Request) (*Response, error)
	Close() error
}

// Verify runs the distributed reachability analysis for the profiles over
// the given worker nodes. The configuration is interpreted exactly like
// verify.Slot's, except that Workers is the per-node expansion pool size
// (0 lets each node use its own GOMAXPROCS, so an N-node cluster of
// M-core hosts searches N×M-wide; 1 keeps nodes serial), MaxStates is a
// per-node budget, and Trace is rejected. The nodes must form one mesh:
// all workers of a single Loopback cluster, or all TCP workers (either
// possibly behind Unwrap-capable wrappers).
func Verify(profiles []*switching.Profile, cfg verify.Config, nodes []Transport) (verify.Result, error) {
	return verifyWithFaults(profiles, cfg, nodes, nil)
}

// verifyWithFaults is Verify with a deterministic fault-injection plan
// attached (nil for production runs): the plan's kills fire at exact
// tracker milestones and its spares are adopted as replacement workers
// during recovery. The fault-matrix tests drive every recovery path
// through this entry.
func verifyWithFaults(profiles []*switching.Profile, cfg verify.Config, nodes []Transport, plan *faultPlan) (verify.Result, error) {
	if len(nodes) < 1 || len(nodes) > maxNodes {
		return verify.Result{}, fmt.Errorf("dverify: %d nodes (want 1..%d)", len(nodes), maxNodes)
	}
	if cfg.Trace {
		return verify.Result{}, errors.New("dverify: tracing is local-only; re-run the slot without Distributed for a counterexample")
	}
	// Validate profiles and config (encoding limits, symmetry/trace
	// conflicts) before shipping the job anywhere.
	cfg.Distributed = nil
	if _, err := verify.New(profiles, cfg); err != nil {
		return verify.Result{}, err
	}

	job := Job{
		Proto:             protoVersion,
		Profiles:          make([]switching.Profile, len(profiles)),
		NumNodes:          len(nodes),
		MaxDisturbances:   cfg.MaxDisturbances,
		Policy:            cfg.Policy,
		NondetTies:        cfg.NondetTies,
		SymmetryReduction: cfg.SymmetryReduction,
		MaxStates:         cfg.MaxStates,
		Workers:           cfg.Workers,
		RunID:             cfg.RunID,
		FT:                cfg.FaultTolerance,
		CheckpointDir:     cfg.CheckpointDir,
	}
	for i, p := range profiles {
		job.Profiles[i] = *p
	}
	if job.MaxStates <= 0 {
		job.MaxStates = defaultMaxStates
	}

	peers, ok := meshPeers(nodes)
	if !ok {
		return verify.Result{}, errors.New("dverify: these transports cannot form a worker mesh (one loopback cluster or TCP workers are required)")
	}
	// The run trace is coordinator-side: the driver folds per-level and
	// per-node spans in; verify.Run finishes it (verdict, wire, slot).
	cfg.RunTrace.SetBackend("mesh", len(nodes), cfg.Workers)
	return verifyMesh(job, nodes, peers, cfg.RunTrace, plan)
}

// meshPeers reports whether the cluster's transports can carry direct
// worker↔worker links, returning the peer address table for TCP clusters
// (nil for loopback, whose links are in-process channels). A mesh needs
// every transport to be a loopback worker of one group, or a TCP
// connection whose dialed address peers can also reach. Wrappers are
// looked through via their Unwrap method.
func meshPeers(nodes []Transport) (peers []string, ok bool) {
	var g *loopGroup
	var addrs []string
	for _, t := range nodes {
		for {
			w, wrapped := t.(interface{ Unwrap() Transport })
			if !wrapped {
				break
			}
			t = w.Unwrap()
		}
		switch tt := t.(type) {
		case *loopTransport:
			if addrs != nil {
				return nil, false
			}
			if g == nil {
				g = tt.group
			} else if g != tt.group {
				return nil, false
			}
		case *tcpTransport:
			if g != nil {
				return nil, false
			}
			addrs = append(addrs, tt.addr)
		default:
			return nil, false
		}
	}
	return addrs, true
}

// Runner adapts a worker set to the verify.Config.Distributed hook. The
// returned function serialises concurrent calls — the transports carry one
// protocol session at a time.
func Runner(nodes []Transport) func([]*switching.Profile, verify.Config) (verify.Result, error) {
	var mu sync.Mutex
	return func(profiles []*switching.Profile, cfg verify.Config) (verify.Result, error) {
		mu.Lock()
		defer mu.Unlock()
		return Verify(profiles, cfg, nodes)
	}
}

// Cluster materializes the -nodes/-connect CLI convention the verifying
// commands share: nodes > 0 starts that many in-process loopback workers,
// a non-empty connect dials the comma-separated verifyd addresses. Exactly
// one may be set; with neither, Cluster returns a nil slice (local
// verification). desc is a banner line describing the cluster. The caller
// owns the transports (defer Close).
func Cluster(nodes int, connect string) (ts []Transport, desc string, err error) {
	return ClusterRetry(nodes, connect, 1, 0, nil)
}

// ClusterRetry is Cluster with a bounded startup retry on the -connect
// dial: each worker address is attempted up to attempts times with
// exponential backoff starting at backoff (see DialRetry), so a fleet can
// come up in any order. logf, when non-nil, receives one line per failed
// attempt. attempts ≤ 1 dials once; loopback clusters never retry (there
// is nothing to wait for).
func ClusterRetry(nodes int, connect string, attempts int, backoff time.Duration, logf func(format string, args ...any)) (ts []Transport, desc string, err error) {
	switch {
	case nodes < 0:
		return nil, "", fmt.Errorf("-nodes must be ≥ 0, got %d", nodes)
	case nodes > 0 && connect != "":
		return nil, "", errors.New("-nodes and -connect are mutually exclusive (one cluster per run)")
	case connect != "":
		addrs := strings.Split(connect, ",")
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
		}
		ts, err := DialRetry(addrs, 0, attempts, backoff, logf)
		if err != nil {
			return nil, "", err
		}
		return ts, fmt.Sprintf("distributed verification: %d TCP workers (%s)", len(ts), strings.Join(addrs, ", ")), nil
	case nodes > 0:
		return Loopback(nodes), fmt.Sprintf("distributed verification: %d loopback workers", nodes), nil
	}
	return nil, "", nil
}

// Close closes every transport, returning the first error.
func Close(nodes []Transport) error {
	var first error
	for _, t := range nodes {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
