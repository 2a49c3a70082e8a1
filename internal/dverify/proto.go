package dverify

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"tightcps/internal/sched"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// Wire protocol of the distributed search: the coordinator drives every
// worker node through a strict Init → Poll* request/response session, and
// workers stream Frames to each other over their mesh links. All types are
// plain data so the TCP transport can gob-encode them without
// registration; the loopback transport passes them by pointer.

// protoVersion guards the gob envelope. The batch codec's version byte
// covers only batch payloads; a field renamed on Request/Response would
// otherwise be dropped silently by gob in a mixed-version cluster (a stale
// verifyd daemon), corrupting the search with no error. KindInit therefore
// carries the coordinator's version in Job.Proto and the node echoes its
// own in Response.Proto, so either side rejects a mismatch loudly before
// any frontier is exchanged. Version 6 is the PR-9 fault-tolerance
// protocol (explicit shard-ownership tables, era-tagged mesh frames,
// checkpoint/recovery control: Job carries Owners/Era/Cut, KindPoll can
// carry a Recover order, snapshots report checkpoint progress and dead
// links); version 5 is the PR-8 protocol (telemetry: Job carries the run
// ID, mesh snapshots carry per-level fresh-commit counts); version 4 is
// the PR-6 protocol (per-node expansion worker pools: Job carries
// Workers); version 3 is the PR-5 protocol (worker↔worker mesh links,
// pipelined levels, poll/epoch control plane); version 2 is the PR-4
// relay protocol (per-source absorb batch lists, codec-framed); PR-3
// binaries predate the field and present as version 0. Version 7, the
// current one, is mesh-only: the coordinator relay's step/absorb requests
// and batch lists, the frontier-size echo and the job's topology flag are
// gone.
const protoVersion = 7

// Kind discriminates coordinator requests. Values are wire numbers: 2 and
// 3 belonged to the retired relay requests (protocol ≤ 6) and stay unused.
type Kind uint8

const (
	// KindInit ships the job to a node, resetting any previous one.
	KindInit Kind = 1
	// KindPoll is one control-plane epoch: the request
	// carries the coordinator's latest milestone knowledge (Control), the
	// worker expands and exchanges frontiers over its mesh links until it
	// has news for the coordinator (or a short time budget runs out) and
	// answers with a counter snapshot.
	KindPoll Kind = 4
	// KindPeerHello opens a worker↔worker mesh link: it is the first value
	// on a dialed peer connection (never sent on a coordinator session),
	// followed by a stream of Frame values.
	KindPeerHello Kind = 5
)

// Job describes one verification run from a single worker node's
// perspective. The verification fields mirror the verdict-relevant subset
// of verify.Config plus the per-node Workers pool size; Trace and
// Distributed are coordinator-side concerns and never cross the wire.
type Job struct {
	// Proto is the coordinator's protocol version (protoVersion); nodes
	// reject jobs from a different one.
	Proto int
	// Profiles is the application set under verification, by value so the
	// gob stream is self-contained.
	Profiles []switching.Profile
	// NumNodes and NodeID place this node in the cluster. Shard ownership
	// follows Owners when present; otherwise the node owns the default
	// contiguous range [NodeID·64/NumNodes, (NodeID+1)·64/NumNodes).
	NumNodes int
	NodeID   int
	// Owners, when non-nil, is the explicit shard-ownership table: entry s
	// names the node owning hash shard s (len 64). The coordinator rewrites
	// it on recovery so survivors take over a dead node's shards.
	Owners []uint8

	MaxDisturbances   int
	Policy            sched.PreemptionPolicy
	NondetTies        bool
	SymmetryReduction bool
	// MaxStates is the per-node visited budget (per-node memory model):
	// the aggregate capacity of a run is NumNodes × MaxStates.
	MaxStates int
	// Workers is the per-node expansion pool size: the node expands its
	// frontier through this many goroutines over a striped visited set,
	// so an N-node cluster of M-core hosts searches N×M-wide. 0 means
	// the node's own GOMAXPROCS; 1 keeps the single-goroutine path.
	Workers int

	// Session identifies this run's mesh rendezvous: peer links carry it
	// so a daemon serving several coordinators never cross-wires links.
	Session uint64
	// RunID is the telemetry correlation ID minted where the run entered
	// the system (admission service or CLI). Purely observational: it
	// never affects the search, and nodes only log it.
	RunID string
	// Peers are the advertised addresses of every node in the cluster,
	// indexed by node ID (nil for in-process loopback meshes, where links
	// are channels). Node i dials Peers[j] for every j ≠ i.
	Peers []string

	// FT enables fault tolerance: the worker checkpoints completed levels
	// (when CheckpointDir is set), tags mesh batches with its era, and
	// reports link failures instead of poisoning the run.
	FT bool
	// CheckpointDir is where the worker persists per-(shard,level)
	// checkpoint segments; empty disables checkpointing (recovery then
	// degrades to a full restart on the survivors).
	CheckpointDir string
	// Era and Cut accompany a recovery KindInit to a late-joining
	// replacement worker: Era > 0 means "join the run in progress" — the
	// worker restores its owned shards from checkpoint segments up to
	// level Cut instead of seeding the initial state.
	Era int
	Cut int
}

// Request is one coordinator→node message.
type Request struct {
	Kind Kind
	// Job accompanies KindInit.
	Job *Job
	// Ctl accompanies KindPoll.
	Ctl *Control
	// Hello accompanies KindPeerHello.
	Hello *PeerHello
}

// Control is the coordinator's milestone knowledge, piggybacked on every
// KindPoll so workers can release deferred commits and skip doomed work.
// See mesh.go for the invariants behind Final and Done.
type Control struct {
	// Final is the highest level whose bucket membership is final
	// everywhere: all messages tagged ≤ Final have been absorbed, so
	// arrivals tagged ≤ Final+1 may commit immediately.
	Final int
	// Done is the highest level fully expanded everywhere (informational;
	// workers gate commits on Final alone).
	Done int
	// HaveViol/ViolLevel/ViolState broadcast the minimum violation found
	// so far, letting workers skip states that cannot improve on it.
	HaveViol  bool
	ViolLevel int
	ViolState verify.PackedState
	// Finish ends the session's search: the worker tears down its mesh
	// links and answers with its final counter snapshot.
	Finish bool
	// Recover, when non-nil, orders the worker into a new era: roll back
	// to the recovery cut, adopt the new ownership table, restore owned
	// shards from checkpoint segments, and resume. Delivered on the first
	// KindPoll after the coordinator declares a worker dead.
	Recover *Recover
}

// Recover is the coordinator's takeover order after worker deaths. Every
// surviving worker performs the same global rollback: reset volatile
// search state, restore all shards it owns under Owners from checkpoint
// segments at levels ≤ Cut, and re-expand from level Cut. Cut < 0 means
// no usable checkpoint exists and the run restarts from the initial
// state.
type Recover struct {
	// Era is the new epoch of the run; batches tagged with older eras are
	// dropped on receipt.
	Era int
	// Owners is the new shard-ownership table (len 64).
	Owners []uint8
	// Cut is the highest checkpointed level consistent across the cluster.
	Cut int
	// Dead lists the node IDs declared dead this recovery (informational;
	// workers use Owners for routing).
	Dead []int
}

// PeerHello identifies a dialed worker↔worker mesh link.
type PeerHello struct {
	Proto    int
	Session  uint64
	From, To int
}

// Frame is one level-tagged frontier batch on a TCP mesh link, following
// the PeerHello on the same gob stream. Batch is frontierCodec-encoded.
// Era tags the sender's recovery era (0 before any recovery); receivers
// in a newer era drop the frame.
type Frame struct {
	Level int
	Era   int
	Batch []byte
}

// Response is one node→coordinator message. Err is the worker-side failure
// channel; when non-empty every other field is meaningless.
type Response struct {
	Err string

	// Proto echoes the node's protocol version on KindInit replies; the
	// coordinator rejects nodes speaking another version (a PR-3 verifyd
	// has no such field and presents as 0).
	Proto int

	// Snapshot fields (KindPoll responses; an Init reply carries Proto and
	// Fresh). All counters are cumulative over the session, so the
	// coordinator's latest round is always a complete picture.
	//
	// Transitions counts the successors generated (pre-dedup), mirroring
	// the local searches.
	Transitions int
	// Routed and Filtered count foreign successors: Routed were shipped
	// to their owners, Filtered were suppressed by the per-destination
	// recent-state filter (the owner has provably seen them). RawBytes is
	// the fixed-width (codecRaw) cost of all Routed+Filtered states and
	// WireBytes the bytes actually shipped, so the coordinator can report
	// what the filter and the compressed codec saved.
	Routed    int
	Filtered  int
	RawBytes  int
	WireBytes int
	// Fresh counts the states this node has added to its visited set
	// (including the initial state when it owns it).
	Fresh int
	// TooLarge reports that the per-node visited budget was exhausted; the
	// node stopped committing states.
	TooLarge bool

	// Viol flags a deadline miss; ViolLevel is the BFS level of the node's
	// minimum violation, ViolState its packed state (level-first, then
	// state — the first-violating-level tie-break across nodes) and
	// ViolApp the application that missed.
	Viol      bool
	ViolState verify.PackedState
	ViolApp   int
	ViolLevel int

	// SentByLevel and RecvByLevel count the states this node shipped to
	// and drained from its mesh links, indexed by the BFS level of the
	// states (self-owned successors never cross a link and are excluded
	// on both sides). The coordinator's epoch accounting declares a level
	// final when the cluster-wide sums match — the classic sent-vs-
	// absorbed termination criterion.
	SentByLevel []int
	RecvByLevel []int
	// Drained is the highest level L such that this node has expanded (or
	// deliberately skipped, under a violation bound) every state committed
	// to buckets 0..L. Capped at the node's final-level knowledge + 1.
	Drained int
	// Idle reports that the node has no expandable work, no deferred
	// arrivals and no buffered sends — quiescent under its current
	// milestone knowledge.
	Idle bool
	// MaxFresh is the deepest level at which this node committed a fresh
	// state (the node's contribution to Result.Depth).
	MaxFresh int
	// FreshByLevel counts the fresh states this node committed per BFS
	// level (cumulative, like the other snapshot counters). The
	// coordinator folds these into the run trace: summed across nodes,
	// level L's count is the size of the global BFS frontier at depth L.
	FreshByLevel []int
	// Links are this node's cumulative per-destination wire counters.
	Links []verify.LinkWire

	// Era echoes the worker's current recovery era so the coordinator can
	// tell pre- and post-recovery snapshots apart.
	Era int
	// Ckpt is the highest level fully persisted to checkpoint segments
	// (-1 when nothing is checkpointed or checkpointing is disabled).
	Ckpt int
	// LinkDown lists peer node IDs this worker can no longer reach (send
	// or receive failures on the mesh link). Cumulative; under FT a dead
	// link is reported here instead of poisoning the run via Err.
	LinkDown []int
}

// Frontier batch codec. Every batch opens with a version byte naming the
// format of the rest; decoders dispatch on it, so formats can coexist on
// one wire and the fixed-width PR-3 layout stays decodable forever.
//
//   - codecRaw: the states' words verbatim, little-endian, StateWords()
//     words per state — the legacy format, also the encoder's fallback when
//     delta coding would not shrink a (tiny) batch.
//   - codecDelta: states sorted by verify.LessState, then for every state
//     each word's difference to the previous state's same word, zigzag
//     varint coded. Sorting makes word 0 non-decreasing and packs the
//     field-structured states into short deltas.
//   - codecFlate: the codecDelta payload, DEFLATE-compressed. Chosen only
//     when it is the smallest of the three.
//
// Sorting a batch is sound: absorb order within a level affects neither the
// visited partition nor the verdict (the mesh commit rule admits a state
// only at its true BFS level, and the minimum-violator tie-break is
// order-independent).
const (
	codecRaw   byte = 0
	codecDelta byte = 1
	codecFlate byte = 2
)

// flateMinSize is the smallest delta payload worth running DEFLATE over;
// below it the dictionary warm-up costs more bytes than it saves.
const flateMinSize = 256

// maxFlateAmplification bounds how far a compressed batch may inflate
// relative to its wire size. verifyd accepts TCP connections, so absorb
// must not inflate untrusted bytes unboundedly (a decompression bomb would
// OOM the worker and take the cluster run with it). Legitimate batches —
// sorted low-entropy varint deltas — measure well under 100× even on
// degenerate all-duplicate levels; past the bound the node aborts loudly
// (a conservative failure, never a wrong verdict).
const maxFlateAmplification = 256

// frontierCodec encodes and decodes frontier batches for one node. The
// codecRaw format is exactly the expander's AppendState/DecodeStates
// layout — one implementation, shared, so the two can never drift. Scratch
// buffers (and the flate coder pair) are reused across levels, so
// per-batch work allocates only when a batch outgrows every previous one.
// Not safe for concurrent use — each node owns one.
type frontierCodec struct {
	exp   *verify.Expander
	words int // significant words per state (exp.StateWords)

	buf  bytes.Buffer // varint payload scratch (encode)
	zbuf bytes.Buffer // flate output scratch (encode)
	zw   *flate.Writer
	zr   io.ReadCloser // reused via flate.Resetter (decode)
	br   bytes.Reader
}

func newFrontierCodec(exp *verify.Expander) *frontierCodec {
	return &frontierCodec{exp: exp, words: exp.StateWords()}
}

// encode appends the batch encoding of states to dst. states is sorted in
// place (part of the format). An empty batch encodes to zero bytes.
func (c *frontierCodec) encode(states []verify.PackedState, dst []byte) []byte {
	if len(states) == 0 {
		return dst
	}
	slices.SortFunc(states, func(a, b verify.PackedState) int {
		if verify.LessState(a, b) {
			return -1
		}
		if verify.LessState(b, a) {
			return 1
		}
		return 0
	})
	c.buf.Reset()
	var tmp [binary.MaxVarintLen64]byte
	var prev verify.PackedState
	for _, s := range states {
		for k := 0; k < c.words; k++ {
			d := int64(s[k] - prev[k]) // exact signed delta mod 2^64
			c.buf.Write(tmp[:binary.PutUvarint(tmp[:], zigzag(d))])
		}
		prev = s
	}
	rawSize := 8 * c.words * len(states)
	payload := c.buf.Bytes()
	if len(payload) >= rawSize {
		// Tiny or adversarial batch: fall back to the fixed-width format.
		dst = append(dst, codecRaw)
		for _, s := range states {
			dst = c.exp.AppendState(dst, s)
		}
		return dst
	}
	if len(payload) >= flateMinSize {
		c.zbuf.Reset()
		if c.zw == nil {
			c.zw, _ = flate.NewWriter(&c.zbuf, flate.BestSpeed)
		} else {
			c.zw.Reset(&c.zbuf)
		}
		c.zw.Write(payload)
		c.zw.Close()
		if c.zbuf.Len() < len(payload) {
			dst = append(dst, codecFlate)
			return append(dst, c.zbuf.Bytes()...)
		}
	}
	dst = append(dst, codecDelta)
	return append(dst, payload...)
}

// decode appends the states of one encoded batch to out, dispatching on the
// version byte. A zero-length batch holds no states.
func (c *frontierCodec) decode(batch []byte, out []verify.PackedState) ([]verify.PackedState, error) {
	if len(batch) == 0 {
		return out, nil
	}
	version, payload := batch[0], batch[1:]
	switch version {
	case codecRaw:
		return c.exp.DecodeStates(payload, out)
	case codecFlate:
		c.br.Reset(payload)
		if c.zr == nil {
			c.zr = flate.NewReader(&c.br)
		} else if err := c.zr.(flate.Resetter).Reset(&c.br, nil); err != nil {
			return out, fmt.Errorf("dverify: resetting flate reader: %w", err)
		}
		c.buf.Reset()
		limit := int64(maxFlateAmplification) * int64(len(payload)+1024)
		n, err := c.buf.ReadFrom(io.LimitReader(c.zr, limit+1))
		if err != nil {
			return out, fmt.Errorf("dverify: inflating frontier batch: %w", err)
		}
		if n > limit {
			return out, fmt.Errorf("dverify: frontier batch of %d compressed bytes inflates past the %d× amplification bound", len(payload), maxFlateAmplification)
		}
		return c.decodeDelta(c.buf.Bytes(), out)
	case codecDelta:
		return c.decodeDelta(payload, out)
	default:
		return out, fmt.Errorf("dverify: unknown frontier codec version %d", version)
	}
}

// decodeDelta reverses the sorted zigzag varint-delta payload. Like the
// raw format's DecodeStates, it rejects the batch at the first state the
// expander does not accept as Valid.
func (c *frontierCodec) decodeDelta(payload []byte, out []verify.PackedState) ([]verify.PackedState, error) {
	var prev verify.PackedState
	for len(payload) > 0 {
		s := prev
		for k := 0; k < c.words; k++ {
			u, n := binary.Uvarint(payload)
			if n <= 0 {
				return out, fmt.Errorf("dverify: truncated varint in frontier batch (word %d)", k)
			}
			payload = payload[n:]
			s[k] = prev[k] + uint64(unzigzag(u))
		}
		if !c.exp.Valid(s) {
			return out, fmt.Errorf("dverify: frontier batch carries invalid state %x", s)
		}
		out = append(out, s)
		prev = s
	}
	return out, nil
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
