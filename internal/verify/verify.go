// Package verify decides the paper's central question (Sec. 4): can a set
// of applications share one TT slot such that every application, under
// every admissible disturbance scenario, is granted the slot within its
// maximum wait T*w?
//
// The paper models applications, arbitration policy and scheduler as a
// network of timed automata (Figs. 5–7) and checks Error-state reachability
// with UPPAAL. Because the plant is sampled and the scheduler observes
// disturbances only at sample boundaries, integer-clock semantics at sample
// granularity is exact; this package therefore performs explicit-state
// breadth-first reachability over a bit-packed encoding of the composed
// discrete state. Disturbances are adversarial: at every sample, any subset
// of quiescent applications may have been disturbed during the preceding
// interval (subject to the per-application minimum inter-arrival time r).
//
// Two packed encodings back the same semantics: application sets whose
// composed state fits one machine word use the original single-uint64
// encoding (the fast path — every paper result runs here), larger sets up
// to maxApps applications use the multi-word wide encoding of widestate.go.
// Sets of applications with identical profiles can additionally be checked
// under a sound symmetry quotient (Config.SymmetryReduction), collapsing
// the state space of homogeneous fleets by up to n! per class.
//
// Two disturbance modes are provided:
//
//   - exact (default): unbounded disturbance instances — full reachability;
//   - bounded: each application is limited to a given number of disturbance
//     instances, the paper's acceleration that cut one verification from
//     5 h to 15 min. It under-approximates reachability and is sound under
//     the paper's critical-instant argument (a worst-case wait occurs
//     within a window that bounds how many times each interferer can fire).
//
// The same per-sample semantics are implemented by the runtime arbiter
// (internal/sched); cross-validation tests keep them in lock-step.
package verify

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"unsafe"

	"tightcps/internal/obs"
	"tightcps/internal/sched"
	"tightcps/internal/switching"
)

// Limits of the packed encodings. maxApps is the wide-encoding cap; sets
// whose composed state fits 64 bits (≤ 6 apps exact, ≤ 5 bounded) stay on
// the one-word fast path.
const (
	maxApps   = 12  // wide-encoding application cap
	maxClock  = 127 // r, T*w ≤ 127 samples
	maxTdw    = 15  // Tdw+ ≤ 15 samples
	phaseBits = 2
	valBits   = 7
	cntBits   = 2 // bounded-mode disturbance counters
)

// Phases in the packed encoding (Granted is tracked via the occupant field;
// a granted app keeps phase pWaiting's slot... see pack/unpack).
const (
	pSteady uint8 = iota
	pWaiting
	pGranted
	pCooldown
)

// Config tunes a verification run.
type Config struct {
	// MaxDisturbances bounds the number of disturbance instances per
	// application (the paper's acceleration). 0 means unbounded (exact).
	MaxDisturbances int
	// Policy selects the preemption policy to verify (default the paper's
	// eager policy).
	Policy sched.PreemptionPolicy
	// NondetTies explores all equally-urgent grant choices (sound for
	// verification). When false, ties break deterministically exactly like
	// the runtime arbiter (used for cross-validation).
	NondetTies bool
	// MaxStates aborts the search beyond this many visited states
	// (0 = 200 million).
	MaxStates int
	// Trace records parent pointers so a counterexample trace can be
	// reconstructed. Costs ~2× memory. Tracing forces the sequential
	// search path regardless of Workers.
	Trace bool
	// Workers bounds the goroutines expanding the BFS frontier. 0 means
	// GOMAXPROCS lanes; 1 forces the sequential search. The parallel
	// search shards the visited set 64-way by state hash and synchronises
	// at level boundaries; it visits exactly the same state space, so the
	// verdict — and, for schedulable sets, States/Transitions/Depth — is
	// identical to the sequential path. Small levels are expanded
	// serially either way, so single-app checks do not regress.
	Workers int
	// SymmetryReduction canonicalises every state by sorting the lanes of
	// applications with identical profiles (name excluded), exploring the
	// quotient under those lane permutations. Permuting identical
	// applications is an automorphism of the composed transition system,
	// so Error reachability — the verdict — is preserved, while the state
	// space of a fleet of k identical applications shrinks by up to k!.
	// Disturbance choices over interchangeable applications collapse from
	// subsets to counts, shrinking the branching factor the same way.
	// With the reduction on, Result.Violator and state counts refer to
	// the quotient (the violator index identifies the app's equivalence
	// class). Incompatible with Trace.
	SymmetryReduction bool
	// Distributed, when non-nil, hands the whole reachability run to an
	// external backend (internal/dverify.Runner): Run ships the profiles
	// and this Config — with Distributed cleared — to the hook instead of
	// searching in-process. In distributed runs MaxStates is a per-node
	// visited budget (it models per-node memory), so the aggregate capacity
	// grows with the cluster size. Incompatible with Trace: counterexample
	// reconstruction needs in-process parent pointers, so callers re-run a
	// violating slot locally to obtain the schedule.
	Distributed func(profiles []*switching.Profile, cfg Config) (Result, error)
	// RunID tags this run in logs, traces and distributed worker sessions.
	// Minted at the admission boundary (or by the CLI) via obs.NewRunID and
	// propagated through the Distributed hook onto every mesh worker; it
	// never affects the verdict or any cache key.
	RunID string
	// RunTrace, when non-nil, receives the run's telemetry: per-level spans
	// from the search drivers, per-node/per-link breakdowns from a
	// distributed backend, and the verdict totals on completion. Recording
	// is level-granular — the expansion hot path is untouched — so the
	// zero-allocation gates hold with a trace attached. Distinct from
	// Trace, which records parent pointers for counterexample
	// reconstruction.
	RunTrace *obs.Trace
	// FaultTolerance, meaningful only for distributed runs, keeps the run
	// alive through worker deaths: the coordinator detects dead workers by
	// transport failure or poll timeout, reassigns their hash shards to
	// survivors (or late-joining replacements) and rolls the cluster back
	// to the last checkpointed level. The verdict and all exhaustive
	// counts are unchanged by recovery — mapping.VerifyConfigKey excludes
	// this knob, so cached verdicts stay valid. Without CheckpointDir,
	// recovery degrades to a full restart of the search on the survivors.
	FaultTolerance bool
	// CheckpointDir is where fault-tolerant distributed runs persist
	// per-level visited-set segments (a per-session subdirectory is
	// created and removed on completion). Every worker must see the same
	// path — same host or shared filesystem — for takeover to restore a
	// dead worker's shards. Empty disables checkpointing (see
	// FaultTolerance). Ignored by local searches and cache keys.
	CheckpointDir string
}

// Result reports a verification outcome.
type Result struct {
	Schedulable bool
	States      int // states visited
	Transitions int // transitions taken
	Depth       int // BFS depth reached (samples)
	// Violator is the application that missed its deadline (valid when
	// !Schedulable).
	Violator int
	// Counterexample is the disturbance schedule leading to the violation:
	// step k lists the applications disturbed at sample k. Nil unless
	// Config.Trace was set and a violation was found.
	Counterexample [][]int
	// Bounded records whether the accelerated (bounded-disturbance) model
	// was used.
	Bounded bool
	// Wire aggregates the frontier-exchange volume of a distributed run
	// (zero for local searches): the backend behind Config.Distributed
	// fills it in so CLIs can report routing and compression effect.
	Wire WireStats
}

// WireStats counts the bytes and states a distributed search moved between
// nodes. RawBytes is what the exchange would have cost in the fixed-width
// format with no sender-side filtering; WireBytes is what actually crossed
// the wire, so RawBytes−WireBytes is the volume the filter and the
// compressed codec saved together.
type WireStats struct {
	RoutedStates   int // states encoded onto the wire (post-filter)
	FilteredStates int // states suppressed by sender-side recent filters
	RawBytes       int // fixed-width cost of routed+filtered states
	WireBytes      int // bytes actually shipped (batches incl. codec byte)
	// Links breaks the totals down per directed worker↔worker link of a
	// distributed run, ordered by (From, To). Nil for local runs.
	Links []LinkWire
}

// LinkWire is the frontier volume of one directed mesh link.
type LinkWire struct {
	From, To int // node IDs, From ≠ To
	States   int // states shipped over the link (post-filter)
	Bytes    int // bytes shipped (encoded batches; raw width on loopback)
}

// Add accumulates other into w, merging per-link counters by (From, To).
func (w *WireStats) Add(other WireStats) {
	w.RoutedStates += other.RoutedStates
	w.FilteredStates += other.FilteredStates
	w.RawBytes += other.RawBytes
	w.WireBytes += other.WireBytes
	for _, l := range other.Links {
		merged := false
		for i := range w.Links {
			if w.Links[i].From == l.From && w.Links[i].To == l.To {
				w.Links[i].States += l.States
				w.Links[i].Bytes += l.Bytes
				merged = true
				break
			}
		}
		if !merged {
			w.Links = append(w.Links, l)
		}
	}
	// slices.SortFunc, not sort.Slice: the mesh tracker folds a WireStats
	// per node into its total every poll round, and sort.Slice's
	// reflection-based swapper allocates on each call.
	slices.SortFunc(w.Links, func(a, b LinkWire) int {
		if a.From != b.From {
			return a.From - b.From
		}
		return a.To - b.To
	})
}

// Report formats the counters as the one-line summary every CLI prints —
// the distributed CI smoke greps this exact shape, so it lives here rather
// than being duplicated per command. Call only when RawBytes > 0.
func (w WireStats) Report() string {
	saved := 100 * (1 - float64(w.WireBytes)/float64(w.RawBytes))
	return fmt.Sprintf("wire: routed=%d filtered=%d raw=%dB shipped=%dB (%.0f%% saved)",
		w.RoutedStates, w.FilteredStates, w.RawBytes, w.WireBytes, saved)
}

// ErrTooLarge is returned when the state cap is exceeded.
var ErrTooLarge = errors.New("verify: state space exceeds configured limit")

// ErrEncoding is returned when the application set does not fit the packed
// state encoding.
var ErrEncoding = errors.New("verify: application set exceeds packed-encoding limits")

// Verifier checks slot-sharing feasibility for one application set.
type Verifier struct {
	profs []*switching.Profile
	cfg   Config
	n     int

	appBits  uint
	occShift uint
	ctShift  uint
	wide     bool // state does not fit one uint64 (multi-word encoding)
	lanes    int  // wide layout: application lanes per word

	// Symmetry quotient (nil unless Config.SymmetryReduction found classes).
	symOf     []int   // app index → symmetry-group index, −1 when unique
	symGroups [][]int // groups of ≥ 2 interchangeable application indices
}

// New constructs a Verifier for the applications described by the profiles.
func New(profiles []*switching.Profile, cfg Config) (*Verifier, error) {
	n := len(profiles)
	if n == 0 || n > maxApps {
		return nil, fmt.Errorf("%w: %d applications (max %d)", ErrEncoding, n, maxApps)
	}
	for _, p := range profiles {
		if p.TwStar > maxClock || p.R > maxClock {
			return nil, fmt.Errorf("%w: clocks up to %d samples exceed %d", ErrEncoding, p.R, maxClock)
		}
		if p.MaxTdwPlus() > maxTdw {
			return nil, fmt.Errorf("%w: Tdw+ %d exceeds %d", ErrEncoding, p.MaxTdwPlus(), maxTdw)
		}
		if p.R <= p.TwStar {
			return nil, fmt.Errorf("verify: %s has r=%d ≤ T*w=%d; the sporadic model requires r > T*w",
				p.Name, p.R, p.TwStar)
		}
	}
	if cfg.MaxStates <= 0 {
		cfg.MaxStates = 200_000_000
	}
	v := &Verifier{profs: profiles, cfg: cfg, n: n}
	v.appBits = phaseBits + valBits
	if cfg.MaxDisturbances > 0 {
		if cfg.MaxDisturbances >= 1<<cntBits {
			return nil, fmt.Errorf("%w: disturbance bound %d exceeds %d", ErrEncoding, cfg.MaxDisturbances, 1<<cntBits-1)
		}
		v.appBits += cntBits
	}
	total := uint(n)*v.appBits + 4 /*occupant*/ + 4 /*cT*/
	v.occShift = uint(n) * v.appBits
	v.ctShift = v.occShift + 4
	v.wide = total > 64
	v.lanes = int(64 / v.appBits)
	if n > v.lanes*wideAppWords {
		return nil, fmt.Errorf("%w: %d applications exceed the %d lanes of the wide encoding",
			ErrEncoding, n, v.lanes*wideAppWords)
	}
	if cfg.SymmetryReduction {
		if cfg.Trace {
			return nil, errors.New("verify: SymmetryReduction is incompatible with Trace (lane identities are quotiented away)")
		}
		v.buildSymmetry()
	}
	if cfg.Distributed != nil && cfg.Trace {
		return nil, errors.New("verify: Distributed is incompatible with Trace (re-run the slot locally for a counterexample)")
	}
	return v, nil
}

// buildSymmetry groups applications whose profiles are identical in every
// field the verifier consults (name excluded): such applications are
// interchangeable, and sorting their lanes yields a canonical quotient
// representative.
func (v *Verifier) buildSymmetry() {
	v.symOf = make([]int, v.n)
	for i := range v.symOf {
		v.symOf[i] = -1
	}
	for i := 0; i < v.n; i++ {
		if v.symOf[i] >= 0 {
			continue
		}
		group := []int{i}
		for j := i + 1; j < v.n; j++ {
			if v.symOf[j] < 0 && sameProfile(v.profs[i], v.profs[j]) {
				group = append(group, j)
			}
		}
		if len(group) < 2 {
			continue
		}
		id := len(v.symGroups)
		for _, a := range group {
			v.symOf[a] = id
		}
		v.symGroups = append(v.symGroups, group)
	}
	if len(v.symGroups) == 0 {
		v.symOf = nil
	}
}

// sameProfile reports whether two profiles are indistinguishable to the
// verifier: same timing parameters and dwell tables. Names are ignored —
// two fleet instances of one application design are interchangeable.
func sameProfile(a, b *switching.Profile) bool {
	if a.R != b.R || a.TwStar != b.TwStar || a.Granularity != b.Granularity ||
		len(a.TdwMinus) != len(b.TdwMinus) || len(a.TdwPlus) != len(b.TdwPlus) {
		return false
	}
	for i := range a.TdwMinus {
		if a.TdwMinus[i] != b.TdwMinus[i] {
			return false
		}
	}
	for i := range a.TdwPlus {
		if a.TdwPlus[i] != b.TdwPlus[i] {
			return false
		}
	}
	return true
}

// cstate is the decoded composed state.
type cstate struct {
	phase [maxApps]uint8
	val   [maxApps]uint8 // Waiting: wt; Cooldown: clock; Granted: tw at grant
	cnt   [maxApps]uint8 // bounded mode: disturbances used
	occ   int8           // occupant index, −1 idle
	cT    uint8          // occupant dwell
}

func (v *Verifier) pack(c *cstate) uint64 {
	var s uint64
	for i := 0; i < v.n; i++ {
		f := uint64(c.phase[i]) | uint64(c.val[i])<<phaseBits
		if v.cfg.MaxDisturbances > 0 {
			f |= uint64(c.cnt[i]) << (phaseBits + valBits)
		}
		s |= f << (uint(i) * v.appBits)
	}
	occ := uint64(0xF)
	if c.occ >= 0 {
		occ = uint64(c.occ)
	}
	s |= occ << v.occShift
	s |= uint64(c.cT) << v.ctShift
	return s
}

func (v *Verifier) unpack(s uint64, c *cstate) {
	for i := 0; i < v.n; i++ {
		f := s >> (uint(i) * v.appBits)
		c.phase[i] = uint8(f & (1<<phaseBits - 1))
		c.val[i] = uint8(f >> phaseBits & (1<<valBits - 1))
		if v.cfg.MaxDisturbances > 0 {
			c.cnt[i] = uint8(f >> (phaseBits + valBits) & (1<<cntBits - 1))
		} else {
			c.cnt[i] = 0
		}
	}
	occ := s >> v.occShift & 0xF
	if occ == 0xF {
		c.occ = -1
	} else {
		c.occ = int8(occ)
	}
	c.cT = uint8(s >> v.ctShift & 0xF)
}

// expandScratch owns every buffer the expansion core writes through: the
// decoded base state, the successor arena (states plus the disturbance
// bitmask that produced each) and the fixed-size index buffers of the
// scheduling helpers. Each search goroutine owns exactly one scratch —
// the sequential driver holds one, every parallel BFS worker and every
// distributed node embeds its own — so the hot path performs no
// allocation once the arena has grown to the verifier's maximum fanout
// (TestExpansionCoreAllocFree gates this).
type expandScratch struct {
	base   cstate
	states []cstate // successor arena, reset by expand
	masks  []uint32 // disturbance bitmask per successor, parallel to states

	elig [maxApps]int8 // eligible-disturbance buffer (expand)
	wait [maxApps]int8 // waiter buffer (schedule)
	cand [maxApps]int8 // grant-candidate buffer (schedule)
}

// laneKey totally orders one application's lane content for the symmetry
// canonicalisation.
func laneKey(c *cstate, i int) int {
	return int(c.phase[i]) | int(c.val[i])<<2 | int(c.cnt[i])<<9
}

// canon rewrites c into the canonical representative of its symmetry orbit:
// within every group of identical-profile applications, lanes are sorted by
// content, and the occupant index follows its lane. A no-op when no
// symmetry groups exist.
func (v *Verifier) canon(c *cstate) {
	for _, g := range v.symGroups {
		for i := 1; i < len(g); i++ {
			for j := i; j > 0 && laneKey(c, g[j]) < laneKey(c, g[j-1]); j-- {
				a, b := g[j], g[j-1]
				c.phase[a], c.phase[b] = c.phase[b], c.phase[a]
				c.val[a], c.val[b] = c.val[b], c.val[a]
				c.cnt[a], c.cnt[b] = c.cnt[b], c.cnt[a]
				if int(c.occ) == a {
					c.occ = int8(b)
				} else if int(c.occ) == b {
					c.occ = int8(a)
				}
			}
		}
	}
}

// expand applies the shared per-sample semantics to one decoded state: it
// advances clocks, enumerates the adversarial disturbance choices, and
// appends every post-scheduling successor — together with the disturbance
// bitmask that produced it — to sc's arena. base is consumed (clock-advanced
// in place) and the arena is reset on entry, so callers must consume it
// between calls. The return value is the index of the application whose
// deadline some choice violated, or −1 when every choice stays safe; on a
// violation the arena is truncated mid-choice and must be discarded. Both
// packed encodings route their successor generation through here, so narrow
// and wide searches explore identical semantics — without allocating.
func (v *Verifier) expand(base *cstate, sc *expandScratch) int {
	sc.states = sc.states[:0]
	sc.masks = sc.masks[:0]

	// Step 1–2: advance clocks; finish cooldowns.
	for i := 0; i < v.n; i++ {
		switch base.phase[i] {
		case pWaiting:
			base.val[i]++
		case pCooldown:
			if int(base.val[i])+1 >= v.profs[i].R {
				base.phase[i] = pSteady
				base.val[i] = 0
			} else {
				base.val[i]++
			}
		}
	}
	if base.occ >= 0 {
		base.cT++
	}

	// Eligible disturbance set.
	nelig := 0
	for i := 0; i < v.n; i++ {
		if base.phase[i] != pSteady {
			continue
		}
		if v.cfg.MaxDisturbances > 0 && int(base.cnt[i]) >= v.cfg.MaxDisturbances {
			continue
		}
		sc.elig[nelig] = int8(i)
		nelig++
	}

	if v.symGroups != nil {
		return v.expandGrouped(base, sc.elig[:nelig], sc)
	}

	for mask := 0; mask < 1<<nelig; mask++ {
		c := *base
		var m uint32
		for b := 0; b < nelig; b++ {
			if mask&(1<<b) != 0 {
				app := int(sc.elig[b])
				c.phase[app] = pWaiting
				c.val[app] = 0
				if v.cfg.MaxDisturbances > 0 {
					c.cnt[app]++
				}
				m |= 1 << uint(app)
			}
		}
		if viol := v.schedule(&c, m, sc); viol >= 0 {
			return viol
		}
	}
	return -1
}

// expandGrouped is the symmetry-aware disturbance enumeration: eligible
// applications are partitioned into interchangeable groups (same symmetry
// class, same disturbance count — identical lane content, since Steady
// lanes carry val 0), and only the number disturbed per group is chosen.
// The branching factor drops from 2^e subsets to Π(|group|+1) count
// vectors; every successor is canonicalised in the arena before the next
// choice runs. All scratch lives in fixed-size stack arrays and sc — this
// runs once per explored state, tens of millions of times per fleet check.
func (v *Verifier) expandGrouped(base *cstate, elig []int8, sc *expandScratch) int {
	// members holds the eligible apps reordered group by group;
	// groupEnd[g] is the end offset of group g within it.
	var members [maxApps]int8
	var groupEnd [maxApps]int8
	var groupCls [maxApps]int16 // symmetry class of each group, −1 singleton
	var groupCnt [maxApps]uint8 // disturbance count shared by the group
	ngroups := 0
	pos := int8(0)
	for _, a := range elig {
		gi := -1
		if cls := v.symOf[a]; cls >= 0 {
			for g := 0; g < ngroups; g++ {
				if groupCls[g] == int16(cls) && groupCnt[g] == base.cnt[a] {
					gi = g
					break
				}
			}
			if gi < 0 {
				gi = ngroups
				groupCls[gi] = int16(cls)
			}
		} else {
			gi = ngroups
			groupCls[gi] = -1
		}
		if gi == ngroups {
			groupCnt[gi] = base.cnt[a]
			ngroups++
			// New groups open at the end; existing groups grow by shifting
			// the (few) later members right.
			members[pos] = a
			groupEnd[gi] = pos + 1
			pos++
			continue
		}
		insert := groupEnd[gi]
		for j := pos; j > insert; j-- {
			members[j] = members[j-1]
		}
		members[insert] = a
		for g := gi; g < ngroups; g++ {
			groupEnd[g]++
		}
		pos++
	}

	var counts [maxApps]int8
	for {
		c := *base
		var m uint32
		start := int8(0)
		for g := 0; g < ngroups; g++ {
			for k := start; k < start+counts[g]; k++ {
				app := int(members[k])
				c.phase[app] = pWaiting
				c.val[app] = 0
				if v.cfg.MaxDisturbances > 0 {
					c.cnt[app]++
				}
				m |= 1 << uint(app)
			}
			start = groupEnd[g]
		}
		first := len(sc.states)
		if viol := v.schedule(&c, m, sc); viol >= 0 {
			return viol
		}
		for i := first; i < len(sc.states); i++ {
			v.canon(&sc.states[i])
		}
		// Odometer over per-group disturbance counts.
		gi := 0
		for ; gi < ngroups; gi++ {
			size := groupEnd[gi]
			if gi > 0 {
				size -= groupEnd[gi-1]
			}
			counts[gi]++
			if counts[gi] <= size {
				break
			}
			counts[gi] = 0
		}
		if gi == ngroups {
			return -1
		}
	}
}

// schedule applies eviction, granting and the deadline check to c,
// appending the possible post-scheduling states (more than one only with
// nondeterministic tie-breaking) to sc's arena, each paired with the
// disturbance mask m. It returns the violating application's index, or −1;
// on a violation the arena may hold a truncated choice and must be
// discarded by the caller.
func (v *Verifier) schedule(c *cstate, m uint32, sc *expandScratch) int {
	// Forced vacate at Tdw+; preemption in [Tdw−, Tdw+).
	if c.occ >= 0 {
		o := int(c.occ)
		dtMin, dtMax, ok := v.profs[o].Lookup(int(c.val[o]))
		if !ok {
			// Cannot happen: grants only occur with a valid window.
			panic("verify: occupant without dwell window")
		}
		evict := false
		if int(c.cT) >= dtMax {
			evict = true
		} else if int(c.cT) >= dtMin {
			if nw := v.waiters(c, &sc.wait); nw > 0 {
				switch v.cfg.Policy {
				case sched.PreemptEager:
					evict = true
				case sched.PreemptLazy:
					u := v.mostUrgent(c, sc.wait[:nw])
					if v.profs[u].TwStar-int(c.val[u]) <= 0 {
						evict = true
					}
				}
			}
		}
		if evict {
			clk := int(c.val[o]) + int(c.cT) // time since disturbance
			if clk >= v.profs[o].R {
				c.phase[o] = pSteady
				c.val[o] = 0
			} else {
				c.phase[o] = pCooldown
				c.val[o] = uint8(clk)
			}
			c.occ = -1
			c.cT = 0
		}
	}

	// Grant: candidate states are built directly in the arena.
	if c.occ < 0 {
		if nw := v.waiters(c, &sc.wait); nw > 0 {
			ncand := v.grantCandidates(c, sc.wait[:nw], &sc.cand)
			granted := false
			for _, g8 := range sc.cand[:ncand] {
				g := int(g8)
				if _, _, ok := v.profs[g].Lookup(int(c.val[g])); !ok {
					continue // past T*w — the miss check below will fire
				}
				sc.states = append(sc.states, *c)
				nc := &sc.states[len(sc.states)-1]
				nc.phase[g] = pGranted
				// val keeps tw (the wait at grant); cT restarts.
				nc.occ = int8(g)
				nc.cT = 0
				if viol := v.missCheck(nc); viol >= 0 {
					return viol
				}
				sc.masks = append(sc.masks, m)
				granted = true
			}
			if granted {
				return -1
			}
		}
	}
	if viol := v.missCheck(c); viol >= 0 {
		return viol
	}
	sc.states = append(sc.states, *c)
	sc.masks = append(sc.masks, m)
	return -1
}

// waiters writes the indices of Waiting applications into buf (ascending)
// and returns how many there are.
func (v *Verifier) waiters(c *cstate, buf *[maxApps]int8) int {
	n := 0
	for i := 0; i < v.n; i++ {
		if c.phase[i] == pWaiting {
			buf[n] = int8(i)
			n++
		}
	}
	return n
}

// mostUrgent returns the waiter with minimum deadline D = T*w − wt, with
// the runtime arbiter's deterministic tie-break.
func (v *Verifier) mostUrgent(c *cstate, w []int8) int {
	best := -1
	bestD, bestTie := 0, 0
	for _, i8 := range w {
		i := int(i8)
		d := v.profs[i].TwStar - int(c.val[i])
		tie := v.profs[i].MaxTdwMinus()
		if best < 0 || d < bestD || (d == bestD && tie < bestTie) {
			best, bestD, bestTie = i, d, tie
		}
	}
	return best
}

// grantCandidates writes into buf the waiters that may legally receive an
// idle slot — the unique most-urgent one (deterministic mode) or all
// waiters tied at the minimum deadline (nondeterministic mode) — and
// returns how many there are.
func (v *Verifier) grantCandidates(c *cstate, w []int8, buf *[maxApps]int8) int {
	if !v.cfg.NondetTies {
		buf[0] = int8(v.mostUrgent(c, w))
		return 1
	}
	minD := 1 << 30
	for _, i := range w {
		if d := v.profs[i].TwStar - int(c.val[i]); d < minD {
			minD = d
		}
	}
	n := 0
	for _, i := range w {
		if v.profs[i].TwStar-int(c.val[i]) == minD {
			buf[n] = i
			n++
		}
	}
	return n
}

// missCheck returns the index of a still-waiting application whose wait has
// reached T*w — the earliest possible future grant (next sample) would
// exceed T*w — or −1.
func (v *Verifier) missCheck(c *cstate) int {
	for i := 0; i < v.n; i++ {
		if c.phase[i] == pWaiting && int(c.val[i]) >= v.profs[i].TwStar {
			return i
		}
	}
	return -1
}

// Run performs the BFS reachability analysis, fanning the frontier out over
// Config.Workers goroutines (sequentially when Workers is 1 or a trace is
// requested). Application sets that do not fit the one-word encoding run on
// the multi-word wide path with identical semantics. Every completed run —
// local or distributed — is folded into the engine metrics and, when
// Config.RunTrace is set, finalizes the run trace here.
func (v *Verifier) Run() (Result, error) {
	obsActive.Add(1)
	res, err := v.dispatch()
	obsActive.Add(-1)
	v.recordRun(res, err)
	return res, err
}

// dispatch routes the run to the distributed hook or a local driver,
// instantiated for the verifier's encoding.
func (v *Verifier) dispatch() (Result, error) {
	if v.cfg.Distributed != nil {
		cfg := v.cfg
		cfg.Distributed = nil
		return v.cfg.Distributed(v.profs, cfg)
	}
	workers := v.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sequential := workers == 1 || v.cfg.Trace
	switch {
	case v.wide && sequential:
		return runSequential[wstate](v, wideCodec{v})
	case v.wide:
		return runParallel[wstate](v, wideCodec{v}, newShardedWideSet(1<<12), workers)
	case sequential:
		return runSequential[uint64](v, narrowCodec{v})
	}
	return runParallel[uint64](v, narrowCodec{v}, newShardedU64Set(1<<16), workers)
}

// levelReserve estimates how many fresh states the coming level will
// discover from the previous level's fanout — the previous level turned
// prevFrontier frontier states into frontier fresh ones, so the coming one
// is sized at the same ratio — letting the visited sets grow to the level's
// size in one rehash instead of doubling mid-level.
func levelReserve(frontier, prevFrontier int) int {
	if prevFrontier <= 0 {
		return frontier
	}
	est := frontier * frontier / prevFrontier
	if max := 8 * frontier; est > max {
		est = max // cap runaway extrapolation on early ragged levels
	}
	return est
}

// runSequential is the single-goroutine BFS: frontier states are expanded in
// insertion order and the search stops at the first violation encountered.
// The frontier slices and the expansion scratch are recycled across levels,
// so the steady-state loop allocates only when the visited set grows.
func runSequential[S state](v *Verifier, c codec[S]) (Result, error) {
	res := Result{Schedulable: true, Bounded: v.cfg.MaxDisturbances > 0}
	init := initialState(c)
	visited := newStateSet[S](initialSetBytes / int(unsafe.Sizeof(init)))
	visited.add(init)
	frontier := []S{init}
	var next []S // recycled: swapped with frontier at every level
	var parents map[S]parentEdge[S]
	if v.cfg.Trace {
		parents = map[S]parentEdge[S]{}
	}
	res.States = 1

	var sc expandScratch
	var succ []hashed[S]
	prevFrontier := 1
	for depth := 0; len(frontier) > 0; depth++ {
		res.Depth = depth
		obsLevels.Inc()
		levelTrans := res.Transitions
		visited.reserve(levelReserve(len(frontier), prevFrontier))
		next = next[:0]
		for _, s := range frontier {
			var viol int
			succ, viol = c.successors(s, &sc, succ[:0])
			if viol >= 0 {
				res.Schedulable = false
				res.Violator = viol
				if v.cfg.Trace {
					res.Counterexample = v.traceFromMasks(rebuildTrace(parents, s, init))
				}
				v.cfg.RunTrace.AddLevel(depth, len(frontier), res.Transitions-levelTrans)
				return res, nil
			}
			res.Transitions += len(succ)
			for i, hs := range succ {
				ns := hs.s
				if visited.addHashed(ns, hs.h) {
					res.States++
					if res.States > v.cfg.MaxStates {
						return res, ErrTooLarge
					}
					if v.cfg.Trace {
						parents[ns] = parentEdge[S]{prev: s, disturbed: sc.masks[i]}
					}
					next = append(next, ns)
				}
			}
		}
		v.cfg.RunTrace.AddLevel(depth, len(frontier), res.Transitions-levelTrans)
		prevFrontier = len(frontier)
		frontier, next = next, frontier
	}
	return res, nil
}

// initialSetBytes sizes a sequential search's visited table before its
// first level: 2^16 narrow slots, 2^14 wide ones.
const initialSetBytes = 1 << 19

// parentEdge records how a traced search first reached a state.
type parentEdge[S state] struct {
	prev      S
	disturbed uint32
}

// rebuildTrace walks parent pointers from the state whose expansion
// violated the deadline back to the initial state, returning the
// disturbance masks latest first. The final adversarial step that triggers
// the miss during expansion of `last` is not in the parent map; the
// violation occurs one sample after the schedule ends.
func rebuildTrace[S state](parents map[S]parentEdge[S], last, init S) []uint32 {
	var rev []uint32
	for s := last; s != init; {
		e, ok := parents[s]
		if !ok {
			break
		}
		rev = append(rev, e.disturbed)
		s = e.prev
	}
	return rev
}

// traceFromMasks converts a reversed list of disturbance bitmasks into the
// forward schedule (step k → apps disturbed at sample k).
func (v *Verifier) traceFromMasks(rev []uint32) [][]int {
	out := make([][]int, len(rev))
	for i := range rev {
		m := rev[len(rev)-1-i]
		var apps []int
		for a := 0; a < v.n; a++ {
			if m&(1<<uint(a)) != 0 {
				apps = append(apps, a)
			}
		}
		out[i] = apps
	}
	return out
}

// Slot verifies whether the applications described by the given profiles
// can share one TT slot (convenience wrapper).
func Slot(profiles []*switching.Profile, cfg Config) (Result, error) {
	v, err := New(profiles, cfg)
	if err != nil {
		return Result{}, err
	}
	return v.Run()
}

// BoundFor computes a sound per-application disturbance bound for the
// accelerated model, following the paper's argument: the worst-case wait of
// any application unfolds within a busy window no longer than
// W = max_i (T*w_i + maxTdw+_i) samples, during which application j can
// fire at most ⌈W / r_j⌉ + 1 times. The returned bound is the maximum over
// j of that count (the encoding uses one shared bound).
func BoundFor(profiles []*switching.Profile) int {
	w := 0
	for _, p := range profiles {
		if l := p.TwStar + p.MaxTdwPlus(); l > w {
			w = l
		}
	}
	bound := 1
	for _, p := range profiles {
		b := (w+p.R-1)/p.R + 1
		if b > bound {
			bound = b
		}
	}
	return bound
}
