package verify

import (
	"sync"
	"sync/atomic"
)

// Parallel BFS tuning.
const (
	// serialLevelThreshold: levels with fewer frontier states than this are
	// expanded on the calling goroutine — spawning workers for tiny levels
	// (the first few samples, or single-app checks) costs more than it saves.
	serialLevelThreshold = 512
	// chunkSize is the work-stealing granularity: lanes claim frontier
	// states in blocks of this many from their WorkQueue partition,
	// balancing levels whose expansion cost varies state to state.
	chunkSize = 128
)

// concurrentSet is the lock-free visited set a parallel search shares
// across its lanes (shardset.go): one per encoding, each with its own slot
// protocol.
type concurrentSet[S state] interface {
	addHashed(k S, h uint64) bool
	reserve(n int)
	stats() SetStats
}

// violRec records one violating frontier state found during a level.
type violRec[S state] struct {
	state S   // the packed frontier state whose expansion violated
	app   int // the application that missed its deadline
}

// bfsWorker holds one worker's reusable scratch and per-level output.
type bfsWorker[S state] struct {
	sc    expandScratch
	succ  []hashed[S]
	next  []S // fresh states discovered this level
	trans int // successors generated this level
	viols []violRec[S]
}

// runParallel performs the level-synchronous sharded BFS. It visits exactly
// the states the sequential search visits: the visited set is sharded 64-way
// by state hash, every level is a barrier, and within a level lanes claim
// frontier chunks from a work-stealing queue (own partition first, then the
// busiest other lane's). For schedulable sets the search is exhaustive, so
// States, Transitions and Depth equal the sequential counts. On a violation
// the level is still swept far enough to find the minimum violating packed
// state (lessState), so Schedulable and Violator are deterministic across
// runs and worker counts (though Violator may differ from the sequential
// path's first-in-expansion-order pick when several applications can
// violate at the same depth).
func runParallel[S state, V concurrentSet[S]](v *Verifier, c codec[S], visited V, workers int) (Result, error) {
	res := Result{Schedulable: true, Bounded: v.cfg.MaxDisturbances > 0}
	init := initialState(c)
	visited.addHashed(init, hashState(init))
	frontier := []S{init}

	var states atomic.Int64 // fresh states across the whole search
	states.Store(1)
	maxStates := int64(v.cfg.MaxStates)
	var tooLarge atomic.Bool

	ws := make([]*bfsWorker[S], workers)
	for i := range ws {
		ws[i] = &bfsWorker[S]{}
	}
	var wq WorkQueue
	defer func() {
		flushContention(visited.stats(), int64(res.Transitions), wq.Steals())
	}()
	var spare []S // recycled merge buffer, swapped with frontier per level

	prevFrontier := 1
	for depth := 0; len(frontier) > 0; depth++ {
		res.Depth = depth
		obsLevels.Inc()
		levelTrans := res.Transitions
		visited.reserve(levelReserve(len(frontier), prevFrontier))
		var minViol atomic.Pointer[S]

		expand := func(w *bfsWorker[S], lane int) {
			w.next = w.next[:0]
			w.trans = 0
			w.viols = w.viols[:0]
			for {
				lo, hi, ok := wq.Next(lane)
				if !ok || tooLarge.Load() {
					return
				}
				for _, s := range frontier[lo:hi] {
					// A violating state smaller than s already decides this
					// level; expanding s cannot change the verdict.
					if mv := minViol.Load(); mv != nil && lessState(*mv, s) {
						continue
					}
					var viol int
					w.succ, viol = c.successors(s, &w.sc, w.succ[:0])
					if viol >= 0 {
						w.viols = append(w.viols, violRec[S]{state: s, app: viol})
						for {
							mv := minViol.Load()
							if mv != nil && !lessState(s, *mv) {
								break
							}
							sc := s
							if minViol.CompareAndSwap(mv, &sc) {
								break
							}
						}
						continue
					}
					w.trans += len(w.succ)
					for _, hs := range w.succ {
						if visited.addHashed(hs.s, hs.h) {
							w.next = append(w.next, hs.s)
							if states.Add(1) > maxStates {
								tooLarge.Store(true)
								return
							}
						}
					}
				}
			}
		}

		act := workers
		if len(frontier) < serialLevelThreshold {
			act = 1
			wq.Reset(len(frontier), 1, chunkSize)
			expand(ws[0], 0)
		} else {
			wq.Reset(len(frontier), act, chunkSize)
			var wg sync.WaitGroup
			wg.Add(act)
			for lane, w := range ws {
				go func(w *bfsWorker[S], lane int) {
					defer wg.Done()
					expand(w, lane)
				}(w, lane)
			}
			wg.Wait()
		}

		res.States = int(states.Load())
		// A recorded violation is definitive even when the state budget
		// tripped in the same level — prefer the verdict over ErrTooLarge.
		if mv := minViol.Load(); mv != nil {
			res.Schedulable = false
			for _, w := range ws[:act] {
				for _, vr := range w.viols {
					if vr.state == *mv {
						res.Violator = vr.app
					}
				}
				res.Transitions += w.trans
			}
			v.cfg.RunTrace.AddLevel(depth, len(frontier), res.Transitions-levelTrans)
			return res, nil
		}
		if tooLarge.Load() {
			return res, ErrTooLarge
		}

		total := 0
		for _, w := range ws[:act] {
			res.Transitions += w.trans
			total += len(w.next)
		}
		v.cfg.RunTrace.AddLevel(depth, len(frontier), res.Transitions-levelTrans)
		if cap(spare) < total {
			spare = make([]S, 0, total)
		}
		spare = spare[:0]
		for _, w := range ws[:act] {
			spare = append(spare, w.next...)
		}
		prevFrontier = len(frontier)
		frontier, spare = spare, frontier
	}
	return res, nil
}
