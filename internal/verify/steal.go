package verify

import "sync/atomic"

// WorkQueue hands out chunks of an index range [0, n) to a set of lanes with
// work stealing. Each lane owns a contiguous partition and claims chunks from
// its own cursor; a lane whose partition drains steals chunks from the victim
// with the most work remaining, so a skewed frontier (one hot shard, one hot
// bucket) no longer idles the other lanes the way a static split did.
//
// Ownership rules (see DESIGN.md §10): partitions are fixed for one Reset
// cycle; every claim — owner or thief — goes through the same atomic
// fetch-add on the partition's cursor, so a chunk is handed out exactly once
// and two lanes never hold overlapping ranges. Claims beyond the partition
// end are lost races, not errors: the cursor overshoots harmlessly (it is
// bounded by one chunk per racing lane) and the loser moves to another
// victim. The queue itself allocates only when the lane count first grows.
type WorkQueue struct {
	parts  []workPart
	lanes  int
	chunk  int64
	steals atomic.Int64
}

// workPart is one lane's partition. Padded so two lanes' cursors never share
// a cache line — the whole point is that an owner claiming from its own
// partition does not bounce a line that other owners are hammering.
type workPart struct {
	cur atomic.Int64
	end int64
	_   [48]byte
}

// Reset re-partitions [0, n) evenly across lanes with the given claim chunk
// size. Not safe concurrently with Next; the drivers call it between levels
// or batches, on the orchestrator, before lanes wake.
func (q *WorkQueue) Reset(n, lanes, chunk int) {
	if lanes < 1 {
		lanes = 1
	}
	if chunk < 1 {
		chunk = 1
	}
	if cap(q.parts) < lanes {
		q.parts = make([]workPart, lanes)
	}
	q.parts = q.parts[:lanes]
	q.lanes = lanes
	q.chunk = int64(chunk)
	for i := range q.parts {
		lo := int64(i) * int64(n) / int64(lanes)
		hi := int64(i+1) * int64(n) / int64(lanes)
		q.parts[i].cur.Store(lo)
		q.parts[i].end = hi
	}
}

// Next claims the lane's next chunk, stealing from the busiest other lane
// once its own partition drains. ok=false means the whole range is claimed.
// Safe for concurrent use by distinct lanes.
func (q *WorkQueue) Next(lane int) (lo, hi int, ok bool) {
	p := &q.parts[lane]
	if c := p.cur.Add(q.chunk) - q.chunk; c < p.end {
		e := c + q.chunk
		if e > p.end {
			e = p.end
		}
		return int(c), int(e), true
	}
	for {
		victim, best := -1, int64(0)
		for i := range q.parts {
			if i == lane {
				continue
			}
			if left := q.parts[i].end - q.parts[i].cur.Load(); left > best {
				victim, best = i, left
			}
		}
		if victim < 0 {
			return 0, 0, false
		}
		v := &q.parts[victim]
		if c := v.cur.Add(q.chunk) - q.chunk; c < v.end {
			e := c + q.chunk
			if e > v.end {
				e = v.end
			}
			q.steals.Add(1)
			return int(c), int(e), true
		}
		// Lost the race to the victim's last chunk; rescan.
	}
}

// Steals returns the number of chunks claimed from a foreign partition since
// the queue was created, for the contention telemetry; monotone across
// Resets.
func (q *WorkQueue) Steals() int64 { return q.steals.Load() }
