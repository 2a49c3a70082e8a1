package verify

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestShardedSetRandomizedOracle drives both lock-free sets with a
// randomized concurrent workload and replays the identical key stream
// through the single-goroutine sets as the oracle: the fresh-add total,
// the cardinality and the membership of every key must agree exactly.
// Under -race this doubles as a memory-model check of the CAS-claim
// (narrow) and busy-publish (wide) protocols.
func TestShardedSetRandomizedOracle(t *testing.T) {
	const (
		goroutines = 8
		perG       = 15000
	)
	// One shared key stream with heavy cross-goroutine overlap: every
	// goroutine walks a different permutation window of the same pool.
	rng := rand.New(rand.NewSource(42))
	pool := make([]uint64, 6000)
	for i := range pool {
		for pool[i] == 0 {
			pool[i] = rng.Uint64()
		}
	}
	t.Run("narrow", func(t *testing.T) {
		s := newShardedU64Set(64)
		var fresh atomic.Int64
		var wg sync.WaitGroup
		wg.Add(goroutines)
		for g := 0; g < goroutines; g++ {
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					k := pool[(i*(g+3)+g*997)%len(pool)]
					if s.addHashed(k, hashU64(k)) {
						fresh.Add(1)
					}
				}
			}(g)
		}
		wg.Wait()
		oracle := newStateSet[uint64](64)
		want := 0
		for g := 0; g < goroutines; g++ {
			for i := 0; i < perG; i++ {
				k := pool[(i*(g+3)+g*997)%len(pool)]
				if oracle.add(k) {
					want++
				}
			}
		}
		if got := int(fresh.Load()); got != want {
			t.Fatalf("concurrent fresh adds = %d, oracle says %d", got, want)
		}
		if got := s.len(); got != want {
			t.Fatalf("len = %d, oracle cardinality %d", got, want)
		}
		for _, k := range pool {
			if oracle.contains(k) != s.contains(k) {
				t.Fatalf("membership of %#x disagrees with oracle", k)
			}
		}
	})
	t.Run("wide", func(t *testing.T) {
		key := func(v uint64) wstate {
			return wstate{v, v * 0x9e3779b97f4a7c15, ^v, 1}
		}
		s := newShardedWideSet(64)
		var fresh atomic.Int64
		var wg sync.WaitGroup
		wg.Add(goroutines)
		for g := 0; g < goroutines; g++ {
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					k := key(pool[(i*(g+3)+g*997)%len(pool)])
					if s.addHashed(k, hashW(k)) {
						fresh.Add(1)
					}
				}
			}(g)
		}
		wg.Wait()
		oracle := newStateSet[wstate](64)
		want := 0
		for g := 0; g < goroutines; g++ {
			for i := 0; i < perG; i++ {
				if oracle.add(key(pool[(i*(g+3)+g*997)%len(pool)])) {
					want++
				}
			}
		}
		if got := int(fresh.Load()); got != want {
			t.Fatalf("concurrent fresh adds = %d, oracle says %d", got, want)
		}
		if got := s.len(); got != want {
			t.Fatalf("len = %d, oracle cardinality %d", got, want)
		}
		for _, v := range pool {
			if oracle.contains(key(v)) != s.contains(key(v)) {
				t.Fatalf("membership of %#x disagrees with oracle", v)
			}
		}
	})
}

// TestShardedSetProbeWraparound pins the positional window across the
// table's end: synthetic hashes aim every key at the last slot of stripe
// zero, so the probe must wrap to index 0 and keep going. Duplicate
// detection across the wrap is exactly what the bounded-window exactness
// argument requires.
func TestShardedSetProbeWraparound(t *testing.T) {
	t.Run("narrow", func(t *testing.T) {
		s := newShardedU64Set(64) // 16 slots per stripe
		st := &s.stripes[0]
		h := st.mask // home slot = last index of stripe 0
		for k := uint64(1); k <= 10; k++ {
			if !s.addHashed(k, h) {
				t.Fatalf("fresh key %d reported duplicate", k)
			}
		}
		for k := uint64(1); k <= 10; k++ {
			if s.addHashed(k, h) {
				t.Fatalf("duplicate key %d re-admitted across the wrap", k)
			}
		}
		if got := s.len(); got != 10 {
			t.Fatalf("len = %d, want 10", got)
		}
		if st.probes.Load() == 0 {
			t.Fatal("no probe steps recorded despite forced collisions")
		}
	})
	t.Run("wide", func(t *testing.T) {
		s := newShardedWideSet(64)
		st := &s.stripes[0]
		h := st.mask
		key := func(v uint64) wstate { return wstate{v, 0, 0, 1} }
		for v := uint64(1); v <= 10; v++ {
			if !s.addHashed(key(v), h) {
				t.Fatalf("fresh key %d reported duplicate", v)
			}
		}
		for v := uint64(1); v <= 10; v++ {
			if s.addHashed(key(v), h) {
				t.Fatalf("duplicate key %d re-admitted across the wrap", v)
			}
		}
		if got := s.len(); got != 10 {
			t.Fatalf("len = %d, want 10", got)
		}
	})
}

// TestShardedSetOverflowValveAndDrain saturates whole stripes (tables far
// smaller than the key count, windows clamped to the table length) so
// adds fall through to the overflow maps, then checks that quiescent
// reserves fold every parked key back into grown tables with nothing
// lost or double-counted.
func TestShardedSetOverflowValveAndDrain(t *testing.T) {
	const distinct = 5000
	t.Run("narrow", func(t *testing.T) {
		s := newShardedU64Set(64) // 1024 slots total, no reserve: must overflow
		var fresh atomic.Int64
		var wg sync.WaitGroup
		wg.Add(4)
		for g := 0; g < 4; g++ {
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 4*distinct; i++ {
					k := uint64(1 + (i+g*13)%distinct)
					if s.addHashed(k, hashU64(k)) {
						fresh.Add(1)
					}
				}
			}(g)
		}
		wg.Wait()
		if got := int(fresh.Load()); got != distinct {
			t.Fatalf("fresh adds = %d, want %d", got, distinct)
		}
		if s.stats().Overflows == 0 {
			t.Fatal("expected saturated windows to park keys in the overflow maps")
		}
		for i := 0; i < 8 && s.stats().Overflows > 0; i++ {
			s.reserve(0) // quiescent growth drains the overflow
		}
		if ov := s.stats().Overflows; ov != 0 {
			t.Fatalf("overflow maps still hold %d keys after repeated reserves", ov)
		}
		if got := s.len(); got != distinct {
			t.Fatalf("len = %d after drain, want %d", got, distinct)
		}
		for k := uint64(1); k <= distinct; k++ {
			if !s.contains(k) {
				t.Fatalf("key %d lost in the drain", k)
			}
		}
	})
	t.Run("wide", func(t *testing.T) {
		s := newShardedWideSet(64)
		key := func(i int) wstate {
			v := uint64(i)
			return wstate{v, v * 0x9e3779b97f4a7c15, ^v, 1}
		}
		var fresh atomic.Int64
		var wg sync.WaitGroup
		wg.Add(4)
		for g := 0; g < 4; g++ {
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 4*distinct; i++ {
					k := key(1 + (i+g*13)%distinct)
					if s.addHashed(k, hashW(k)) {
						fresh.Add(1)
					}
				}
			}(g)
		}
		wg.Wait()
		if got := int(fresh.Load()); got != distinct {
			t.Fatalf("fresh adds = %d, want %d", got, distinct)
		}
		if s.stats().Overflows == 0 {
			t.Fatal("expected saturated windows to park keys in the overflow maps")
		}
		for i := 0; i < 8 && s.stats().Overflows > 0; i++ {
			s.reserve(0)
		}
		if ov := s.stats().Overflows; ov != 0 {
			t.Fatalf("overflow maps still hold %d keys after repeated reserves", ov)
		}
		if got := s.len(); got != distinct {
			t.Fatalf("len = %d after drain, want %d", got, distinct)
		}
		for i := 1; i <= distinct; i++ {
			if !s.contains(key(i)) {
				t.Fatalf("key %d lost in the drain", i)
			}
		}
	})
}

// TestShardedSetGrowUnderLoad alternates concurrent insertion waves with
// quiescent reserves — the exact rhythm of the BFS drivers (lanes within
// a level, Reserve at the level boundary) — and checks exact cardinality
// and membership after every wave.
func TestShardedSetGrowUnderLoad(t *testing.T) {
	const (
		waves    = 6
		perWave  = 3000
		laneCnt  = 4
		overlapK = 500 // each wave re-offers this many keys of the previous one
	)
	s := newShardedU64Set(64)
	total := 0
	for wave := 0; wave < waves; wave++ {
		s.reserve(perWave) // quiescent, as at a level boundary
		base := wave*perWave - overlapK
		if base < 0 {
			base = 0
		}
		hi := (wave + 1) * perWave
		var fresh atomic.Int64
		var wg sync.WaitGroup
		wg.Add(laneCnt)
		for g := 0; g < laneCnt; g++ {
			go func(g int) {
				defer wg.Done()
				for k := base + 1 + g; k <= hi; k += laneCnt {
					kk := uint64(k)
					if s.addHashed(kk, hashU64(kk)) {
						fresh.Add(1)
					}
				}
			}(g)
		}
		wg.Wait()
		total = hi
		if got := s.len(); got != total {
			t.Fatalf("wave %d: len = %d, want %d", wave, got, total)
		}
	}
	for k := uint64(1); k <= uint64(total); k++ {
		if !s.contains(k) {
			t.Fatalf("key %d missing after %d growth waves", k, waves)
		}
	}
}
