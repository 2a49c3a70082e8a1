package mapping

// Admission memoization: slot-sharing verification is by far the most
// expensive step of dimensioning, and both the first-fit heuristic and the
// exact DP partitioner — let alone repeated experiment sweeps — keep asking
// the verifier about profile sets they have asked about before. The cache
// keys each admission question by a canonical, order-independent fingerprint
// of the profile set, salted with a fingerprint of the verification
// configuration, so any permutation of the same profiles (and any
// recomputation of identical profiles) reuses the stored verdict while runs
// that verify differently never cross-contaminate.
//
// Concurrent misses on one key coalesce: the first caller runs the verifier,
// the rest wait for its verdict (singleflight), so the expensive admission
// question runs once no matter how many engine workers ask it at the same
// time. Caches also serialize — Save/Load move the verdict map through a
// versioned, length-prefixed binary format so repeated CLI invocations and
// CI sweeps start warm.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"sync"

	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// mix64 is the splitmix64 finalizer, used to scatter fingerprint words.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// profileFingerprint hashes the admission-relevant content of one profile:
// timing parameters and the full T*w/Tdw tables. The name is deliberately
// excluded — admission verdicts depend only on profile content, so fleet
// instances of one design (identical tables, distinct names) share cache
// entries. A fleet's k-th admission check then hits the verdict computed
// for the first k instances regardless of which instances fill the slot,
// which collapses the dimensioning of large synthetic workloads from
// O(instances × slots) verifications to one per distinct slot shape.
func profileFingerprint(p *switching.Profile) uint64 {
	h := uint64(1469598103934665603) // FNV-64 offset basis
	word := func(v int) {
		h = mix64(h ^ uint64(int64(v))*0x9e3779b97f4a7c15)
	}
	word(p.R)
	word(p.JStar)
	word(p.TwStar)
	word(p.Granularity)
	word(len(p.TdwMinus))
	for _, v := range p.TdwMinus {
		word(v)
	}
	word(len(p.TdwPlus))
	for _, v := range p.TdwPlus {
		word(v)
	}
	return h
}

// Fingerprint returns a canonical fingerprint of a profile set: per-profile
// hashes combined commutatively (sum and rotated xor), so every permutation
// of the same profiles yields the same key while sets differing in any
// profile's tables or timing parameters yield different keys (modulo 64-bit
// collisions). Names do not participate: sets that differ only in which
// fleet instances of a design they contain share one key.
func Fingerprint(profiles []*switching.Profile) uint64 {
	var sum, xor uint64
	for _, p := range profiles {
		h := profileFingerprint(p)
		sum += h
		xor ^= bits.RotateLeft64(h, 17)
	}
	return mix64(sum ^ bits.RotateLeft64(xor, 32) ^ uint64(len(profiles))*0x9e3779b97f4a7c15)
}

// VerifyConfigKey fingerprints the verdict-relevant fields of a
// verification config — policy, disturbance bound, tie exploration and the
// state budget (sweeps reject conservatively on a busted budget, making
// their cached verdicts budget-dependent) — plus any extra salts the caller
// folds in (e.g. the cluster size of a distributed run, whose per-node
// budget scales aggregate capacity). Workers, Trace, SymmetryReduction and
// Distributed do not change verdicts and are excluded, so warm caches carry
// across those knobs.
func VerifyConfigKey(cfg verify.Config, extra ...uint64) uint64 {
	h := uint64(0x5107ad3415510c4e) // arbitrary nonzero seed
	word := func(v uint64) {
		h = mix64(h ^ v*0x9e3779b97f4a7c15)
	}
	word(uint64(cfg.MaxDisturbances))
	word(uint64(cfg.Policy))
	if cfg.NondetTies {
		word(1)
	} else {
		word(2)
	}
	word(uint64(cfg.MaxStates))
	for _, e := range extra {
		word(e)
	}
	return h
}

// inflight is one running admission question; waiters block on done and
// read the leader's outcome.
type inflight struct {
	done    chan struct{}
	verdict bool
	err     error
}

// Cache memoizes admission verdicts across FirstFit attempts, the DP
// partitioner's subset enumeration, and repeated dimensioning runs. It is
// safe for concurrent use; concurrent misses on one key run the verifier
// once. Verification errors are not cached (waiters coalesced onto a
// failing run do receive its error).
//
// Keys cover the profile set and the config salt the cache was built with
// (NewCacheFor); the zero salt of NewCache means "unspecified config" and
// must not be mixed with differently-configured runs.
type Cache struct {
	mu       sync.Mutex
	cfgKey   uint64
	verdicts map[uint64]bool
	running  map[uint64]*inflight

	// dirty marks the fingerprint-prefix shards whose verdicts changed
	// since the last SaveDir, so a hot service checkpoints incrementally:
	// only the shard files behind new verdicts are rewritten.
	dirty [SaveShards]bool

	hits, misses, coalesced int
}

// NewCache returns an empty admission cache with no config salt.
func NewCache() *Cache { return NewCacheFor(0) }

// NewCacheFor returns an empty admission cache whose keys are salted with
// cfgKey (see VerifyConfigKey), making serialized caches safe across runs:
// a cache file produced under one verification config never answers for
// another.
func NewCacheFor(cfgKey uint64) *Cache {
	return &Cache{
		cfgKey:   cfgKey,
		verdicts: map[uint64]bool{},
		running:  map[uint64]*inflight{},
	}
}

// key folds the config salt into the profile-set fingerprint.
func (c *Cache) key(profiles []*switching.Profile) uint64 {
	k := Fingerprint(profiles)
	if c.cfgKey != 0 {
		k = mix64(k ^ c.cfgKey)
	}
	return k
}

// Do answers the admission question for the profile set, consulting the
// cache before falling back to vf. Exactly one caller per key runs the
// verifier at a time: concurrent misses wait for the in-flight run and
// share its verdict (or its error), counted in Stats as coalesced.
func (c *Cache) Do(profiles []*switching.Profile, vf VerifyFunc) (bool, error) {
	key := c.key(profiles)
	c.mu.Lock()
	if ok, hit := c.verdicts[key]; hit {
		c.hits++
		c.mu.Unlock()
		return ok, nil
	}
	if fl, running := c.running[key]; running {
		c.coalesced++
		c.mu.Unlock()
		<-fl.done
		return fl.verdict, fl.err
	}
	fl := &inflight{done: make(chan struct{})}
	c.running[key] = fl
	c.mu.Unlock()

	ok, err := vf(profiles)

	c.mu.Lock()
	delete(c.running, key)
	if err == nil {
		c.verdicts[key] = ok
		c.dirty[shardOf(key)] = true
		c.misses++
	}
	c.mu.Unlock()
	fl.verdict, fl.err = ok, err
	close(fl.done)
	if err != nil {
		return false, err
	}
	return ok, nil
}

// Wrap returns a VerifyFunc that memoizes vf through the cache.
func (c *Cache) Wrap(vf VerifyFunc) VerifyFunc {
	return func(profiles []*switching.Profile) (bool, error) {
		return c.Do(profiles, vf)
	}
}

// Stats returns the cumulative hit, miss and coalesced-wait counts. A
// coalesced wait is a miss that piggybacked on an in-flight verification
// instead of running its own.
func (c *Cache) Stats() (hits, misses, coalesced int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.coalesced
}

// Len returns the number of cached verdicts.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.verdicts)
}

// Serialization format (little-endian throughout):
//
//	magic   [8]byte  "TCPSADM\x01"   (format version in the last byte)
//	cfgKey  uint64   config salt the cache was built with
//	count   uint64   length prefix of the entry block
//	entry   count × { key uint64, verdict uint8 }
var cacheMagic = [8]byte{'T', 'C', 'P', 'S', 'A', 'D', 'M', 1}

// ErrCacheConfig is returned by Load when the file was produced under a
// different verification config (mismatched salt): its verdicts would be
// unsound to reuse, so none are loaded.
var ErrCacheConfig = errors.New("mapping: cache file was produced under a different verification config")

// Save writes every cached verdict to w in the versioned binary format.
// In-flight verifications and hit/miss statistics are not persisted.
func (c *Cache) Save(w io.Writer) error { return c.save(w, -1) }

// save writes the verdicts of one fingerprint-prefix shard (or all of
// them, shard < 0) to w.
func (c *Cache) save(w io.Writer, shard int) error {
	c.mu.Lock()
	cfgKey := c.cfgKey
	entries := make([]uint64, 0, 2*len(c.verdicts))
	for k, ok := range c.verdicts {
		if shard >= 0 && shardOf(k) != shard {
			continue
		}
		v := uint64(0)
		if ok {
			v = 1
		}
		entries = append(entries, k, v)
	}
	c.mu.Unlock()

	buf := make([]byte, 0, 24+9*len(entries)/2)
	buf = append(buf, cacheMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, cfgKey)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(entries)/2))
	for i := 0; i < len(entries); i += 2 {
		buf = binary.LittleEndian.AppendUint64(buf, entries[i])
		buf = append(buf, byte(entries[i+1]))
	}
	_, err := w.Write(buf)
	return err
}

// Load merges the verdicts serialized in r into the cache. The file's
// config salt must match the cache's (ErrCacheConfig otherwise); existing
// entries win over file entries with the same key, so loading after a few
// fresh verifications never regresses them. Loaded entries count as dirty
// — a following SaveDir carries them into the shard layout — so a legacy
// single-file cache converts by Load + SaveDir.
func (c *Cache) Load(r io.Reader) error { return c.load(r, true) }

func (c *Cache) load(r io.Reader, markDirty bool) error {
	var header [24]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return fmt.Errorf("mapping: reading cache header: %w", err)
	}
	if [8]byte(header[:8]) != cacheMagic {
		return fmt.Errorf("mapping: not an admission cache file (bad magic %q)", header[:8])
	}
	cfgKey := binary.LittleEndian.Uint64(header[8:16])
	count := binary.LittleEndian.Uint64(header[16:24])
	if cfgKey != c.cfgKey {
		return fmt.Errorf("%w: file salt %#x, cache salt %#x", ErrCacheConfig, cfgKey, c.cfgKey)
	}
	// The count is untrusted until the records behind it materialize: read
	// in fixed-size chunks so a corrupt header fails with a read error
	// instead of a giant up-front allocation.
	const chunkRecords = 4096
	var body [9 * chunkRecords]byte
	c.mu.Lock()
	defer c.mu.Unlock()
	for read := uint64(0); read < count; {
		n := count - read
		if n > chunkRecords {
			n = chunkRecords
		}
		chunk := body[:9*n]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return fmt.Errorf("mapping: reading cache entries %d..%d of %d: %w", read, read+n, count, err)
		}
		for i := uint64(0); i < n; i++ {
			rec := chunk[9*i:]
			key := binary.LittleEndian.Uint64(rec)
			if _, exists := c.verdicts[key]; !exists {
				c.verdicts[key] = rec[8] != 0
				if markDirty {
					c.dirty[shardOf(key)] = true
				}
			}
		}
		read += n
	}
	return nil
}

// Sharded persistence: a long-running admission service cannot afford to
// rewrite one monolithic cache file on every checkpoint, so SaveDir
// partitions the verdict map into SaveShards files by fingerprint prefix
// (the top bits of the salted key) and rewrites only the shards dirtied
// since the previous checkpoint. Each shard file is a complete,
// independently-loadable cache file in the versioned format above.

// SaveShards is the fingerprint-prefix fan-out of SaveDir: keys land in
// shard key>>60, so one shard holds ~1/16 of the verdicts and a checkpoint
// after a handful of fresh admissions rewrites a few small files instead
// of the whole cache.
const SaveShards = 16

func shardOf(key uint64) int { return int(key >> 60) }

// shardPath names shard files so LoadDir can enumerate them without
// globbing: admit-00.shard .. admit-0f.shard.
func shardPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("admit-%02x.shard", shard))
}

// SaveDir checkpoints the cache into dir (created if missing), rewriting
// only the shards with verdicts added since the last SaveDir. Each shard
// file is written atomically via a sibling temp file. It returns how many
// shard files were rewritten — 0 means the checkpoint was free.
func (c *Cache) SaveDir(dir string) (written int, err error) {
	c.mu.Lock()
	var todo []int
	for s, d := range c.dirty {
		if d {
			todo = append(todo, s)
			c.dirty[s] = false
		}
	}
	c.mu.Unlock()
	if len(todo) == 0 {
		return 0, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		c.remarkDirty(todo)
		return 0, err
	}
	for _, s := range todo {
		if err := c.saveShardFile(dir, s); err != nil {
			c.remarkDirty(todo[written:])
			return written, err
		}
		written++
	}
	return written, nil
}

// remarkDirty restores dirty flags after a failed checkpoint so the next
// SaveDir retries the unwritten shards.
func (c *Cache) remarkDirty(shards []int) {
	c.mu.Lock()
	for _, s := range shards {
		c.dirty[s] = true
	}
	c.mu.Unlock()
}

func (c *Cache) saveShardFile(dir string, shard int) error {
	path := shardPath(dir, shard)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := c.save(f, shard); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadDir merges every shard file present in dir into the cache,
// returning how many files were read. A missing directory (or one with no
// shard files) is the cold-start case and reports 0 without error. A
// corrupt or config-mismatched shard does not abort the load: the healthy
// shards still warm-start the service — losing one shard's verdicts only
// costs re-verification, never correctness — and the joined error names
// every bad shard so the operator sees the damage. Entries loaded from
// dir are clean — they are already on disk in this layout — so a
// following SaveDir does not rewrite them (a corrupt shard file is
// likewise left in place until its entries are re-earned and re-saved).
func (c *Cache) LoadDir(dir string) (loaded int, err error) {
	var bad []error
	for s := 0; s < SaveShards; s++ {
		f, ferr := os.Open(shardPath(dir, s))
		if errors.Is(ferr, os.ErrNotExist) {
			continue
		}
		if ferr != nil {
			bad = append(bad, ferr)
			continue
		}
		ferr = c.load(f, false)
		f.Close()
		if ferr != nil {
			bad = append(bad, fmt.Errorf("mapping: cache shard %02x: %w", s, ferr))
			continue
		}
		loaded++
	}
	return loaded, errors.Join(bad...)
}

// SaveFile writes the cache to path (atomically via a sibling temp file).
func (c *Cache) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := c.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile merges the cache file at path. A missing file is not an error —
// it is the cold-start case — and reports false; any other failure
// (corruption, config mismatch) is returned.
func (c *Cache) LoadFile(path string) (loaded bool, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	defer f.Close()
	if err := c.Load(f); err != nil {
		return false, err
	}
	return true, nil
}
