package dverify

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// codecFor builds a frontierCodec over a real expander with the given
// state width: 1 word (narrow triple) or 4 words (7-app wide fleet).
func codecFor(t *testing.T, words int) *frontierCodec {
	t.Helper()
	ps := fleet(3, 5, 2, 4, 20)
	if words == 4 {
		ps = fleet(7, 6, 1, 2, 10)
	}
	exp, err := verify.NewExpander(ps, verify.Config{NondetTies: true})
	if err != nil {
		t.Fatal(err)
	}
	if exp.StateWords() != words {
		t.Fatalf("fixture yields %d-word states, want %d", exp.StateWords(), words)
	}
	return newFrontierCodec(exp)
}

// reachable returns up to n distinct states of exp's state space in BFS
// order. Decoders reject states the expander does not accept as Valid, so
// codec fixtures are drawn from here.
func reachable(t testing.TB, exp *verify.Expander, n int) []verify.PackedState {
	t.Helper()
	seen := exp.NewSet(n)
	out := []verify.PackedState{exp.Initial()}
	seen.Add(out[0])
	sc := exp.NewScratch()
	var succ []verify.HashedState
	for i := 0; i < len(out) && len(out) < n; i++ {
		var app int
		succ, app = exp.SuccessorsHashedInto(out[i], sc, succ[:0])
		if app >= 0 {
			continue
		}
		for _, ns := range succ {
			if len(out) < n && seen.AddHashed(ns.S, ns.H) {
				out = append(out, ns.S)
			}
		}
	}
	return out
}

// randStates builds a reproducible batch of n states drawn from the codec's
// reachable state space, so the delta coder sees realistic input.
func randStates(t testing.TB, rng *rand.Rand, c *frontierCodec, n int) []verify.PackedState {
	pool := reachable(t, c.exp, 2048)
	out := make([]verify.PackedState, n)
	for i := range out {
		out[i] = pool[rng.Intn(len(pool))]
	}
	return out
}

// sortedCopy returns the batch in codec order (the encoder sorts in place,
// so decoded output is compared against this).
func sortedCopy(states []verify.PackedState) []verify.PackedState {
	cp := append([]verify.PackedState(nil), states...)
	slices.SortFunc(cp, func(a, b verify.PackedState) int {
		if verify.LessState(a, b) {
			return -1
		}
		if verify.LessState(b, a) {
			return 1
		}
		return 0
	})
	return cp
}

// TestFrontierCodecRoundTrip drives encode→decode across batch sizes and
// both state widths, checking the decoded states are exactly the sorted
// batch and that large batches actually land on a compressed format.
func TestFrontierCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, words := range []int{1, 4} {
		c := codecFor(t, words)
		for _, n := range []int{0, 1, 2, 33, 4096} {
			states := randStates(t, rng, c, n)
			want := sortedCopy(states)
			enc := c.encode(states, nil)
			if n == 0 {
				if len(enc) != 0 {
					t.Fatalf("words=%d: empty batch encoded to %d bytes", words, len(enc))
				}
				continue
			}
			if n >= 4096 {
				if enc[0] == codecRaw {
					t.Fatalf("words=%d n=%d: large batch fell back to the raw format", words, n)
				}
				if raw := 8 * words * n; len(enc) >= raw {
					t.Fatalf("words=%d n=%d: %d encoded bytes not below the %d-byte raw size", words, n, len(enc), raw)
				}
			}
			dec, err := c.decode(enc, nil)
			if err != nil {
				t.Fatalf("words=%d n=%d: decode: %v", words, n, err)
			}
			if !slices.Equal(dec, want) {
				t.Fatalf("words=%d n=%d: round trip mismatch (%d states back, want %d)", words, n, len(dec), len(want))
			}
		}
	}
}

// TestFrontierCodecDuplicatesSurvive: the codec is not a deduplicator —
// duplicate states (the sender filter is lossy by design) must round-trip.
func TestFrontierCodecDuplicatesSurvive(t *testing.T) {
	c := codecFor(t, 1)
	pool := reachable(t, c.exp, 2)
	lo, hi := pool[0], pool[1]
	if verify.LessState(hi, lo) {
		lo, hi = hi, lo
	}
	states := []verify.PackedState{hi, lo, hi, lo, hi}
	dec, err := c.decode(c.encode(states, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []verify.PackedState{lo, lo, hi, hi, hi}
	if !slices.Equal(dec, want) {
		t.Fatalf("duplicates lost: %v", dec)
	}
}

// TestFrontierCodecRawFallback pins the version-byte dispatch: a batch
// hand-built in the legacy fixed-width format (version byte codecRaw)
// decodes identically to the modern formats, and a one-state batch the
// delta coder cannot shrink falls back to it automatically.
func TestFrontierCodecRawFallback(t *testing.T) {
	c := codecFor(t, 4)
	states := randStates(t, rand.New(rand.NewSource(3)), c, 9)
	want := sortedCopy(states)

	// Hand-encode the legacy format.
	legacy := []byte{codecRaw}
	for _, s := range want {
		for k := 0; k < 4; k++ {
			legacy = binary.LittleEndian.AppendUint64(legacy, s[k])
		}
	}
	dec, err := c.decode(legacy, nil)
	if err != nil {
		t.Fatalf("legacy decode: %v", err)
	}
	if !slices.Equal(dec, want) {
		t.Fatal("legacy batch decoded wrong")
	}

	// A single state using the top bits of its word costs more as a varint
	// than as the raw word, so the encoder itself must emit the raw
	// fallback. Six apps fill a narrow word: the idle occupant field alone
	// sits at bits 54–57, so the initial state's zigzag varint takes 9 bytes.
	exp, err := verify.NewExpander(fleet(6, 5, 2, 4, 20), verify.Config{NondetTies: true})
	if err != nil {
		t.Fatal(err)
	}
	c = newFrontierCodec(exp)
	one := []verify.PackedState{exp.Initial()}
	enc := c.encode(one, nil)
	if enc[0] != codecRaw {
		t.Fatalf("incompressible batch used version %d, want raw fallback", enc[0])
	}
	dec, err = c.decode(enc, nil)
	if err != nil || len(dec) != 1 || dec[0] != one[0] {
		t.Fatalf("raw fallback round trip: %v %v", dec, err)
	}
}

// TestFrontierCodecFlatePath forces the flate format with a highly
// repetitive batch and checks both the format choice and the round trip.
func TestFrontierCodecFlatePath(t *testing.T) {
	c := codecFor(t, 1)
	pool := reachable(t, c.exp, 17)
	states := make([]verify.PackedState, 2048)
	for i := range states {
		states[i] = pool[i%17]
	}
	want := sortedCopy(states)
	enc := c.encode(states, nil)
	if enc[0] != codecFlate {
		t.Fatalf("repetitive batch used version %d, want flate", enc[0])
	}
	dec, err := c.decode(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dec, want) {
		t.Fatal("flate round trip mismatch")
	}
}

// TestFrontierCodecErrors: corrupted batches fail loudly, never silently.
func TestFrontierCodecErrors(t *testing.T) {
	c := codecFor(t, 1)
	if _, err := c.decode([]byte{codecRaw, 1, 2, 3}, nil); err == nil {
		t.Fatal("short raw batch decoded")
	}
	if _, err := c.decode([]byte{codecDelta, 0x80}, nil); err == nil {
		t.Fatal("truncated varint decoded")
	}
	if _, err := c.decode([]byte{99, 1}, nil); err == nil {
		t.Fatal("unknown codec version decoded")
	}
	if _, err := c.decode([]byte{codecFlate, 0xff, 0xff}, nil); err == nil {
		t.Fatal("corrupt flate stream decoded")
	}
}

// TestFrontierCodecAmplificationBound: a crafted decompression bomb — a
// tiny DEFLATE stream inflating far past maxFlateAmplification — must be
// rejected, not buffered (verifyd absorbs batches from the network).
func TestFrontierCodecAmplificationBound(t *testing.T) {
	var bomb bytes.Buffer
	bomb.WriteByte(codecFlate)
	zw, _ := flate.NewWriter(&bomb, flate.BestCompression)
	zeros := make([]byte, 1<<16)
	for written := 0; written < 32<<20; written += len(zeros) { // 32 MiB of zeros
		zw.Write(zeros)
	}
	zw.Close()
	compressed := bomb.Len() - 1
	if int64(32<<20) <= int64(maxFlateAmplification)*int64(compressed+1024) {
		t.Skipf("bomb only reached %dx amplification", (32<<20)/compressed)
	}
	c := codecFor(t, 1)
	if _, err := c.decode(bomb.Bytes(), nil); err == nil {
		t.Fatalf("%d-byte bomb inflating to 32 MiB decoded without error", compressed)
	}
}

// TestSendFilterExactness: a sendFilter hit must imply the exact state was
// inserted before — hash-colliding states may never suppress each other —
// and re-insertion keeps a state resident (recency).
func TestSendFilterExactness(t *testing.T) {
	f := newSendFilter()
	a := verify.PackedState{1}
	h := uint64(0xdeadbeef) << 20 // arbitrary; same index for all probes below
	if f.seen(a, h) {
		t.Fatal("fresh state reported seen")
	}
	if !f.seen(a, h) {
		t.Fatal("repeat not recognised")
	}
	b := verify.PackedState{2}
	if f.seen(b, h) {
		t.Fatal("index-colliding distinct state reported seen")
	}
	// Both now resident in the 2-way set.
	if !f.seen(a, h) || !f.seen(b, h) {
		t.Fatal("2-way residency lost")
	}
	cst := verify.PackedState{3}
	if f.seen(cst, h) {
		t.Fatal("third distinct state reported seen")
	}
	// cst evicted a's older slot; a miss on a re-send is safe by design.
	if !f.seen(b, h) || !f.seen(cst, h) {
		t.Fatal("recency order broken")
	}
}

// TestProtocolVersionHandshake: both mismatch directions must fail loudly
// before any frontier moves — a coordinator rejects a node echoing another
// protocol version, and a node rejects a job carrying one (a PR-3 binary
// has no Proto field and presents as 0 either way).
func TestProtocolVersionHandshake(t *testing.T) {
	job := Job{
		Proto:    0, // what a PR-3 coordinator's gob stream decodes to
		Profiles: []switching.Profile{*prof("A", 5, 2, 4, 20)},
		NumNodes: 1,
	}
	env := loopEnv{&loopGroup{sessions: map[uint64]*loopSession{}}}
	if _, _, err := newMeshWorker(&job, env, nil); err == nil {
		t.Fatal("node accepted a protocol-0 job")
	}
	job.Proto = protoVersion
	mw, _, err := newMeshWorker(&job, env, nil)
	if err != nil {
		t.Fatalf("node rejected the current protocol: %v", err)
	}
	mw.shutdown()

	// A stale worker: answers Init like PR-3 (no Proto echo).
	stale := staleTransport{Loopback(1)[0]}
	defer stale.Close()
	_, err = Verify([]*switching.Profile{prof("A", 5, 2, 4, 20)}, verify.Config{NondetTies: true},
		[]Transport{stale})
	if err == nil || !strings.Contains(err.Error(), "protocol") {
		t.Fatalf("coordinator accepted a protocol-0 worker (err=%v)", err)
	}
}

// staleTransport answers every call like a worker that predates the
// version handshake (no Proto echo). It unwraps to a live loopback node,
// so the cluster forms a mesh and the handshake is what fails.
type staleTransport struct{ Transport }

func (s staleTransport) Call(*Request) (*Response, error) {
	return &Response{ViolApp: -1, Fresh: 1}, nil
}
func (s staleTransport) Unwrap() Transport { return s.Transport }

// TestFlateWriterReuse guards the codec's reused flate coder pair against
// state leaking between batches.
func TestFlateWriterReuse(t *testing.T) {
	c := codecFor(t, 1)
	pool := reachable(t, c.exp, 13)
	for round := 0; round < 3; round++ {
		states := make([]verify.PackedState, 1024)
		for i := range states {
			states[i] = pool[(i+round)%13]
		}
		want := sortedCopy(states)
		dec, err := c.decode(c.encode(states, nil), nil)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !slices.Equal(dec, want) {
			t.Fatalf("round %d: mismatch", round)
		}
	}
	// Sanity: the reused writer produces streams a fresh flate reader
	// accepts (no dictionary carry-over).
	states := make([]verify.PackedState, 1024)
	for i := range states {
		states[i] = pool[i%13]
	}
	enc := c.encode(states, nil)
	if enc[0] == codecFlate {
		fr := flate.NewReader(bytes.NewReader(enc[1:]))
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(fr); err != nil {
			t.Fatalf("fresh flate reader rejects reused writer's stream: %v", err)
		}
	}
}
