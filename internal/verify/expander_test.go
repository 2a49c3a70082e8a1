package verify

import (
	"sort"
	"testing"

	"tightcps/internal/switching"
)

// TestExpanderMatchesInternalSuccessors pins the seam to the internal
// expansion core: the exported SuccessorsHashedInto must produce exactly
// the packed states expand() leaves in the arena, embedded in word 0 on
// the narrow path.
func TestExpanderMatchesInternalSuccessors(t *testing.T) {
	ps := []*switching.Profile{prof("A", 2, 2, 3, 15), prof("B", 6, 2, 4, 25), prof("C", 9, 3, 5, 30)}
	v, err := New(ps, Config{NondetTies: true})
	if err != nil {
		t.Fatal(err)
	}
	e := v.Expander()
	if e.Wide() || e.StateWords() != 1 {
		t.Fatalf("narrow triple reported wide=%v words=%d", e.Wide(), e.StateWords())
	}
	idle := cstate{occ: -1}
	init := v.pack(&idle)
	if e.Initial() != (PackedState{init}) {
		t.Fatalf("Initial() = %v, want word0 %d", e.Initial(), init)
	}
	var sc expandScratch
	v.unpack(init, &sc.base)
	if viol := v.expand(&sc.base, &sc); viol >= 0 {
		t.Fatal("initial state violated")
	}
	var want []uint64
	for i := range sc.states {
		want = append(want, v.pack(&sc.states[i]))
	}
	got, app := e.SuccessorsHashedInto(PackedState{init}, e.NewScratch(), nil)
	if app != -1 {
		t.Fatalf("SuccessorsHashedInto reported violator %d", app)
	}
	if len(got) != len(want) {
		t.Fatalf("%d successors via the seam, %d internally", len(got), len(want))
	}
	gw := make([]uint64, len(got))
	for i, s := range got {
		if s.S[1]|s.S[2]|s.S[3] != 0 {
			t.Fatalf("narrow successor %v has nonzero high words", s.S)
		}
		gw[i] = s.S[0]
	}
	sort.Slice(gw, func(a, b int) bool { return gw[a] < gw[b] })
	ww := append([]uint64(nil), want...)
	sort.Slice(ww, func(a, b int) bool { return ww[a] < ww[b] })
	for i := range ww {
		if gw[i] != ww[i] {
			t.Fatalf("successor sets differ at %d: %d vs %d", i, gw[i], ww[i])
		}
	}
}

// TestExpanderViolationSurfaces: the seam reports the same violating app
// the internal expansion finds.
func TestExpanderViolationSurfaces(t *testing.T) {
	ps := []*switching.Profile{prof("A", 0, 3, 5, 20), prof("B", 0, 3, 5, 20)}
	v, err := New(ps, Config{NondetTies: true})
	if err != nil {
		t.Fatal(err)
	}
	e := v.Expander()
	// Walk until a violation: BFS over the seam only.
	seen := e.NewSet(64)
	frontier := []PackedState{e.Initial()}
	seen.Add(frontier[0])
	sc := e.NewScratch()
	var succ []HashedState
	for len(frontier) > 0 {
		var next []PackedState
		for _, s := range frontier {
			var app int
			succ, app = e.SuccessorsHashedInto(s, sc, succ[:0])
			if app >= 0 {
				return // violation surfaced, as expected for the overload pair
			}
			for _, ns := range succ {
				if seen.AddHashed(ns.S, ns.H) {
					next = append(next, ns.S)
				}
			}
		}
		frontier = next
	}
	t.Fatal("overloaded pair never violated through the seam")
}

// TestExpanderBatchRoundTrip covers the wire codec on both encodings,
// including the stride-mismatch error.
func TestExpanderBatchRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		ps   []*switching.Profile
		wide bool
	}{
		{"narrow", fleet(3, 5, 2, 4, 20), false},
		{"wide", fleet(7, 6, 1, 2, 10), true},
	} {
		e, err := NewExpander(tc.ps, Config{NondetTies: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if e.Wide() != tc.wide {
			t.Fatalf("%s: wide=%v", tc.name, e.Wide())
		}
		succ, app := e.SuccessorsHashedInto(e.Initial(), e.NewScratch(), nil)
		if app >= 0 {
			t.Fatalf("%s: initial expansion violated", tc.name)
		}
		states := make([]PackedState, len(succ))
		for i := range succ {
			states[i] = succ[i].S
		}
		var b []byte
		for _, s := range states {
			b = e.AppendState(b, s)
		}
		if len(b) != len(states)*8*e.StateWords() {
			t.Fatalf("%s: batch is %d bytes for %d states of %d words", tc.name, len(b), len(states), e.StateWords())
		}
		back, err := e.DecodeStates(b, nil)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if len(back) != len(states) {
			t.Fatalf("%s: %d states decoded, want %d", tc.name, len(back), len(states))
		}
		for i := range back {
			if back[i] != states[i] {
				t.Fatalf("%s: state %d round trip: %v vs %v", tc.name, i, back[i], states[i])
			}
		}
		if _, err := e.DecodeStates(b[:len(b)-1], nil); err == nil {
			t.Fatalf("%s: truncated batch decoded without error", tc.name)
		}
	}
}

// TestSuccessorsHashedIntoMatches pins the batched-hashing contract of
// the mesh workers' hot path on both encodings: every successor carries
// exactly its Expander.Hash and is Valid, and a violation leaves out
// unchanged.
func TestSuccessorsHashedIntoMatches(t *testing.T) {
	for _, tc := range []struct {
		name string
		ps   []*switching.Profile
	}{
		{"narrow", fleet(3, 5, 2, 4, 20)},
		{"wide", fleet(7, 6, 1, 2, 10)},
		{"overload", fleet(2, 0, 3, 5, 20)},
	} {
		e, err := NewExpander(tc.ps, Config{NondetTies: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sc := e.NewScratch()
		frontier := []PackedState{e.Initial()}
		seen := e.NewSet(64)
		seen.Add(frontier[0])
		violated := false
		for level := 0; level < 3 && len(frontier) > 0; level++ {
			var next []PackedState
			for _, s := range frontier {
				// Keep one stale entry in front: a violation must not touch it.
				hashed, app := e.SuccessorsHashedInto(s, sc, []HashedState{{S: s}})
				if app >= 0 {
					violated = true
					if len(hashed) != 1 || hashed[0].S != s {
						t.Fatalf("%s: violation changed out to %v", tc.name, hashed)
					}
					continue
				}
				for _, ns := range hashed[1:] {
					if ns.H != e.Hash(ns.S) {
						t.Fatalf("%s: successor %v: carried hash %#x, Hash says %#x", tc.name, ns.S, ns.H, e.Hash(ns.S))
					}
					if !e.Valid(ns.S) {
						t.Fatalf("%s: successor %v is not Valid", tc.name, ns.S)
					}
					if seen.Add(ns.S) {
						next = append(next, ns.S)
					}
				}
			}
			frontier = next
		}
		if tc.name == "overload" && !violated {
			t.Fatalf("%s: no violation within three levels", tc.name)
		}
	}
}

// TestLessStateMatchesEncodings: the exported order must coincide with the
// raw uint64 order on narrow embeddings and lessW on wide states.
func TestLessStateMatchesEncodings(t *testing.T) {
	if !LessState(PackedState{1}, PackedState{2}) || LessState(PackedState{2}, PackedState{1}) {
		t.Fatal("narrow embedding order broken")
	}
	a := PackedState{1, 9, 0, 0}
	b := PackedState{2, 0, 0, 0}
	if !LessState(a, b) || LessState(b, a) {
		t.Fatal("word-0-most-significant order broken")
	}
	if LessState(a, a) {
		t.Fatal("irreflexivity broken")
	}
	if lessW(wstate{3, 4, 5, 6}, wstate{3, 4, 5, 5}) != LessState(PackedState{3, 4, 5, 6}, PackedState{3, 4, 5, 5}) {
		t.Fatal("LessState disagrees with lessW")
	}
}
