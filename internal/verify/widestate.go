package verify

// Multi-word ("wide") packed encoding: application sets whose composed
// state exceeds 64 bits are packed into a fixed-size array of words.
// Applications occupy straddle-free lanes of appBits bits each,
// ⌊64/appBits⌋ lanes per word, filling words 0..wideAppWords−1; the final
// header word carries the occupant index (low byte, 0xFF = slot idle) and
// the occupant dwell cT (next 4 bits). See DESIGN.md for the field diagram.
//
// The all-zero wstate is unreachable — an idle slot stores 0xFF in the
// header, and any occupied slot puts phase pGranted (2) in the occupant's
// lane — so zero doubles as the empty-slot sentinel of the open-addressing
// sets, exactly as it does for the one-word encoding.

const (
	wideWords    = 4             // words per wide state (32 bytes)
	wideAppWords = wideWords - 1 // words carrying application lanes
	wideIdle     = 0xFF          // header occupant byte when the slot is idle
)

// wstate is the multi-word packed composed state. It is comparable, so it
// keys Go maps (trace parents) and compares with == in the hash sets.
type wstate [wideWords]uint64

func (v *Verifier) packWide(c *cstate) wstate {
	var s wstate
	for i := 0; i < v.n; i++ {
		f := uint64(c.phase[i]) | uint64(c.val[i])<<phaseBits
		if v.cfg.MaxDisturbances > 0 {
			f |= uint64(c.cnt[i]) << (phaseBits + valBits)
		}
		s[i/v.lanes] |= f << (uint(i%v.lanes) * v.appBits)
	}
	occ := uint64(wideIdle)
	if c.occ >= 0 {
		occ = uint64(c.occ)
	}
	s[wideAppWords] = occ | uint64(c.cT)<<8
	return s
}

func (v *Verifier) unpackWide(s wstate, c *cstate) {
	for i := 0; i < v.n; i++ {
		f := s[i/v.lanes] >> (uint(i%v.lanes) * v.appBits)
		c.phase[i] = uint8(f & (1<<phaseBits - 1))
		c.val[i] = uint8(f >> phaseBits & (1<<valBits - 1))
		if v.cfg.MaxDisturbances > 0 {
			c.cnt[i] = uint8(f >> (phaseBits + valBits) & (1<<cntBits - 1))
		} else {
			c.cnt[i] = 0
		}
	}
	h := s[wideAppWords]
	if h&0xFF == wideIdle {
		c.occ = -1
	} else {
		c.occ = int8(h & 0xFF)
	}
	c.cT = uint8(h >> 8 & 0xF)
}

// hashW chains the splitmix64 finalizer across the words, so every bit of
// every word diffuses into the shard selector and the probe index.
func hashW(s wstate) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range s {
		h = hashU64(h ^ w)
	}
	return h
}

// lessW orders wide states lexicographically (word 0 most significant) —
// the order lessState and LessState apply to every encoding.
func lessW(a, b wstate) bool {
	for i := 0; i < wideWords; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
