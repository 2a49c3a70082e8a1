package dverify

import (
	"testing"

	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// FuzzDecodeExpand drives untrusted frontier bytes the way a TCP peer frame
// does: through the codec's decode, then through the expansion core for
// every decoded state that passes the validity check. Neither step may
// panic, and a batch that decodes without error must hold only valid
// states. Each input runs against a two-app narrow slot and a seven-app
// wide one; the seed corpus in testdata holds the two states that used to
// panic the core.
func FuzzDecodeExpand(f *testing.F) {
	var exps []*verify.Expander
	for _, ps := range [][]*switching.Profile{fleet(2, 6, 1, 2, 10), fleet(7, 6, 1, 2, 10)} {
		exp, err := verify.NewExpander(ps, verify.Config{NondetTies: true})
		if err != nil {
			f.Fatal(err)
		}
		exps = append(exps, exp)
		f.Add(newFrontierCodec(exp).encode(reachable(f, exp, 64), nil))
	}
	f.Fuzz(func(t *testing.T, batch []byte) {
		for _, exp := range exps {
			states, err := newFrontierCodec(exp).decode(batch, nil)
			sc := exp.NewScratch()
			var succ []verify.HashedState
			for _, s := range states {
				if !exp.Valid(s) {
					if err == nil {
						t.Fatalf("batch decoded without error but holds invalid state %x", s)
					}
					continue
				}
				succ, _ = exp.SuccessorsHashedInto(s, sc, succ[:0])
			}
		}
	})
}
