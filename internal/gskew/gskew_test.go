package gskew

import (
	"testing"

	"prophetcritic/internal/gshare"
	"prophetcritic/internal/history"
	"prophetcritic/internal/predictor"
)

var _ predictor.Predictor = (*Gskew)(nil)

func runPattern(p predictor.Predictor, addr uint64, n int, outcome func(step int, hist uint64) bool) float64 {
	h := history.New(p.HistoryLen())
	correct, measured := 0, 0
	warm := n * 3 / 4
	for i := 0; i < n; i++ {
		hv := h.Value()
		o := outcome(i, hv)
		if i >= warm {
			measured++
			if p.Predict(addr, hv) == o {
				correct++
			}
		}
		p.Update(addr, hv, o)
		h.Push(o)
	}
	return float64(correct) / float64(measured)
}

func TestLearnsBias(t *testing.T) {
	g := New(10, 10)
	acc := runPattern(g, 0x4040, 1000, func(int, uint64) bool { return true })
	if acc < 0.999 {
		t.Fatalf("2Bc-gskew should learn always-taken, accuracy %.3f", acc)
	}
}

func TestLearnsPeriodicPattern(t *testing.T) {
	g := New(12, 12)
	acc := runPattern(g, 0x4040, 8000, func(step int, _ uint64) bool { return step%7 != 0 })
	if acc < 0.99 {
		t.Fatalf("2Bc-gskew should learn a period-7 loop, accuracy %.3f", acc)
	}
}

func TestMajorityVote(t *testing.T) {
	if majority(true, true, false) != true || majority(false, false, true) != false || majority(true, true, true) != true {
		t.Fatal("majority vote wrong")
	}
}

func TestSkewedIndexesDiffer(t *testing.T) {
	g := New(12, 12)
	distinct := 0
	for i := uint64(0); i < 1000; i++ {
		addr := i*0x40 + 0x1000
		hist := i * 2654435761
		f := foldAddr(addr, g.indexBits)
		i0 := g.idxG0(f, hist)
		i1 := g.idxG1(f, hist)
		im := g.idxMeta(f, hist)
		if i0 != i1 || i1 != im {
			distinct++
		}
	}
	if distinct < 950 {
		t.Fatalf("skewing hash functions should disagree on most inputs; only %d/1000 differ", distinct)
	}
}

// 2Bc-gskew's de-aliasing claim: a pair of branches that collide in one
// gshare-like table should still be predicted well thanks to the majority
// vote and the bimodal fallback. Compare against a single gshare of the
// same per-table size under a colliding workload.
func TestDealiasingBeatsGshareUnderConflict(t *testing.T) {
	const idxBits, hist = 6, 6 // deliberately tiny to force conflicts
	gk := New(idxBits, hist)
	gs := gshare.New(idxBits, hist)

	// Many branches with opposing fixed biases, colliding heavily in 64
	// entries.
	branches := make([]uint64, 48)
	for i := range branches {
		branches[i] = uint64(0x1000 + i*4)
	}
	score := func(p predictor.Predictor) float64 {
		h := history.New(hist)
		correct, total := 0, 0
		for round := 0; round < 400; round++ {
			for bi, addr := range branches {
				o := bi%2 == 0 // alternate biases across branches
				if round > 100 {
					total++
					if p.Predict(addr, h.Value()) == o {
						correct++
					}
				}
				p.Update(addr, h.Value(), o)
				h.Push(o)
			}
		}
		return float64(correct) / float64(total)
	}
	accGskew := score(gk)
	accGshare := score(gs)
	if accGskew < accGshare-0.02 {
		t.Fatalf("2Bc-gskew (%.3f) should not lose clearly to equal-table gshare (%.3f) under aliasing", accGskew, accGshare)
	}
	if accGskew < 0.90 {
		t.Fatalf("2Bc-gskew should absorb this conflict workload, accuracy %.3f", accGskew)
	}
}

func TestSizeBitsTable3(t *testing.T) {
	// Table 3: 2Bc-gskew 2KB=2K entries/table h11 ... 32KB=32K entries h15.
	cases := []struct {
		kb        int
		indexBits uint
		hist      uint
	}{{2, 11, 11}, {4, 12, 12}, {8, 13, 13}, {16, 14, 14}, {32, 15, 15}}
	for _, c := range cases {
		g := New(c.indexBits, c.hist)
		if got := g.SizeBits(); got != c.kb*8192 {
			t.Errorf("%dKB 2Bc-gskew: SizeBits=%d want %d", c.kb, got, c.kb*8192)
		}
	}
}

func TestPredictIsPure(t *testing.T) {
	g := New(10, 10)
	before := g.Predict(0x123, 0x3FF)
	for i := 0; i < 100; i++ {
		g.Predict(0x123, 0x3FF)
	}
	if g.Predict(0x123, 0x3FF) != before {
		t.Fatal("Predict must be repeatable without updates")
	}
}

func TestBadIndexBitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("indexBits 0 must panic")
		}
	}()
	New(0, 4)
}
