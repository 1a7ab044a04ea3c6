package gskew

import (
	"math/bits"
	"math/rand/v2"
	"sync"
	"testing"

	"prophetcritic/internal/bitutil"
	"prophetcritic/internal/program"
	"prophetcritic/internal/trace/tracetest"
)

// refIndices is the address-fed index math written out from the hash
// definitions, independent of foldAddr and the per-block tables.
func refIndices(addr, hist uint64, indexBits, histLen uint) (iB, i0, i1, iM uint64) {
	m := bitutil.Mask(indexBits)
	h := hist & bitutil.Mask(histLen)
	a := addr >> 2
	iB = bitutil.Fold(a, indexBits)
	i0 = bitutil.IndexHash(addr, h, indexBits)
	i1 = (bitutil.Fold(bits.RotateLeft64(a, 5), indexBits) ^
		bitutil.Fold(bits.RotateLeft64(h, 3)*0x9e3779b97f4a7c15, indexBits)) & m
	iM = (bitutil.Fold(bits.RotateLeft64(a, 11), indexBits) ^ bitutil.Fold(h>>1, indexBits)) & m
	return
}

// TestBlockFoldsMatchAddressFed is the property behind Bind: for every
// block of the paper's benchmarks and of an inferred-CFG replay, at
// random histories, the indices computed from the per-block folds equal
// the address-fed ones and the hash definitions. The geometries include
// the ones no Table 3 cell reaches: histLen > indexBits (G0 folds
// history), histLen > indexBits+1 (META folds history) and histLen >
// maxHistTableBits (no g1Hist table).
func TestBlockFoldsMatchAddressFed(t *testing.T) {
	progs := []*program.Program{program.MustLoad("swim"), program.MustLoad("gcc"), program.MustLoad("msvc7")}
	progs = append(progs, tracetest.Inferred(t, progs[1], 20000))
	geoms := []struct{ indexBits, histLen uint }{
		{10, 10}, {13, 13}, // Table 3 cells: history as wide as the index
		{8, 9},   // histLen == indexBits+1: G0 folds, META does not
		{8, 14},  // histLen > indexBits+1: both fold
		{11, 20}, // histLen > maxHistTableBits: g1Hist == nil
		{3, 63},
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for _, p := range progs {
		blocks := p.Blocks()
		if len(blocks) == 0 {
			t.Fatalf("%s: no blocks", p.Name)
		}
		for _, geo := range geoms {
			g := New(geo.indexBits, geo.histLen)
			if (g.g1Hist == nil) != (geo.histLen > maxHistTableBits) {
				t.Fatalf("indexBits %d histLen %d: g1Hist tabulated = %v", geo.indexBits, geo.histLen, g.g1Hist != nil)
			}
			b := g.Bind(p)
			if len(b.folds) != len(blocks) {
				t.Fatalf("%s: %d folds for %d blocks", p.Name, len(b.folds), len(blocks))
			}
			for i, blk := range blocks {
				addrF := foldAddr(blk.Addr, g.indexBits)
				if b.folds[i] != addrF {
					t.Fatalf("%s block %d: per-block folds %+v, address-fed %+v", p.Name, i, b.folds[i], addrF)
				}
				for k := 0; k < 8; k++ {
					hist := rng.Uint64()
					wB, w0, w1, wM := refIndices(blk.Addr, hist, geo.indexBits, geo.histLen)
					for _, f := range []addrFolds{b.folds[i], addrF} {
						iB, i0, i1, iM := g.idxBim(f), g.idxG0(f, hist), g.idxG1(f, hist), g.idxMeta(f, hist)
						if iB != wB || i0 != w0 || i1 != w1 || iM != wM {
							t.Fatalf("%s block %d (ib %d, h %d, hist %#x): indices %d/%d/%d/%d, want %d/%d/%d/%d",
								p.Name, i, geo.indexBits, geo.histLen, hist, iB, i0, i1, iM, wB, w0, w1, wM)
						}
					}
				}
			}
		}
	}
}

// Per-block folds and g1Hist tables are shared, not rebuilt: every
// Gskew of one geometry reads the same g1Hist, and every Bind of one
// table size over one program reads the same fold table.
func TestTablesShared(t *testing.T) {
	p := program.MustLoad("gcc")
	a, b := New(12, 12), New(12, 12)
	if &a.g1Hist[0] != &b.g1Hist[0] {
		t.Error("two Gskews of one geometry built separate g1Hist tables")
	}
	if &a.Bind(p).folds[0] != &b.Bind(p).folds[0] {
		t.Error("two Binds of one table size built separate fold tables")
	}
	if c := New(12, 9); &c.Bind(p).folds[0] != &a.Bind(p).folds[0] {
		t.Error("fold table not shared across history lengths of one table size")
	}
	if d := New(11, 11); &d.Bind(p).folds[0] == &a.Bind(p).folds[0] {
		t.Error("fold tables of different table sizes aliased")
	}
}

// Gskews of one geometry built concurrently (as the pool builds a
// sweep's hybrids) still share one g1Hist table.
func TestG1HistSharedAcrossGoroutines(t *testing.T) {
	gs := make([]*Gskew, 8)
	var wg sync.WaitGroup
	for i := range gs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gs[i] = New(9, 7)
		}()
	}
	wg.Wait()
	for i, g := range gs {
		if &g.g1Hist[0] != &gs[0].g1Hist[0] {
			t.Fatalf("gskew %d built its own g1Hist table", i)
		}
	}
	for h := range gs[0].g1Hist {
		if want := g1HistFold(uint64(h), 9); uint64(gs[0].g1Hist[h]) != want {
			t.Fatalf("g1Hist[%d] = %d, want %d", h, gs[0].g1Hist[h], want)
		}
	}
}
