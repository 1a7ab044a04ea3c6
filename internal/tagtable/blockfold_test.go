package tagtable

import (
	"math/rand/v2"
	"testing"

	"prophetcritic/internal/bitutil"
	"prophetcritic/internal/program"
	"prophetcritic/internal/trace/tracetest"
)

// For every block of the paper's benchmarks and of an inferred-CFG
// replay, at random BOR values, the set a per-block fold selects is the
// set the address-fed probe selects, and both are the IndexHash set.
// The geometries cover BOR widths below, at and above the set-index
// width.
func TestBlockFoldsMatchAddressFed(t *testing.T) {
	progs := []*program.Program{program.MustLoad("swim"), program.MustLoad("gcc"), program.MustLoad("msvc7")}
	progs = append(progs, tracetest.Inferred(t, progs[1], 20000))
	geoms := []struct {
		setBits uint
		ways    int
		histLen uint
	}{{8, 6, 18}, {10, 6, 18}, {12, 2, 8}, {5, 3, 63}}
	rng := rand.New(rand.NewPCG(3, 4))
	for _, p := range progs {
		for _, geo := range geoms {
			tt := New(geo.setBits, geo.ways, 8, geo.histLen, true)
			folds := tt.BlockFolds(p)
			if len(folds) != p.NumBlocks() {
				t.Fatalf("%s: %d folds for %d blocks", p.Name, len(folds), p.NumBlocks())
			}
			for i, blk := range p.Blocks() {
				if folds[i] != tt.AddrFold(blk.Addr) {
					t.Fatalf("%s block %d: per-block fold %d, address-fed %d", p.Name, i, folds[i], tt.AddrFold(blk.Addr))
				}
				for k := 0; k < 8; k++ {
					hist := rng.Uint64()
					want := bitutil.IndexHash(blk.Addr, hist&bitutil.Mask(geo.histLen), geo.setBits)
					got := tt.set(folds[i], hist)
					if &got[0] != &tt.entries[want*uint64(geo.ways)] || len(got) != geo.ways {
						t.Fatalf("%s block %d (sets 2^%d, bor %d, hist %#x): per-block fold picks another set than IndexHash %d",
							p.Name, i, geo.setBits, geo.histLen, hist, want)
					}
				}
			}
		}
	}
}

// One fold table per (program, set count), shared by every table of
// that set count whatever its ways, tag or BOR width.
func TestBlockFoldsShared(t *testing.T) {
	p := program.MustLoad("gcc")
	a := New(10, 6, 8, 18, true).BlockFolds(p)
	b := New(10, 3, 9, 12, false).BlockFolds(p)
	c := New(9, 6, 8, 18, true).BlockFolds(p)
	if &a[0] != &b[0] {
		t.Error("tables of one set count built separate fold tables")
	}
	if &a[0] == &c[0] {
		t.Error("fold tables of different set counts aliased")
	}
}
