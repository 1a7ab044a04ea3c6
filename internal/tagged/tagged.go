// Package tagged implements the tagged gshare predictor used as a critic
// in most of the paper's experiments: "a variant of the gshare predictor,
// in which a tag is assigned to each two-bit counter. Its structure is
// similar to a N-way associative cache, with each data item being a
// two-bit counter" (Section 6).
//
// As a critic it is inherently filtered: a tag miss means the critic has
// no opinion and implicitly agrees with the prophet. Table 3 sizes it from
// 256×6-way (2KB) to 4096×6-way (32KB), always consuming an 18-bit BOR.
package tagged

import (
	"fmt"

	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/predictor"
	"prophetcritic/internal/program"
	"prophetcritic/internal/tagtable"
)

// Gshare is a set-associative tagged pattern table indexed and tagged by
// different XOR hashes of (branch address, BOR value).
type Gshare struct {
	table *tagtable.Table
}

var _ predictor.Tagged = (*Gshare)(nil)

// New returns a tagged gshare with 2^setBits sets × ways entries, tags of
// tagBits bits, reading histLen bits of BOR.
func New(setBits uint, ways int, tagBits, histLen uint) *Gshare {
	return &Gshare{table: tagtable.New(setBits, ways, tagBits, histLen, true)}
}

// Predict implements predictor.Predictor. On a tag miss it returns
// not-taken; callers that care about filtering use PredictTagged.
//
//pclint:hotpath
func (g *Gshare) Predict(addr, hist uint64) bool {
	taken, _ := g.table.Lookup(addr, hist)
	return taken
}

// PredictTagged implements predictor.Tagged.
//
//pclint:hotpath
func (g *Gshare) PredictTagged(addr, hist uint64) (taken, hit bool) {
	return g.table.Lookup(addr, hist)
}

// Update implements predictor.Predictor: trains the counter if the entry
// exists; misses are ignored ("the critic is only trained for branches
// that have hits").
//
//pclint:hotpath
func (g *Gshare) Update(addr, hist uint64, taken bool) {
	g.table.Update(addr, hist, taken)
}

// Allocate implements predictor.Tagged.
//
//pclint:hotpath
func (g *Gshare) Allocate(addr, hist uint64, taken bool) {
	g.table.Allocate(addr, hist, taken)
}

// Bound is a Gshare bound to one program's per-block set-index folds:
// the form the specialized step loops (core.SpecializeStep) probe. Its
// probes take the address half of the set index from the block's fold
// (tagtable.Table.BlockFolds); the tag hash mixes the BOR in before
// spreading, so it is still computed per probe.
type Bound struct {
	g     *Gshare
	folds []uint32
}

// Bind returns g probed through p's per-block set-index folds.
func (g *Gshare) Bind(p *program.Program) *Bound {
	return &Bound{g: g, folds: g.table.BlockFolds(p)}
}

// PredictAt implements core.StepPredictor: Predict for the branch of
// block blk at addr.
//
//pclint:hotpath
func (b *Bound) PredictAt(blk int, addr, hist uint64) bool {
	taken, _ := b.g.table.LookupFolded(b.folds[blk], addr, hist)
	return taken
}

// PredictTaggedAt implements core.StepTagged.
//
//pclint:hotpath
func (b *Bound) PredictTaggedAt(blk int, addr, hist uint64) (taken, hit bool) {
	return b.g.table.LookupFolded(b.folds[blk], addr, hist)
}

// UpdateAt implements core.StepPredictor.
//
//pclint:hotpath
func (b *Bound) UpdateAt(blk int, addr, hist uint64, taken bool) {
	b.g.table.UpdateFolded(b.folds[blk], addr, hist, taken)
}

// AllocateAt implements core.StepTagged.
//
//pclint:hotpath
func (b *Bound) AllocateAt(blk int, addr, hist uint64, taken bool) {
	b.g.table.AllocateFolded(b.folds[blk], addr, hist, taken)
}

// HistoryLen implements predictor.Predictor.
func (g *Gshare) HistoryLen() uint { return g.table.HistLen() }

// SizeBits implements predictor.Predictor.
func (g *Gshare) SizeBits() int { return g.table.SizeBits() }

// Entries returns total entries, for Table 3 reporting.
func (g *Gshare) Entries() int { return g.table.Entries() }

// Ways returns the associativity.
func (g *Gshare) Ways() int { return g.table.Ways() }

// Occupancy exposes the valid-entry fraction for diagnostics.
func (g *Gshare) Occupancy() float64 { return g.table.Occupancy() }

// Name implements predictor.Predictor.
func (g *Gshare) Name() string {
	return fmt.Sprintf("tagged-gshare-%dx%dway-bor%d", g.table.Entries()/g.table.Ways(), g.table.Ways(), g.table.HistLen())
}

// Snapshot implements checkpoint.Snapshotter.
func (g *Gshare) Snapshot(enc *checkpoint.Encoder) {
	enc.Section("tagged-gshare")
	g.table.Snapshot(enc)
}

// Restore implements checkpoint.Snapshotter.
func (g *Gshare) Restore(dec *checkpoint.Decoder) error {
	dec.Section("tagged-gshare")
	return g.table.Restore(dec)
}
