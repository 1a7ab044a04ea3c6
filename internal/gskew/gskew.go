// Package gskew implements the 2Bc-gskew de-aliased hybrid predictor of
// Seznec and Michaud [28], "a derivation of [which] is implemented in the
// Compaq Alpha EV8 processor [26]". It is the strongest conventional
// baseline in the paper: the abstract compares the 8K+8K prophet/critic
// hybrid against a 16KB 2Bc-gskew.
//
// 2Bc-gskew is composed of four equally sized tables of 2-bit counters
// accessed with global history:
//
//   - BIM:  a bimodal table indexed by branch address only;
//   - G0, G1: two gshare-like tables indexed by different skewing hash
//     functions of (address, history), so that a pair of branches that
//     collides in one table is unlikely to collide in the others;
//   - META: a meta-predictor choosing, per branch, between the BIM
//     prediction and the majority vote of BIM, G0 and G1.
//
// The update policy is partial, following Seznec et al.'s EV8 description:
// on a correct prediction only the tables that participated (and agreed)
// are strengthened; on a mispredict all three direction tables are trained
// toward the outcome; META is trained toward whichever of its two choices
// was right whenever they differ.
package gskew

import (
	"fmt"
	"math/bits"
	"sync"

	"prophetcritic/internal/bitutil"
	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/counter"
	"prophetcritic/internal/program"
)

// Gskew is a 2Bc-gskew predictor with four 2^indexBits-entry tables.
//
// Each table holds 2-bit saturating counters (values 0..3, taken when
// >= 2, cold value weakly not-taken = 1), SWAR-packed 32 to a 64-bit
// word (counter.Packed2) so each of the four word loads per operation
// carries 32 counters. The hot path computes every table index exactly
// once per operation and uses masks precomputed at construction.
type Gskew struct {
	bim, g0, g1, meta counter.Packed2
	indexBits         uint
	histLen           uint
	histMask          uint64
	idxMask           uint64
	// g1Hist is idxG1's history transform Fold(rotl(h,3)*K, indexBits)
	// tabulated for every possible history value: the prophet's walk
	// probes once per future bit, so the table turns the hottest
	// history hash into one load. It is shared read-only by every
	// Gskew of the same geometry (g1HistTable), and nil when histLen
	// is too long to tabulate (> maxHistTableBits).
	g1Hist []uint32
}

// maxHistTableBits bounds the g1Hist table to 2^16 entries (256KB); every
// Table 3 gskew configuration has histLen <= 15.
const maxHistTableBits = 16

// g1Hists memoizes g1Hist per [indexBits, histLen]: the table is a pure
// function of the geometry, so a sweep building many hybrids of a few
// geometries folds each table once per process instead of once per
// New.
var g1Hists sync.Map

// g1HistTable returns the shared g1Hist table for a geometry, or nil
// when histLen > maxHistTableBits.
func g1HistTable(indexBits, histLen uint) []uint32 {
	if histLen > maxHistTableBits {
		return nil
	}
	key := [2]uint{indexBits, histLen}
	if t, ok := g1Hists.Load(key); ok {
		return t.([]uint32)
	}
	tab := make([]uint32, 1<<histLen)
	for h := range tab {
		tab[h] = uint32(g1HistFold(uint64(h), indexBits))
	}
	t, _ := g1Hists.LoadOrStore(key, tab)
	return t.([]uint32)
}

//pclint:hotpath
func g1HistFold(h uint64, indexBits uint) uint64 {
	return bitutil.Fold(bits.RotateLeft64(h, 3)*0x9e3779b97f4a7c15, indexBits)
}

// New returns a 2Bc-gskew with 2^indexBits entries per table and histLen
// bits of global history.
func New(indexBits, histLen uint) *Gskew {
	if indexBits < 1 || indexBits > 28 {
		panic(fmt.Sprintf("gskew: indexBits %d out of range [1,28]", indexBits))
	}
	mk := func() counter.Packed2 {
		return counter.NewPacked2(1<<indexBits, counter.Sat2Cold)
	}
	return &Gskew{
		bim: mk(), g0: mk(), g1: mk(), meta: mk(),
		indexBits: indexBits,
		histLen:   histLen,
		histMask:  bitutil.Mask(histLen),
		idxMask:   bitutil.Mask(indexBits),
		g1Hist:    g1HistTable(indexBits, histLen),
	}
}

// addrFolds are the three distinct address folds the four indices use,
// of a = addr>>2 at indexBits: bim = Fold(a) feeds BIM and G0, g1 =
// Fold(rotl(a,5)) feeds G1, meta = Fold(rotl(a,11)) feeds META. They
// depend on the branch address alone, so the specialized step loops
// read them from a per-block table (Bind) while Predict and Update fold
// on the fly; the index functions below are the one definition either
// way.
type addrFolds struct{ bim, g1, meta uint32 }

// lazyG1 marks folds whose G1 half is not computed yet; predict folds it
// only when META selects the majority vote. Folds are below 2^28, so no
// real fold equals it.
const lazyG1 = ^uint32(0)

// Address rotations of the G1 and META folds.
const rotG1, rotMeta = 5, 11

//pclint:hotpath
func foldAddr(addr uint64, indexBits uint) addrFolds {
	return addrFolds{
		bim:  foldRot(addr, 0, indexBits),
		g1:   foldRot(addr, rotG1, indexBits),
		meta: foldRot(addr, rotMeta, indexBits),
	}
}

// foldRot is Fold(rotl(addr>>2, rot), indexBits).
//
//pclint:hotpath
func foldRot(addr uint64, rot int, indexBits uint) uint32 {
	return uint32(bitutil.Fold(bits.RotateLeft64(addr>>2, rot), indexBits))
}

// The three indexing functions. BIM ignores history. G0 and G1 use
// distinct skewing transforms so inter-table aliasing is decorrelated —
// the essence of the skewed organisation.
//
//pclint:hotpath
func (g *Gskew) idxBim(f addrFolds) uint64 {
	return uint64(f.bim)
}

//pclint:hotpath
func (g *Gskew) idxG0(f addrFolds, hist uint64) uint64 {
	h := hist & g.histMask
	// A history no wider than the index folds to itself, so only a
	// longer one is folded; no Table 3 gskew configuration has one.
	if g.histLen > g.indexBits {
		h = bitutil.Fold(h, g.indexBits)
	}
	return (uint64(f.bim) ^ h) & g.idxMask
}

//pclint:hotpath
func (g *Gskew) idxG1(f addrFolds, hist uint64) uint64 {
	h := hist & g.histMask
	var hf uint64
	if g.g1Hist != nil {
		hf = uint64(g.g1Hist[h])
	} else {
		hf = g1HistFold(h, g.indexBits)
	}
	return (uint64(f.g1) ^ hf) & g.idxMask
}

//pclint:hotpath
func (g *Gskew) idxMeta(f addrFolds, hist uint64) uint64 {
	hf := (hist & g.histMask) >> 1
	if g.histLen > g.indexBits+1 {
		hf = bitutil.Fold(hf, g.indexBits)
	}
	return (uint64(f.meta) ^ hf) & g.idxMask
}

//pclint:hotpath
func majority(a, b, c bool) bool {
	n := 0
	if a {
		n++
	}
	if b {
		n++
	}
	if c {
		n++
	}
	return n >= 2
}

// Predict implements predictor.Predictor. It leaves G1's address half
// unfolded (lazyG1): predict folds it only if META selects the vote.
//
//pclint:hotpath
func (g *Gskew) Predict(addr, hist uint64) bool {
	f := addrFolds{bim: foldRot(addr, 0, g.indexBits), g1: lazyG1, meta: foldRot(addr, rotMeta, g.indexBits)}
	return g.predict(f, addr, hist)
}

// predict reads the skewed tables lazily: when META selects the
// bimodal component, the G0/G1 indices are never computed. It is the
// dominant call of the prophet's future-bit walk (through
// Bound.PredictAt), so this pays once per future bit.
//
//pclint:hotpath
func (g *Gskew) predict(f addrFolds, addr, hist uint64) bool {
	bim := g.bim.Taken(g.idxBim(f))
	if !g.meta.Taken(g.idxMeta(f, hist)) {
		return bim
	}
	if f.g1 == lazyG1 {
		f.g1 = foldRot(addr, rotG1, g.indexBits)
	}
	return majority(bim, g.g0.Taken(g.idxG0(f, hist)), g.g1.Taken(g.idxG1(f, hist)))
}

// Update implements predictor.Predictor, applying the partial update
// policy described in the package comment.
//
//pclint:hotpath
func (g *Gskew) Update(addr, hist uint64, taken bool) {
	g.update(foldAddr(addr, g.indexBits), hist, taken)
}

//pclint:hotpath
func (g *Gskew) update(f addrFolds, hist uint64, taken bool) {
	iB, i0, i1, iM := g.idxBim(f), g.idxG0(f, hist), g.idxG1(f, hist), g.idxMeta(f, hist)
	bim := g.bim.Taken(iB)
	p0 := g.g0.Taken(i0)
	p1 := g.g1.Taken(i1)
	useMaj := g.meta.Taken(iM)
	maj := majority(bim, p0, p1)
	pred := bim
	if useMaj {
		pred = maj
	}

	// Train META toward whichever choice was right when they differ.
	if bim != maj {
		g.meta.Update(iM, maj == taken)
	}

	if pred == taken {
		// Correct: strengthen only participating, agreeing tables.
		if useMaj {
			g.bim.Reinforce(iB, taken)
			g.g0.Reinforce(i0, taken)
			g.g1.Reinforce(i1, taken)
		} else {
			g.bim.Update(iB, taken)
		}
		return
	}
	// Mispredict: retrain all direction tables toward the outcome.
	g.bim.Update(iB, taken)
	g.g0.Update(i0, taken)
	g.g1.Update(i1, taken)
}

// HistoryLen implements predictor.Predictor.
func (g *Gskew) HistoryLen() uint { return g.histLen }

// SizeBits implements predictor.Predictor: four tables of 2-bit counters.
func (g *Gskew) SizeBits() int { return 4 * g.bim.Len() * 2 }

// Name implements predictor.Predictor.
func (g *Gskew) Name() string {
	return fmt.Sprintf("2Bc-gskew-%dKent-h%d", g.bim.Len()/1024, g.histLen)
}

// Snapshot implements checkpoint.Snapshotter: the four flat 2-bit
// counter tables (g1Hist is a derived memo, not state), each unpacked
// to the historical one-byte-per-counter encoding so packed-table
// checkpoints stay byte-identical to the original wire format.
func (g *Gskew) Snapshot(enc *checkpoint.Encoder) {
	enc.Section("gskew")
	tmp := make([]uint8, g.bim.Len())
	for _, t := range []*counter.Packed2{&g.bim, &g.g0, &g.g1, &g.meta} {
		t.StoreBytes(tmp)
		enc.Uint8s(tmp)
	}
}

// Restore implements checkpoint.Snapshotter.
func (g *Gskew) Restore(dec *checkpoint.Decoder) error {
	dec.Section("gskew")
	tables := []*counter.Packed2{&g.bim, &g.g0, &g.g1, &g.meta}
	tmp := make([][]uint8, len(tables))
	for i, t := range tables {
		tmp[i] = make([]uint8, t.Len())
		dec.Uint8s(tmp[i])
	}
	if err := dec.Err(); err != nil {
		return err
	}
	for i, t := range tmp {
		if err := counter.ValidateSat2(t); err != nil {
			return fmt.Errorf("gskew: table %d: %w", i, err)
		}
		tables[i].LoadBytes(t)
	}
	return nil
}

// Bound is a Gskew bound to one program's per-block address folds: the
// form the specialized step loops (core.SpecializeStep) probe. Its
// probes index the folds by block instead of re-folding the branch
// address, which the prophet's walk would otherwise do once per future
// bit.
type Bound struct {
	g     *Gskew
	folds []addrFolds
}

// foldKey names a per-block fold table: the folds depend on the
// address and indexBits only, so every Gskew with the same table size
// shares one table per program.
type foldKey struct{ indexBits uint }

// Bind returns g probed through p's per-block address folds, building
// the fold table on first use for this (program, indexBits).
func (g *Gskew) Bind(p *program.Program) *Bound {
	ib := g.indexBits
	folds := program.BlockTable(p, foldKey{ib}, func(addr uint64) addrFolds { return foldAddr(addr, ib) })
	return &Bound{g: g, folds: folds}
}

// PredictAt implements core.StepPredictor: Predict for the branch of
// block blk.
//
//pclint:hotpath
func (b *Bound) PredictAt(blk int, addr, hist uint64) bool {
	return b.g.predict(b.folds[blk], addr, hist)
}

// UpdateAt implements core.StepPredictor: Update for the branch of
// block blk.
//
//pclint:hotpath
func (b *Bound) UpdateAt(blk int, _, hist uint64, taken bool) {
	b.g.update(b.folds[blk], hist, taken)
}
