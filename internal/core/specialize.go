// Monomorphic step loops: the devirtualized twin of the interface hot
// path (Predict/Step/Resolve). Every simulated branch otherwise pays
// dynamic dispatch through predictor.Predictor — up to FutureBits
// prophet calls inside the speculative walk, plus critic predict and
// update — and a per-branch WalkFunc closure call that re-derives the
// block index from the branch address. The registry knows every
// family's concrete type, so a family's register.go can hand the core
// a specialization hook that type-switches the (prophet × critic ×
// filtered) combination into a concrete-typed block loop built from
// the generic constructors below.
//
// The loops are byte-identical to the interface path by construction:
// per event they make exactly the calls predictInto and resolve make,
// in the same order, with the same arguments — only the dispatch is
// monomorphic, the speculative walk runs on block indices instead of
// re-deriving them from addresses (Program.Walk is blockAt + Target;
// an Event already carries its BlockID, and CFG targets are block
// indices), each probe also names its block so families with
// per-block address hashes read them instead of re-hashing (the same
// hash, computed once per program), and the architectural registers
// and statistics are held in locals across the block instead of being
// re-loaded through the Hybrid pointer per branch. TestSpecializedMatchesGeneric pins the
// equivalence for every registered family, and the -no-specialize
// escape hatch forces the interface path when a specialization bug
// needs bisecting against the reference loop.
//
// The constructors are generic (stepLoop[P, C] instantiations per
// registered pair), so each family hook is a type switch and one call.
// They return closures and run once per block, not per branch; they
// are deliberately not //pclint:hotpath (the analyzer rejects closure
// construction in hot functions) — the loops themselves are held to
// the 0 allocs/op wall by perfguard's BenchmarkSpecialized* gates.

package core

import "prophetcritic/internal/program"

// SpecializedStep advances a hybrid over one block of committed
// events: per event it predicts (performing the speculative future-bit
// walk), resolves against the committed outcome, and trains — exactly
// Hybrid.Step, devirtualized. The caller owns window accounting (uop
// sums, stats baselines); blocks never span a Train/Measure boundary.
type SpecializedStep func(evs []program.Event)

// StepSpecialization is a family's specialization hook: given a hybrid
// and the program it will step over, return the monomorphic block loop
// for the hybrid's concrete (prophet × critic × filtered) combination,
// or ok=false if the hook does not cover it.
type StepSpecialization func(h *Hybrid, p *program.Program) (SpecializedStep, bool)

// stepSpecs holds the registered hooks. Registration happens in family
// package init functions (like the predictor registry itself), so no
// locking is needed: the slice is append-only before main starts and
// read-only after.
var stepSpecs []StepSpecialization

// RegisterStepSpec registers a family's specialization hook. Call it
// from a package init function only.
func RegisterStepSpec(fn StepSpecialization) {
	stepSpecs = append(stepSpecs, fn)
}

// SpecializeStep returns the monomorphic block loop for h over p, or
// ok=false when no registered hook covers the combination — the caller
// then falls back to the interface path (Hybrid.Step per branch),
// which remains the reference semantics.
func SpecializeStep(h *Hybrid, p *program.Program) (SpecializedStep, bool) {
	for _, fn := range stepSpecs {
		if step, ok := fn(h, p); ok {
			return step, true
		}
	}
	return nil, false
}

// NumStepSpecs reports the number of registered hooks (diagnostics and
// tests).
func NumStepSpecs() int { return len(stepSpecs) }

// StepPredictor is the concrete-type constraint for specialized
// prophets and unfiltered critics: the predict/update half of
// predictor.Predictor, with each probe also naming the block of the
// stepped program whose branch it probes (addr == blocks[blk].Addr).
// Families that hash each static branch once per table geometry
// (program.BlockTable) index those hashes by blk, through a type bound
// to the program (gskew.Bound, tagged.Bound); the rest forward to
// Predict/Update and ignore blk.
type StepPredictor interface {
	PredictAt(blk int, addr, hist uint64) bool
	UpdateAt(blk int, addr, hist uint64, taken bool)
}

// StepTagged additionally requires the tag-filtered critic protocol
// (predictor.Tagged's extra methods), block-named the same way.
type StepTagged interface {
	StepPredictor
	PredictTaggedAt(blk int, addr, hist uint64) (taken, hit bool)
	AllocateAt(blk int, addr, hist uint64, taken bool)
}

// SpecializeAlone builds the block loop for a prophet-alone hybrid
// (h.Critic() == nil). prophet must be h's prophet, concretely typed.
func SpecializeAlone[P StepPredictor](h *Hybrid, prophet P) SpecializedStep {
	return func(evs []program.Event) {
		bhr, stats := h.bhr, h.stats
		for i := range evs {
			ev := &evs[i]
			bhrV := bhr.Value()
			p := prophet.PredictAt(ev.BlockID, ev.Addr, bhrV)

			// resolve: prophet-alone folds into the agree classes.
			stats.Branches++
			if p == ev.Taken {
				stats.Critiques[CorrectAgree]++
			} else {
				stats.ProphetMispredict++
				stats.FinalMispredict++
				stats.Critiques[IncorrectAgree]++
			}
			prophet.UpdateAt(ev.BlockID, ev.Addr, bhrV, ev.Taken)
			bhr.Push(ev.Taken)
		}
		h.bhr, h.stats = bhr, stats
	}
}

// SpecializeUnfiltered builds the block loop for an unfiltered hybrid:
// the critic critiques every branch. prophet and critic must be h's
// components, concretely typed.
func SpecializeUnfiltered[P, C StepPredictor](h *Hybrid, prog *program.Program, prophet P, critic C) SpecializedStep {
	blocks := prog.Blocks()
	fb := h.cfg.FutureBits
	return func(evs []program.Event) {
		bhr, bor, stats := h.bhr, h.bor, h.stats
		for i := range evs {
			ev := &evs[i]
			addr, blk := ev.Addr, ev.BlockID
			bhrV := bhr.Value()
			p := prophet.PredictAt(blk, addr, bhrV)

			// The speculative future-bit walk of predictInto, fused onto
			// block indices: Walk(addr, dir) is blockAt(addr) + Target +
			// blocks[t].Addr, and the event already carries its block.
			borReg := bor
			if fb > 0 {
				borReg.Push(p)
				specBHR := bhr
				specBHR.Push(p)
				cur, dir := blk, p
				for used := uint(1); used < fb; used++ {
					t := blocks[cur].NotTakenTo
					if dir {
						t = blocks[cur].TakenTo
					}
					if t < 0 {
						break
					}
					np := prophet.PredictAt(t, blocks[t].Addr, specBHR.Value())
					borReg.Push(np)
					specBHR.Push(np)
					cur, dir = t, np
				}
			}
			borV := borReg.Value()
			c := critic.PredictAt(blk, addr, borV)

			// resolve with CriticUsed always true.
			taken := ev.Taken
			stats.Branches++
			prophetRight := p == taken
			if !prophetRight {
				stats.ProphetMispredict++
			}
			if c != taken {
				stats.FinalMispredict++
			}
			switch agree := c == p; {
			case prophetRight && agree:
				stats.Critiques[CorrectAgree]++
			case prophetRight && !agree:
				stats.Critiques[CorrectDisagree]++
			case !prophetRight && agree:
				stats.Critiques[IncorrectAgree]++
			default:
				stats.Critiques[IncorrectDisagree]++
			}
			prophet.UpdateAt(blk, addr, bhrV, taken)
			critic.UpdateAt(blk, addr, borV, taken)
			bor.Push(taken)
			bhr.Push(taken)
		}
		h.bhr, h.bor, h.stats = bhr, bor, stats
	}
}

// SpecializeFiltered builds the block loop for a tag-filtered hybrid:
// a tag hit critiques explicitly, a miss is an implicit agree, and a
// miss on a mispredicted branch allocates the context (§4). prophet
// and critic must be h's components, concretely typed.
func SpecializeFiltered[P StepPredictor, C StepTagged](h *Hybrid, prog *program.Program, prophet P, critic C) SpecializedStep {
	blocks := prog.Blocks()
	fb := h.cfg.FutureBits
	return func(evs []program.Event) {
		bhr, bor, stats := h.bhr, h.bor, h.stats
		for i := range evs {
			ev := &evs[i]
			addr, blk := ev.Addr, ev.BlockID
			bhrV := bhr.Value()
			p := prophet.PredictAt(blk, addr, bhrV)

			borReg := bor
			if fb > 0 {
				borReg.Push(p)
				specBHR := bhr
				specBHR.Push(p)
				cur, dir := blk, p
				for used := uint(1); used < fb; used++ {
					t := blocks[cur].NotTakenTo
					if dir {
						t = blocks[cur].TakenTo
					}
					if t < 0 {
						break
					}
					np := prophet.PredictAt(t, blocks[t].Addr, specBHR.Value())
					borReg.Push(np)
					specBHR.Push(np)
					cur, dir = t, np
				}
			}
			borV := borReg.Value()
			c, hit := critic.PredictTaggedAt(blk, addr, borV)
			final := p
			if hit {
				final = c
			}

			taken := ev.Taken
			stats.Branches++
			prophetRight := p == taken
			if !prophetRight {
				stats.ProphetMispredict++
			}
			if final != taken {
				stats.FinalMispredict++
			}
			switch {
			case !hit && prophetRight:
				stats.Critiques[CorrectNone]++
			case !hit:
				stats.Critiques[IncorrectNone]++
			case prophetRight && c == p:
				stats.Critiques[CorrectAgree]++
			case prophetRight:
				stats.Critiques[CorrectDisagree]++
			case c == p:
				stats.Critiques[IncorrectAgree]++
			default:
				stats.Critiques[IncorrectDisagree]++
			}
			prophet.UpdateAt(blk, addr, bhrV, taken)
			if hit {
				critic.UpdateAt(blk, addr, borV, taken)
			} else if !prophetRight {
				critic.AllocateAt(blk, addr, borV, taken)
			}
			bor.Push(taken)
			bhr.Push(taken)
		}
		h.bhr, h.bor, h.stats = bhr, bor, stats
	}
}
