package bimodal

import (
	"prophetcritic/internal/core"
	"prophetcritic/internal/predictor"
	"prophetcritic/internal/program"
	"prophetcritic/internal/registry"
)

// Self-registration: the classic Smith predictor, reachable as a
// baseline prophet now that the construction layer is registry-driven.
func init() {
	registry.Register(registry.Descriptor{
		Name:    "bimodal",
		Desc:    "per-address table of saturating counters (Smith); no history correlation",
		Section: "bimodal",
		Params: []registry.Param{
			{Name: "entries", Desc: "counter-table entries", Default: 16 << 10, Min: 2, Max: 1 << 26, Pow2: true},
			{Name: "ctr", Desc: "counter width in bits", Default: 2, Min: 1, Max: 8},
		},
		New: func(p registry.Params) (predictor.Predictor, error) {
			return New(registry.Log2(p["entries"]), uint(p["ctr"])), nil
		},
		SolveBudget: func(bits int) (registry.Params, error) {
			const ctr = 2
			entries := registry.ClampPow2(bits/ctr, 2, 1<<26)
			return registry.Params{"entries": entries, "ctr": ctr}, nil
		},
		// Address-indexed only: no BOR bits are read as a critic.
		BORLen: func(p registry.Params) int { return 0 },
	})
}

// Specialization hook: the devirtualized block loop for the
// prophet-alone configuration (core.SpecializeStep). Critic pairings
// of this family are not on the hot Table 3 paths and fall back to the
// interface loop.
func init() {
	core.RegisterStepSpec(specializeStep)
}

func specializeStep(h *core.Hybrid, _ *program.Program) (core.SpecializedStep, bool) {
	pr, ok := h.Prophet().(*Bimodal)
	if !ok || h.Critic() != nil {
		return nil, false
	}
	return core.SpecializeAlone(h, pr), true
}

// PredictAt and UpdateAt implement core.StepPredictor for the
// specialized loops. A Bimodal keeps no per-block hash table, so they
// index by address and ignore blk. They repeat Predict's and Update's
// one-line bodies rather than call them: those do not inline, and a
// forwarding call per probe measurably slows the bimodal replay loop.
//
//pclint:hotpath
func (b *Bimodal) PredictAt(_ int, addr, _ uint64) bool { return b.table[b.index(addr)].Taken() }

//pclint:hotpath
func (b *Bimodal) UpdateAt(_ int, addr, _ uint64, taken bool) { b.table[b.index(addr)].Update(taken) }
