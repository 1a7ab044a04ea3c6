package tagged

import (
	"prophetcritic/internal/core"
	"prophetcritic/internal/perceptron"
	"prophetcritic/internal/predictor"
	"prophetcritic/internal/program"
	"prophetcritic/internal/registry"
)

// Self-registration. Table 3 fixes the associativity at 6, the tag at
// 8 bits, and the BOR at 18 bits across every budget, scaling only the
// set count; the solver follows, filling the budget with the largest
// power-of-two set count at (tag + 2) bits per entry — which reproduces
// every published cell exactly.
func init() {
	registry.Register(registry.Descriptor{
		Name:    "tagged gshare",
		Aliases: []string{"tagged-gshare"},
		Desc:    "set-associative tagged pattern table; a tag miss is an implicit agree (the paper's default critic)",
		Critic:  true,
		Section: "tagged-gshare",
		Rank:    4,
		Params: []registry.Param{
			{Name: "sets", Desc: "tag-table sets", Default: 1024, Min: 2, Max: 1 << 24, Pow2: true},
			{Name: "ways", Desc: "associativity", Default: 6, Min: 1, Max: 16},
			{Name: "tag", Desc: "tag bits per entry", Default: 8, Min: 1, Max: 16},
			{Name: "bor", Desc: "branch-outcome-register bits hashed into index and tag", Default: 18, Min: 1, Max: 63},
		},
		New: func(p registry.Params) (predictor.Predictor, error) {
			return New(registry.Log2(p["sets"]), p["ways"], uint(p["tag"]), uint(p["bor"])), nil
		},
		SolveBudget: func(bits int) (registry.Params, error) {
			const ways, tag, bor = 6, 8, 18
			sets := registry.ClampPow2(bits/(ways*(tag+2)), 2, 1<<24)
			return registry.Params{"sets": sets, "ways": ways, "tag": tag, "bor": bor}, nil
		},
		BORLen: func(p registry.Params) int { return p["bor"] },
	})
}

// Specialization hook: devirtualized block loops for the pairs this
// package anchors as the critic — the perceptron prophet with a
// tagged-gshare critic (the gshare and gskew prophets register their
// own tagged-critic pairs; this package sits below them in the import
// graph).
func init() {
	core.RegisterStepSpec(specializeStep)
}

func specializeStep(h *core.Hybrid, p *program.Program) (core.SpecializedStep, bool) {
	if pr, ok := h.Prophet().(*Gshare); ok && h.Critic() == nil {
		return core.SpecializeAlone(h, pr.Bind(p)), true
	}
	c, ok := h.Critic().(*Gshare)
	if !ok {
		return nil, false
	}
	if pr, ok := h.Prophet().(*perceptron.Perceptron); ok {
		if h.Config().Filtered {
			return core.SpecializeFiltered(h, p, pr, c.Bind(p)), true
		}
		return core.SpecializeUnfiltered(h, p, pr, c.Bind(p)), true
	}
	return nil, false
}
