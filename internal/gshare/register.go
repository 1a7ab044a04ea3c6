package gshare

import (
	"prophetcritic/internal/core"
	filteredpkg "prophetcritic/internal/filtered"
	"prophetcritic/internal/perceptron"
	"prophetcritic/internal/predictor"
	"prophetcritic/internal/program"
	"prophetcritic/internal/registry"
	"prophetcritic/internal/tagged"
)

// Self-registration with the predictor registry: schema, constructor,
// and budget solver. Table 3 sizes gshare at 2 bits per entry with the
// history length tracking the index width, so the solver fills the
// budget with the largest power-of-two table and reads index-width
// history — which reproduces every published cell exactly.
func init() {
	registry.Register(registry.Descriptor{
		Name:    "gshare",
		Desc:    "single pattern table of 2-bit counters indexed by address XOR global history (McFarling)",
		Section: "gshare",
		Rank:    1,
		Params: []registry.Param{
			{Name: "entries", Desc: "pattern-table entries (2-bit counters)", Default: 32 << 10, Min: 2, Max: 1 << 26, Pow2: true},
			{Name: "hist", Desc: "global history bits", Default: 15, Min: 1, Max: 63},
		},
		New: func(p registry.Params) (predictor.Predictor, error) {
			return New(registry.Log2(p["entries"]), uint(p["hist"])), nil
		},
		SolveBudget: func(bits int) (registry.Params, error) {
			entries := registry.ClampPow2(bits/2, 2, 1<<26)
			hist := registry.Clamp(int(registry.Log2(entries)), 1, 63)
			return registry.Params{"entries": entries, "hist": hist}, nil
		},
	})
}

// Specialization hook: devirtualized block loops for the hot gshare-
// prophet pairs (core.SpecializeStep). gshare anchors the Figure 6a
// rows — gshare prophet critiqued by a filtered perceptron or a tagged
// gshare — plus the prophet-alone baseline and the unfiltered
// perceptron critic. Unregistered combinations fall back to the
// interface path.
func init() {
	core.RegisterStepSpec(specializeStep)
}

func specializeStep(h *core.Hybrid, p *program.Program) (core.SpecializedStep, bool) {
	g, ok := h.Prophet().(*Gshare)
	if !ok {
		return nil, false
	}
	filtered := h.Config().Filtered
	switch c := h.Critic().(type) {
	case nil:
		return core.SpecializeAlone(h, g), true
	case *tagged.Gshare:
		if filtered {
			return core.SpecializeFiltered(h, p, g, c.Bind(p)), true
		}
		return core.SpecializeUnfiltered(h, p, g, c.Bind(p)), true
	case *filteredpkg.Perceptron:
		if filtered {
			return core.SpecializeFiltered(h, p, g, c), true
		}
		return core.SpecializeUnfiltered(h, p, g, c), true
	case *perceptron.Perceptron:
		if !filtered {
			return core.SpecializeUnfiltered(h, p, g, c), true
		}
	}
	return nil, false
}

// PredictAt and UpdateAt implement core.StepPredictor for the
// specialized loops. A Gshare keeps no per-block hash table, so they
// index by address and ignore blk. Like Bimodal's, they repeat the
// one-line bodies of Predict and Update, which do not inline, to keep
// a forwarding call off every probe.
//
//pclint:hotpath
func (g *Gshare) PredictAt(_ int, addr, hist uint64) bool { return g.table.Taken(g.index(addr, hist)) }

//pclint:hotpath
func (g *Gshare) UpdateAt(_ int, addr, hist uint64, taken bool) {
	g.table.Update(g.index(addr, hist), taken)
}
