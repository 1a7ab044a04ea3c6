package filtered

import (
	"prophetcritic/internal/core"
	"prophetcritic/internal/perceptron"
	"prophetcritic/internal/predictor"
	"prophetcritic/internal/program"
	"prophetcritic/internal/registry"
)

// histLadder is the published perceptron-history column of the filtered
// perceptron rows of Table 3 (budgets in bits) — one budget step behind
// the plain perceptron's ladder, since a quarter-ish of the budget goes
// to the tag filter.
var histLadder = [][2]int{
	{2 * 8192, 13}, {4 * 8192, 17}, {8 * 8192, 24}, {16 * 8192, 28}, {32 * 8192, 47},
}

// Self-registration. The filter always hashes fhist BOR bits (18 in
// every Table 3 cell — the promoted FilterHist parameter), while the
// perceptron reads hist bits; the critic's BOR must cover both, so the
// registry reports max(hist, fhist) as the BOR length, matching the
// published BOR column (18, 18, 24, 28, 47).
func init() {
	registry.Register(registry.Descriptor{
		Name:    "filtered perceptron",
		Aliases: []string{"filtered-perceptron"},
		Desc:    "perceptron gated by an associative tag filter; a filter miss is an implicit agree",
		Critic:  true,
		Section: "filtered-perceptron",
		Rank:    5,
		Params: []registry.Param{
			{Name: "perceptrons", Desc: "perceptron pool size", Default: 163, Min: 1, Max: 1 << 20},
			{Name: "hist", Desc: "perceptron history/BOR bits", Default: 24, Min: 1, Max: 63},
			{Name: "fsets", Desc: "tag-filter sets", Default: 512, Min: 2, Max: 1 << 24, Pow2: true},
			{Name: "fways", Desc: "tag-filter associativity", Default: 3, Min: 1, Max: 16},
			{Name: "tag", Desc: "tag bits per filter entry", Default: 9, Min: 1, Max: 16},
			{Name: "fhist", Desc: "BOR bits hashed by the filter (FilterHist)", Default: 18, Min: 1, Max: 63},
		},
		New: func(p registry.Params) (predictor.Predictor, error) {
			return New(p["perceptrons"], uint(p["hist"]), registry.Log2(p["fsets"]),
				p["fways"], uint(p["tag"]), uint(p["fhist"])), nil
		},
		SolveBudget: func(bits int) (registry.Params, error) {
			const fways, tag, fhist = 3, 9, 18
			hist := registry.Ladder(bits, histLadder, 4, 10, 1, 63)
			fsets := registry.ClampPow2(bits/(4*fways*tag), 2, 1<<24)
			pool := registry.Clamp((bits-fsets*fways*tag)/((hist+1)*perceptron.WeightBits), 1, 1<<20)
			return registry.Params{
				"perceptrons": pool, "hist": hist,
				"fsets": fsets, "fways": fways, "tag": tag, "fhist": fhist,
			}, nil
		},
		BORLen: func(p registry.Params) int {
			if p["fhist"] > p["hist"] {
				return p["fhist"]
			}
			return p["hist"]
		},
	})
}

// Specialization hook: devirtualized block loops for the pairs this
// package anchors as the critic — the perceptron prophet gated by its
// own filtered twin (the gshare and gskew prophets register their own
// filtered-perceptron pairs; this package sits below them in the
// import graph).
func init() {
	core.RegisterStepSpec(specializeStep)
}

func specializeStep(h *core.Hybrid, p *program.Program) (core.SpecializedStep, bool) {
	if pr, ok := h.Prophet().(*Perceptron); ok && h.Critic() == nil {
		return core.SpecializeAlone(h, pr), true
	}
	c, ok := h.Critic().(*Perceptron)
	if !ok {
		return nil, false
	}
	if pr, ok := h.Prophet().(*perceptron.Perceptron); ok {
		if h.Config().Filtered {
			return core.SpecializeFiltered(h, p, pr, c), true
		}
		return core.SpecializeUnfiltered(h, p, pr, c), true
	}
	return nil, false
}

// PredictAt, UpdateAt, PredictTaggedAt and AllocateAt implement core.StepTagged for the
// specialized loops. A filtered Perceptron keeps no per-block hash table, so
// they forward to the address-fed methods and ignore blk.
//
//pclint:hotpath
func (f *Perceptron) PredictAt(_ int, addr, hist uint64) bool { return f.Predict(addr, hist) }

//pclint:hotpath
func (f *Perceptron) UpdateAt(_ int, addr, hist uint64, taken bool) { f.Update(addr, hist, taken) }

//pclint:hotpath
func (f *Perceptron) PredictTaggedAt(_ int, addr, hist uint64) (taken, hit bool) {
	return f.PredictTagged(addr, hist)
}

//pclint:hotpath
func (f *Perceptron) AllocateAt(_ int, addr, hist uint64, taken bool) { f.Allocate(addr, hist, taken) }
