package local

import (
	"prophetcritic/internal/core"
	"prophetcritic/internal/predictor"
	"prophetcritic/internal/program"
	"prophetcritic/internal/registry"
)

// Self-registration. The solver balances the two levels: the deepest
// pattern table whose 2-bit counters fit half the budget sets the
// history length, and the local-history table takes what remains at
// hist bits per register.
func init() {
	registry.Register(registry.Descriptor{
		Name:    "local",
		Aliases: []string{"pag"},
		Desc:    "two-level local-history predictor (PAg): per-branch histories feeding a shared pattern table",
		Section: "local",
		Params: []registry.Param{
			{Name: "lht", Desc: "local-history registers", Default: 1024, Min: 2, Max: 1 << 22, Pow2: true},
			{Name: "hist", Desc: "local history bits (pattern-table index width)", Default: 12, Min: 1, Max: 24},
		},
		New: func(p registry.Params) (predictor.Predictor, error) {
			return New(registry.Log2(p["lht"]), uint(p["hist"])), nil
		},
		SolveBudget: func(bits int) (registry.Params, error) {
			hist := 1
			for h := 2; h <= 24 && (2<<h) <= bits/2; h++ {
				hist = h
			}
			lht := registry.ClampPow2((bits-(2<<hist))/hist, 2, 1<<22)
			return registry.Params{"lht": lht, "hist": hist}, nil
		},
		// The hist parameter is per-branch local history, not global: as
		// a critic the predictor reads no BOR bits at all, so future
		// bits are rejected at validation instead of panicking at build.
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
	pr, ok := h.Prophet().(*Local)
	if !ok || h.Critic() != nil {
		return nil, false
	}
	return core.SpecializeAlone(h, pr), true
}

// PredictAt and UpdateAt implement core.StepPredictor for the
// specialized loops. A Local keeps no per-block hash table, so
// they forward to the address-fed methods and ignore blk.
//
//pclint:hotpath
func (l *Local) PredictAt(_ int, addr, hist uint64) bool { return l.Predict(addr, hist) }

//pclint:hotpath
func (l *Local) UpdateAt(_ int, addr, hist uint64, taken bool) { l.Update(addr, hist, taken) }
