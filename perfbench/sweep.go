package main

// The two sweep workloads call the simulator as a library on one
// goroutine. A run repeats one fixed-work pass — a sim.RunMany call
// over every cell window — for the whole timed phase, and takes the
// throughput over all the passes together. README.md has the noise
// measurements behind this.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"prophetcritic/internal/core"
	"prophetcritic/internal/program"
	"prophetcritic/internal/service"
	"prophetcritic/internal/sim"
	"prophetcritic/internal/trace"
)

// hybridSpec is one predictor of a sweep in the service's spec grammar.
type hybridSpec struct {
	prophet, critic string
	fb              uint
}

func (h hybridSpec) builder() (sim.Builder, error) {
	return service.HybridBuilder(h.prophet, h.critic, h.fb, false)
}

// alone is the same prophet without a critic.
func (h hybridSpec) alone() hybridSpec { return hybridSpec{prophet: h.prophet, critic: "none"} }

// cell is one program window of a pass: skip branches are only
// committed, then train+measure branches are predicted by every hybrid.
type cell struct {
	prog                 *program.Program
	synth                *program.Program // the synthetic program the stream comes from
	skip, train, measure int
}

func (c cell) predicted() int { return c.train + c.measure }

// sweep is a set-up sweep workload: the hybrids and the cell windows.
type sweep struct {
	specs  []hybridSpec
	builds []sim.Builder
	cells  []cell
	// traceDir holds the recorded trace of a replay sweep ("" otherwise).
	traceDir, traceFile string
}

// sweepDef describes a sweep workload; setup builds it and returns the
// median set-up time in seconds.
type sweepDef struct {
	name  string
	specs []hybridSpec
	setup func(o opts, specs []hybridSpec) (*sweep, float64, error)
}

// headlineSweep is the paper's headline organisation: 2Bc-gskew
// prophets with filtered tagged-gshare critics and 8 future bits, over
// three synthetic benchmarks whose CFGs range from fitting in the
// tables (swim, 140 branches) to aliasing (gcc 1600, msvc7 1800).
var headlineSweep = sweepDef{
	name: "sweep-headline-fb8",
	specs: func() []hybridSpec {
		var s []hybridSpec
		for _, kb := range []int{2, 4, 8, 16} {
			for _, ckb := range []int{2, 8} {
				s = append(s, hybridSpec{fmt.Sprintf("2Bc-gskew:%d", kb), fmt.Sprintf("tagged gshare:%d", ckb), 8})
			}
		}
		return s
	}(),
	setup: setupHeadline,
}

// replaySweep runs cheap prophet-alone bimodal predictors over a
// recorded premiere trace, so trace decode dominates and the walk and
// critic do no work.
var replaySweep = sweepDef{
	name: "replay-trace-bimodal",
	specs: []hybridSpec{
		{"bimodal:1", "none", 0}, {"bimodal:2", "none", 0},
		{"bimodal:4", "none", 0}, {"bimodal:8", "none", 0},
	},
	setup: setupReplay,
}

// Window sizes. A headline pass takes 0.15-0.35 s on a 2-vCPU host, so
// a 50 s run times well over 100 passes.
const (
	headlineTrain   = 8_000
	headlineMeasure = 24_000
	headlineMaxSkip = 4_096

	replayTrain   = 50_000
	replayMeasure = 450_000
	replayMaxSkip = 20_000
	replayLen     = replayMaxSkip + replayTrain + replayMeasure

	// Set-up is repeated within a run for a steady median: the
	// headline set-up takes about 2 ms, recording the trace about 0.1 s.
	headlineSetupReps = 61
	replaySetupReps   = 11
)

func builders(specs []hybridSpec) ([]sim.Builder, error) {
	bs := make([]sim.Builder, len(specs))
	for i, s := range specs {
		b, err := s.builder()
		if err != nil {
			return nil, err
		}
		bs[i] = b
	}
	return bs, nil
}

func buildAll(bs []sim.Builder) []*core.Hybrid {
	hs := make([]*core.Hybrid, len(bs))
	for i, b := range bs {
		hs[i] = b()
	}
	return hs
}

func generate(name string) (*program.Program, error) {
	spec, err := program.SpecByName(name)
	if err != nil {
		return nil, err
	}
	return program.Generate(spec), nil
}

// setupHeadline generates the three programs and constructs and
// specializes every hybrid on each, which is what a sweep pays before
// its first branch.
func setupHeadline(o opts, specs []hybridSpec) (*sweep, float64, error) {
	rng := o.rng(1)
	names := []string{"swim", "gcc", "msvc7"}
	skips := make([]int, len(names))
	for i := range skips {
		skips[i] = rng.IntN(headlineMaxSkip)
	}
	var sw *sweep
	setupS, err := timedMedian(headlineSetupReps, func() error {
		bs, err := builders(specs)
		if err != nil {
			return err
		}
		s := &sweep{specs: specs, builds: bs}
		for i, n := range names {
			p, err := generate(n)
			if err != nil {
				return err
			}
			for _, h := range buildAll(bs) {
				core.SpecializeStep(h, p)
			}
			s.cells = append(s.cells, cell{prog: p, synth: p, skip: skips[i], train: headlineTrain, measure: headlineMeasure})
		}
		sw = s
		return nil
	})
	return sw, setupS, err
}

// setupReplay records a premiere trace long enough for any seeded
// window and loads it as a replay program.
func setupReplay(o opts, specs []hybridSpec) (*sweep, float64, error) {
	rng := o.rng(1)
	skip := rng.IntN(replayMaxSkip)
	synth, err := generate("premiere")
	if err != nil {
		return nil, 0, err
	}
	var sw *sweep
	rep := 0
	setupS, err := timedMedian(replaySetupReps, func() error {
		rep++
		file := fmt.Sprintf("premiere-%d.pctr", rep)
		p, err := recordTrace(synth, replayLen, filepath.Join(o.dir, file))
		if err != nil {
			return err
		}
		bs, err := builders(specs)
		if err != nil {
			return err
		}
		sw = &sweep{specs: specs, builds: bs, traceDir: o.dir, traceFile: file,
			cells: []cell{{prog: p, synth: synth, skip: skip, train: replayTrain, measure: replayMeasure}}}
		return nil
	})
	return sw, setupS, err
}

// recordTrace records the first n committed branches of p to path and
// loads the file back as a replay program.
func recordTrace(p *program.Program, n int, path string) (*program.Program, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := trace.Record(p, 0, n, f); err != nil {
		f.Close()
		return nil, fmt.Errorf("recording %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return trace.Load(path)
}

// pass is the timed operation: one sim.RunMany call per cell with
// fresh hybrids. Cells take sim.RunManySegment, RunMany's windowed form,
// because the seed picks where each window starts.
func (s *sweep) pass() []sim.Result {
	var out []sim.Result
	for _, c := range s.cells {
		out = append(out, sim.RunManySegment(c.prog, buildAll(s.builds), c.skip, c.train, c.measure)...)
	}
	return out
}

// predsPerPass is the number of predictions one pass makes.
func (s *sweep) predsPerPass() float64 {
	n := 0
	for _, c := range s.cells {
		n += c.predicted()
	}
	return float64(n * len(s.builds))
}

// check compares the one-pass rows against a per-spec sim.Run of every
// cell and, for a replay sweep, against the synthetic program the trace
// was recorded from. It runs once per run, outside the timing.
func (s *sweep) check(ref []sim.Result) tally {
	var t tally
	k := 0
	for _, c := range s.cells {
		for _, b := range s.builds {
			r := sim.RunSegment(c.prog, b(), c.skip, c.train, c.measure)
			t.check(k < len(ref) && r == ref[k])
			k++
		}
		if c.synth != c.prog {
			direct := sim.RunManySegment(c.synth, buildAll(s.builds), c.skip, c.train, c.measure)
			t.check(slices.Equal(direct, ref[k-len(s.builds):k]))
		}
	}
	t.check(k == len(ref))
	return t
}

func meanMisp(rs []sim.Result) float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, r.MispPerKuops())
	}
	return mean(xs)
}

// runSweep measures a sweep workload's end-to-end metrics.
func runSweep(def sweepDef) func(o opts) (report, error) {
	return func(o opts) (report, error) {
		sw, setupS, err := def.setup(o, def.specs)
		if err != nil {
			return report{}, err
		}
		var t tally
		ref := sw.pass() // untimed: fills caches and finishes lazy set-up
		preds := sw.predsPerPass()
		var lat []float64
		var total time.Duration
		deadline := time.Now().Add(o.measure)
		for time.Now().Before(deadline) {
			// Each pass starts from a collected heap, so the peak RSS and
			// the GC work inside a pass do not depend on where the
			// previous pass left the collector.
			runtime.GC()
			start := time.Now()
			rs := sw.pass()
			d := time.Since(start)
			t.check(slices.Equal(rs, ref))
			total += d
			lat = append(lat, float64(d)/float64(time.Millisecond))
		}
		rss, err := peakRSSMB()
		if err != nil {
			return report{}, err
		}
		t.add(sw.check(ref))
		fmt.Fprintf(os.Stderr, "%d passes: p10 %.1f ms, p50 %.1f ms, p90 %.1f ms\n",
			len(lat), quantile(lat, 0.1), median(lat), quantile(lat, 0.9))
		rate := preds * float64(len(lat)) / total.Seconds()
		return t.report(endToEnd(setupS, rate, meanMisp(ref), rss)), nil
	}
}
