package main

// The traced run. Spans are recorded in memory around calls into each
// layer's public functions, from this package only: the program stream
// (program.Run.NextBlock), the predictor step loops (core.SpecializeStep
// and the SpecializedStep it returns), the one-pass engine
// (sim.RunManySegment), checkpoints (core.Hybrid.Snapshot/Restore), the
// trace format (trace.Record/Load) and, in service.go, the HTTP API plus
// the server's own job spans. A layer's self time is its span's length
// minus the part its children cover.

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/core"
	"prophetcritic/internal/program"
	"prophetcritic/internal/sim"
	"prophetcritic/internal/trace"
)

// span is one timed call. Start and End are nanoseconds since the
// tracer's origin; Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory until the run writes them out.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(parent int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(t.origin))})
	return len(t.spans)
}

// end closes the span and returns its length.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.origin))
	return s.dur()
}

// add records a span measured elsewhere, such as one of the server's.
func (t *tracer) add(parent int, name string, start, end time.Time) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))})
	return len(t.spans)
}

// selfTimes returns every span's self time: its length minus the union
// of its children's intervals, clipped to its own.
func (t *tracer) selfTimes() []time.Duration {
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - time.Duration(covered)
	}
	return self
}

// layer names the layer a span belongs to: its name up to the first dot.
func layer(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// unaccounted returns the share of the named spans' time that no child
// span covers.
func (t *tracer) unaccounted(name string) float64 {
	self := t.selfTimes()
	var s, d time.Duration
	for i, sp := range t.spans {
		if sp.Name == name {
			s += self[i]
			d += sp.dur()
		}
	}
	return s.Seconds() / d.Seconds()
}

// write stores the spans and the per-layer self-time totals as gzipped
// JSON.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	byLayer := make(map[string]float64)
	for i, s := range t.spans {
		byLayer[layer(s.Name)] += self[i].Seconds() * 1e3
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	err = json.NewEncoder(zw).Encode(struct {
		LayerSelfMs map[string]float64 `json:"layer_self_ms"`
		Spans       []span             `json:"spans"`
	}{byLayer, t.spans})
	if zerr := zw.Close(); err == nil {
		err = zerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// spansPath is where a traced run leaves its spans; it outlives the
// run's scratch directory.
func spansPath(o opts, workload string) string {
	return filepath.Join(".bench_build", "perfbench", "spans", fmt.Sprintf("%s-s%d.json.gz", workload, o.seed))
}

const blockEvents = 256 // the engine's block-decode size

// passTimes are the layer totals of one hand-driven traced pass.
type passTimes struct {
	total, build, next, step time.Duration
}

// tracedPass drives the same work as sweep.pass by hand — decode a block
// of the committed stream, then run every hybrid's specialized step loop
// over it — with a span around each call. It returns the hybrids so the
// caller can check them against an untraced pass.
func tracedPass(t *tracer, sw *sweep, builds []sim.Builder, name string) (passTimes, [][]*core.Hybrid, error) {
	var pt passTimes
	root := t.begin(0, name)
	var all [][]*core.Hybrid
	buf := make([]program.Event, blockEvents)
	for _, c := range sw.cells {
		b := t.begin(root, "core.SpecializeStep")
		hs := buildAll(builds)
		steps := make([]core.SpecializedStep, len(hs))
		for i, h := range hs {
			if sp, ok := core.SpecializeStep(h, c.prog); ok {
				steps[i] = sp
				continue
			}
			// No specialized loop: the engine's per-branch interface path.
			walk := core.WalkFunc(c.prog.Walk)
			steps[i] = func(evs []program.Event) {
				for j := range evs {
					h.Step(evs[j].Addr, walk, evs[j].Taken)
				}
			}
		}
		pt.build += t.end(b)
		run := c.prog.NewRun()
		for done, total := 0, c.skip+c.predicted(); done < total; {
			k := min(blockEvents, total-done)
			if done < c.skip {
				k = min(k, c.skip-done)
			}
			s := t.begin(root, "program.NextBlock")
			got := run.NextBlock(buf[:k])
			pt.next += t.end(s)
			if got != k {
				run.Close()
				return pt, nil, fmt.Errorf("%s: stream ended after %d branches", c.prog.Name, done+got)
			}
			if done >= c.skip {
				for _, step := range steps {
					s := t.begin(root, "core.SpecializedStep")
					step(buf[:k])
					pt.step += t.end(s)
				}
			}
			done += k
		}
		if err := run.Close(); err != nil {
			return pt, nil, err
		}
		all = append(all, hs)
	}
	pt.total = t.end(root)
	return pt, all, nil
}

// untracedPass is sweep.pass with one span around each sim.RunManySegment
// call, keeping the hybrids for the equivalence check.
func untracedPass(t *tracer, sw *sweep) (time.Duration, [][]*core.Hybrid) {
	root := t.begin(0, "bench.untraced_pass")
	var all [][]*core.Hybrid
	for _, c := range sw.cells {
		hs := buildAll(sw.builds)
		s := t.begin(root, "sim.RunManySegment")
		sim.RunManySegment(c.prog, hs, c.skip, c.train, c.measure)
		t.end(s)
		all = append(all, hs)
	}
	return t.end(root), all
}

func sameStats(a, b [][]*core.Hybrid) bool {
	for i := range a {
		for j := range a[i] {
			if a[i][j].Stats() != b[i][j].Stats() {
				return false
			}
		}
	}
	return true
}

func durMin(ds []time.Duration) time.Duration {
	m := ds[0]
	for _, d := range ds[1:] {
		m = min(m, d)
	}
	return m
}

func durMedian(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// probeLayers measures every simulator-side per-layer metric on the
// sweep's cells, making traced/untraced pass pairs for the given time
// (between minPairs and maxPairs of them; the cap bounds span memory).
func probeLayers(t *tracer, sw *sweep, o opts, budget time.Duration) (map[string]metric, tally, error) {
	const minPairs, maxPairs = 4, 16
	var tl tally
	m := make(map[string]metric)
	preds := sw.predsPerPass()

	// Traced against untraced passes, alternating which runs first.
	var traced []passTimes
	var untraced []time.Duration
	var warm [][]*core.Hybrid
	deadline := time.Now().Add(budget)
	for i := 0; i < 2*maxPairs && (i < 2*minPairs || i%2 == 1 || time.Now().Before(deadline)); i++ {
		if (i+i/2)%2 == 0 {
			d, hs := untracedPass(t, sw)
			untraced = append(untraced, d)
			warm = hs
			continue
		}
		pt, hs, err := tracedPass(t, sw, sw.builds, "bench.traced_pass")
		if err != nil {
			return nil, tl, err
		}
		traced = append(traced, pt)
		tl.check(warm == nil || sameStats(hs, warm))
	}
	var tTot, tNext, tStep, tBuild []time.Duration
	for _, pt := range traced {
		tTot, tNext, tStep, tBuild = append(tTot, pt.total), append(tNext, pt.next), append(tStep, pt.step), append(tBuild, pt.build)
	}
	m["bench.tracing_overhead_frac"] = metric{durMin(tTot).Seconds()/durMin(untraced).Seconds() - 1, "fraction"}
	m["bench.pass_unaccounted_frac"] = metric{t.unaccounted("bench.traced_pass"), "fraction"}
	engine := durMedian(untraced) - durMedian(tNext) - durMedian(tStep) - durMedian(tBuild)
	m["sim.engine_ns_per_pred"] = metric{float64(engine) / preds, "ns"}

	// The same blocks through prophet-alone twins of every hybrid.
	alone := make([]hybridSpec, len(sw.specs))
	for i, s := range sw.specs {
		alone[i] = s.alone()
	}
	aloneBuilds, err := builders(alone)
	if err != nil {
		return nil, tl, err
	}
	var aStep []time.Duration
	for i := 0; i < max(1, len(traced)/2); i++ {
		pt, _, err := tracedPass(t, sw, aloneBuilds, "bench.prophet_pass")
		if err != nil {
			return nil, tl, err
		}
		aStep = append(aStep, pt.step)
	}
	prophetNs := float64(durMedian(aStep)) / preds
	m["core.prophet_ns_per_pred"] = metric{prophetNs, "ns"}
	m["core.critic_walk_ns_per_pred"] = metric{float64(durMedian(tStep))/preds - prophetNs, "ns"}

	walk, critiqued := countWalks(sw)
	m["core.walk_steps_per_branch"] = metric{walk, "count"}
	m["core.critiqued_frac"] = metric{critiqued, "fraction"}
	m["sim.specialized_frac"] = metric{specializedFrac(sw), "fraction"}

	enc, res, size, ok, err := probeCheckpoints(t, warm, sw.builds)
	if err != nil {
		return nil, tl, err
	}
	tl.check(ok)
	m["checkpoint.encode_us"] = metric{enc, "us"}
	m["checkpoint.restore_us"] = metric{res, "us"}
	m["checkpoint.snapshot_bytes"] = metric{size, "bytes"}

	gen, rec, dec, bytes, err := probeStream(t, sw, o)
	if err != nil {
		return nil, tl, err
	}
	m["program.gen_ns_per_branch"] = metric{gen, "ns"}
	m["trace.record_ns_per_branch"] = metric{rec, "ns"}
	m["trace.decode_ns_per_branch"] = metric{dec, "ns"}
	m["trace.bytes_per_branch"] = metric{bytes, "bytes"}
	return m, tl, nil
}

// countWalks steps fresh hybrids through core.Hybrid.Step with a
// counting core.WalkFunc over every cell window. It returns the mean
// speculative walk steps per predicted branch and the share of
// predicted branches the critic critiqued; both are exact counts.
func countWalks(sw *sweep) (walkPerBranch, critiquedFrac float64) {
	var walks, branches, critiqued uint64
	for _, c := range sw.cells {
		base := c.prog.Walk
		walk := core.WalkFunc(func(addr uint64, taken bool) (uint64, bool) {
			walks++
			return base(addr, taken)
		})
		for _, b := range sw.builds {
			h := b()
			run := c.prog.NewRun()
			for i := 0; i < c.skip; i++ {
				run.Next()
			}
			for i := 0; i < c.predicted(); i++ {
				ev := run.Next()
				h.Step(ev.Addr, walk, ev.Taken)
			}
			run.Close()
			st := h.Stats()
			branches += st.Branches
			if h.Critic() != nil {
				critiqued += st.Branches - st.FilteredTotal()
			}
		}
	}
	return float64(walks) / float64(branches), float64(critiqued) / float64(branches)
}

// specializedFrac is the share of hybrids sim.NewManyStepper puts on a
// specialized block loop, over every cell.
func specializedFrac(sw *sweep) float64 {
	var spec, n int
	for _, c := range sw.cells {
		st := sim.NewManyStepper(c.prog, buildAll(sw.builds))
		spec += st.NumSpecialized()
		n += len(sw.builds)
		st.Close()
	}
	return float64(spec) / float64(n)
}

// probeCheckpoints snapshots every warm hybrid and restores it into a
// fresh one, timing each call. It returns the mean over hybrids of the
// median encode and restore times in microseconds, the mean snapshot
// size, and whether every restored hybrid re-encodes to the same bytes.
func probeCheckpoints(t *tracer, warm [][]*core.Hybrid, builds []sim.Builder) (encUs, resUs, bytes float64, ok bool, err error) {
	const reps = 5
	root := t.begin(0, "bench.checkpoint_probe")
	defer t.end(root)
	ok = true
	var encs, ress, sizes []float64
	for _, hs := range warm {
		for i, h := range hs {
			var e, r []float64
			var snap []byte
			for k := 0; k < reps; k++ {
				enc := checkpoint.NewEncoder()
				s := t.begin(root, "checkpoint.Snapshot")
				h.Snapshot(enc)
				e = append(e, t.end(s).Seconds()*1e6)
				snap = enc.Bytes()
				fresh := builds[i]()
				s = t.begin(root, "checkpoint.Restore")
				rerr := fresh.Restore(checkpoint.NewDecoder(snap))
				r = append(r, t.end(s).Seconds()*1e6)
				if rerr != nil {
					return 0, 0, 0, false, fmt.Errorf("restoring %s: %w", h.Name(), rerr)
				}
				again := checkpoint.NewEncoder()
				fresh.Snapshot(again)
				ok = ok && string(again.Bytes()) == string(snap)
			}
			encs, ress, sizes = append(encs, median(e)), append(ress, median(r)), append(sizes, float64(len(snap)))
		}
	}
	return mean(encs), mean(ress), mean(sizes), ok, nil
}

// probeStream times the committed-stream layers on each cell's window:
// synthetic generation, trace recording, and trace replay decode, all
// through program.Run.NextBlock. It also reports the recorded trace's
// size per branch, an exact count.
func probeStream(t *tracer, sw *sweep, o opts) (genNs, recNs, decNs, bytesPer float64, err error) {
	buf := make([]program.Event, blockEvents)
	drain := func(parent int, p *program.Program, n int, name string) (time.Duration, error) {
		run := p.NewRun()
		defer run.Close()
		var d time.Duration
		for done := 0; done < n; {
			k := min(blockEvents, n-done)
			s := t.begin(parent, name)
			got := run.NextBlock(buf[:k])
			d += t.end(s)
			if got != k {
				return d, fmt.Errorf("%s: stream ended after %d branches", p.Name, done+got)
			}
			done += k
		}
		return d, nil
	}
	var gen, rec, dec time.Duration
	var total, size int64
	for i, c := range sw.cells {
		n := c.skip + c.predicted()
		root := t.begin(0, "bench.stream_probe")
		d, err := drain(root, c.synth, n, "program.NextBlock")
		if err != nil {
			return 0, 0, 0, 0, err
		}
		gen += d
		path := filepath.Join(o.dir, fmt.Sprintf("probe-%d.pctr", i))
		f, err := os.Create(path)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		s := t.begin(root, "trace.Record")
		err = trace.Record(c.synth, 0, n, f)
		rec += t.end(s)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, 0, 0, 0, err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		size += fi.Size()
		s = t.begin(root, "trace.Load")
		p, err := trace.Load(path)
		t.end(s)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		d, err = drain(root, p, n, "trace.NextBlock")
		if err != nil {
			return 0, 0, 0, 0, err
		}
		dec += d
		total += int64(n)
		t.end(root)
	}
	per := func(d time.Duration) float64 { return float64(d) / float64(total) }
	return per(gen), per(rec), per(dec), float64(size) / float64(total), nil
}

// traceSweep is a sweep workload's traced run: the layer probe on its
// cells, then the service probe submitting the same cells as jobs.
func traceSweep(def sweepDef) func(o opts) (report, error) {
	return func(o opts) (report, error) {
		sw, _, err := def.setup(o, def.specs)
		if err != nil {
			return report{}, err
		}
		t := newTracer()
		m, tl, err := probeLayers(t, sw, o, o.measure/2)
		if err != nil {
			return report{}, err
		}
		sm, st, err := probeService(t, o, sweepJobs(sw), sw.traceDir, 12)
		if err != nil {
			return report{}, err
		}
		tl.add(st)
		for k, v := range sm {
			m[k] = v
		}
		if err := t.write(spansPath(o, def.name)); err != nil {
			return report{}, err
		}
		return tl.report(m), nil
	}
}
