package main

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
)

// exactSweep computes every exact-count metric of a sweep workload.
func exactSweep(t *testing.T, def sweepDef, seed uint64) map[string]float64 {
	t.Helper()
	o := opts{seed: seed, dir: t.TempDir()}
	sw, _, err := def.setup(o, def.specs)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	_, warm := untracedPass(tr, sw)
	_, _, size, ok, err := probeCheckpoints(tr, warm, sw.builds)
	if err != nil || !ok {
		t.Fatalf("checkpoint round trip: ok=%v err=%v", ok, err)
	}
	_, _, _, bpb, err := probeStream(tr, sw, o)
	if err != nil {
		t.Fatal(err)
	}
	walk, crit := countWalks(sw)
	if c := sw.check(sw.pass()); c.failed != 0 {
		t.Fatalf("%s: %d of %d output checks failed", def.name, c.failed, c.attempted)
	}
	return map[string]float64{
		"misp_per_kuops":             meanMisp(sw.pass()),
		"core.walk_steps_per_branch": walk,
		"core.critiqued_frac":        crit,
		"trace.bytes_per_branch":     bpb,
		"checkpoint.snapshot_bytes":  size,
		"sim.specialized_frac":       specializedFrac(sw),
	}
}

// exactService computes the service probe's exact-count metrics from
// a sweep's fixed job sequence.
func exactService(t *testing.T, def sweepDef, seed uint64) map[string]float64 {
	t.Helper()
	o := opts{seed: seed, dir: t.TempDir()}
	sw, _, err := def.setup(o, def.specs)
	if err != nil {
		t.Fatal(err)
	}
	lm, tl, err := probeService(newTracer(), o, sweepJobs(sw), sw.traceDir, 12)
	if err != nil {
		t.Fatal(err)
	}
	if tl.failed != 0 {
		t.Fatalf("%d of %d service operations failed", tl.failed, tl.attempted)
	}
	return map[string]float64{
		"service.checkpoints_per_job": lm["service.checkpoints_per_job"].Value,
		"service.cache_hit_ratio":     lm["service.cache_hit_ratio"].Value,
	}
}

// TestExactCountsRepeat asserts that every exact-count metric repeats
// bit for bit across two runs of one seed.
func TestExactCountsRepeat(t *testing.T) {
	for _, def := range []sweepDef{headlineSweep, replaySweep} {
		t.Run(def.name, func(t *testing.T) {
			a, b := exactSweep(t, def, 7), exactSweep(t, def, 7)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("exact counts differ between runs of one seed:\n%v\n%v", a, b)
			}
			a, b = exactService(t, def, 7), exactService(t, def, 7)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("service exact counts differ between runs of one seed:\n%v\n%v", a, b)
			}
		})
	}
}

// TestSeedPicksInputs checks that the seed, and only the seed, decides
// the sweep windows.
func TestSeedPicksInputs(t *testing.T) {
	windows := func(seed uint64) string {
		sw, _, err := headlineSweep.setup(opts{seed: seed}, headlineSweep.specs)
		if err != nil {
			t.Fatal(err)
		}
		var s string
		for _, c := range sw.cells {
			s += fmt.Sprint(c.skip, c.train, c.measure)
		}
		return s
	}
	if windows(3) != windows(3) || windows(3) == windows(4) {
		t.Fatal("sweep windows are not a function of the seed")
	}
}

// TestSelfTimes checks the self-time rule: a span's length minus the
// union of its children, with overlapping children counted once.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.origin.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add(0, "bench.pass", at(0), at(100))
	tr.add(root, "program.NextBlock", at(10), at(30))
	tr.add(root, "core.SpecializedStep", at(20), at(50)) // overlaps the first child
	child := tr.add(root, "sim.RunMany", at(60), at(90))
	tr.add(child, "core.SpecializedStep", at(70), at(80))
	self := tr.selfTimes()
	want := []time.Duration{30, 20, 30, 20, 10}
	for i, w := range want {
		if self[i] != w*time.Millisecond {
			t.Errorf("span %d (%s): self %v, want %v", i+1, tr.spans[i].Name, self[i], w*time.Millisecond)
		}
	}
	if got := tr.unaccounted("bench.pass"); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("unaccounted share %v, want 0.3", got)
	}
}

// TestQuantile pins the interpolation rule.
func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for p, want := range map[float64]float64{0: 1, 0.1: 1.4, 0.5: 3, 0.9: 4.6, 1: 5} {
		if got := quantile(xs, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", p, got, want)
		}
	}
}
