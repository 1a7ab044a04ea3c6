package sim_test

// The devirtualization equivalence wall: the monomorphic block loops
// resolved by core.SpecializeStep must be *byte-identical* to the
// generic interface engine — same Results, same checkpoint bytes — for
// every registered family, over synthetic and trace-replay workloads,
// through the sequential, sharded, and one-pass runners, and across a
// crash-resume boundary in either direction (a checkpoint written by
// the specialized loop restored into a generic run, and vice versa).
// The -no-specialize escape hatch is only an escape hatch if both
// engines are interchangeable mid-flight.

import (
	"reflect"
	"testing"

	"prophetcritic/internal/budget"
	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/core"
	"prophetcritic/internal/program"
	"prophetcritic/internal/sim"
)

var genericOpt = sim.Options{
	WarmupBranches:  manyOpt.WarmupBranches,
	MeasureBranches: manyOpt.MeasureBranches,
	NoSpecialize:    true,
}

func snapBytes(t *testing.T, h *core.Hybrid) []byte {
	t.Helper()
	enc := checkpoint.NewEncoder()
	h.Snapshot(enc)
	return append([]byte(nil), enc.Bytes()...)
}

func restoreBytes(t *testing.T, h *core.Hybrid, buf []byte) {
	t.Helper()
	if err := h.Restore(checkpoint.NewDecoder(buf)); err != nil {
		t.Fatal(err)
	}
}

// equivBuilders is the wall's configuration matrix: every registered
// family prophet-alone, plus filtered and unfiltered hybrid pairs so
// all three specialization shapes (alone/unfiltered/filtered) and the
// wrong-path walk are exercised. The unfiltered pair is an off-table
// gskew whose history outgrows its index and its g1Hist table, so the
// per-block folds are checked where the index math folds history too.
func equivBuilders(t *testing.T) (names []string, builds []sim.Builder) {
	t.Helper()
	names, builds = familyBuilders(t)
	longHist, err := budget.ParseSpec("2Bc-gskew(entries=256,hist=20)")
	if err != nil {
		t.Fatal(err)
	}
	critic := budget.MustLookup(budget.TaggedGshare, 2)
	names = append(names, "gskew+tagged-gshare-fb8", "perceptron+filtered-perceptron-fb4",
		"gskew-h20+tagged-gshare-unfiltered-fb6")
	builds = append(builds,
		hybridBuilder(budget.Gskew, budget.TaggedGshare, 8),
		hybridBuilder(budget.Perceptron, budget.FilteredPerceptron, 4),
		func() *core.Hybrid {
			return core.New(longHist.Build(), critic.Build(), core.Config{FutureBits: 6, BORLen: critic.BORSize()})
		})
	return names, builds
}

// TestSpecializationCoverage pins the devirtualization surface: every
// registered family has a registered specialization hook, and every
// configuration in the wall's matrix actually resolves to a monomorphic
// loop (a silently-generic family would make the wall vacuous).
func TestSpecializationCoverage(t *testing.T) {
	if n := core.NumStepSpecs(); n != 9 {
		t.Fatalf("NumStepSpecs() = %d, want 9 (one hook per family)", n)
	}
	p := program.MustLoad("gcc")
	names, builds := equivBuilders(t)
	for i, build := range builds {
		st := sim.NewStepper(p, build())
		if !st.Specialized() {
			t.Errorf("%s: no specialized step loop resolved", names[i])
		}
		st.Close()
	}
}

// TestSpecializedMatchesGeneric is the wall itself: for every
// configuration × workload × runner, the specialized engine's Results
// and final checkpoint bytes equal the generic engine's.
func TestSpecializedMatchesGeneric(t *testing.T) {
	names, builds := equivBuilders(t)
	workloads := map[string]*program.Program{
		"gcc":       program.MustLoad("gcc"),
		"gcc-trace": recordTrace(t, "gcc"),
	}
	for wl, p := range workloads {
		t.Run(wl, func(t *testing.T) {
			t.Run("sequential", func(t *testing.T) {
				for i, build := range builds {
					hs, hg := build(), build()
					rs := sim.Run(p, hs, manyOpt)
					rg := sim.Run(p, hg, genericOpt)
					if !reflect.DeepEqual(rs, rg) {
						t.Errorf("%s: specialized result diverged:\n got %+v\nwant %+v", names[i], rs, rg)
					}
					if !reflect.DeepEqual(snapBytes(t, hs), snapBytes(t, hg)) {
						t.Errorf("%s: checkpoint bytes diverged between engines", names[i])
					}
				}
			})
			t.Run("sharded", func(t *testing.T) {
				so := sim.ShardOptions{Shards: 4, WarmupFrac: 0.25}
				for i, build := range builds {
					rs, err := sim.RunSharded(p, build, manyOpt, so)
					if err != nil {
						t.Fatal(err)
					}
					rg, err := sim.RunSharded(p, build, genericOpt, so)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(rs, rg) {
						t.Errorf("%s: sharded specialized diverged:\n got %+v\nwant %+v", names[i], rs, rg)
					}
				}
			})
			t.Run("many", func(t *testing.T) {
				hsS, hsG := buildAllTest(builds), buildAllTest(builds)
				rs := sim.RunManySegmentOpt(p, hsS, 0, manyOpt.WarmupBranches, manyOpt.MeasureBranches, false)
				rg := sim.RunManySegmentOpt(p, hsG, 0, manyOpt.WarmupBranches, manyOpt.MeasureBranches, true)
				for i := range builds {
					if !reflect.DeepEqual(rs[i], rg[i]) {
						t.Errorf("%s: one-pass specialized diverged:\n got %+v\nwant %+v", names[i], rs[i], rg[i])
					}
					if !reflect.DeepEqual(snapBytes(t, hsS[i]), snapBytes(t, hsG[i])) {
						t.Errorf("%s: one-pass checkpoint bytes diverged", names[i])
					}
				}
			})
		})
	}
}

// TestSpecializedCheckpointCrossRestore runs the kill-and-restart
// invariant across engines: a checkpoint written mid-measurement by one
// engine, restored and finished by the other, must reproduce the
// uninterrupted run bit for bit — in both directions.
func TestSpecializedCheckpointCrossRestore(t *testing.T) {
	p := program.MustLoad("gcc")
	build := hybridBuilder(budget.Gskew, budget.TaggedGshare, 8)
	const train, measure, cut = 2_000, 8_000, 3_000
	want := sim.RunSegment(p, build(), 0, train, measure)
	wantSnap := func() []byte {
		h := build()
		sim.RunSegment(p, h, 0, train, measure)
		return snapBytes(t, h)
	}()

	for _, dir := range []struct {
		name          string
		firstGeneric  bool
		secondGeneric bool
	}{
		{"specialized-then-generic", false, true},
		{"generic-then-specialized", true, false},
	} {
		t.Run(dir.name, func(t *testing.T) {
			h := build()
			st := sim.NewStepper(p, h)
			if dir.firstGeneric {
				st.ForceGeneric()
			} else if !st.Specialized() {
				t.Fatal("first leg unexpectedly generic")
			}
			st.Train(train)
			st.Measure(cut)
			partial := st.Result()
			buf := snapBytes(t, h)
			pos := st.Pos()
			st.Close()

			h2 := build()
			restoreBytes(t, h2, buf)
			st2 := sim.NewStepper(p, h2)
			if dir.secondGeneric {
				st2.ForceGeneric()
			} else if !st2.Specialized() {
				t.Fatal("second leg unexpectedly generic")
			}
			st2.Skip(pos)
			st2.Measure(measure - cut)
			got := st2.Result()
			st2.Close()
			got.Merge(partial)

			if !reflect.DeepEqual(got, want) {
				t.Errorf("cross-restored result %+v != uninterrupted %+v", got, want)
			}
			if !reflect.DeepEqual(snapBytes(t, h2), wantSnap) {
				t.Error("cross-restored final checkpoint bytes diverged from uninterrupted run")
			}
		})
	}
}
