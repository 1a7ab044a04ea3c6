// Command perfbench is the repository benchmark. It times the simulator
// and the job service on seeded workloads, checks that their outputs are
// correct, and prints one JSON result object as its last line of output.
// README.md records why each workload and metric was chosen and the
// noise measurements behind the design.
//
//	go run . --workload sweep-headline-fb8 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured untraced.
// With --trace 1 it makes a separate traced run and reports the
// per-layer metrics, writing the recorded spans under .bench_build.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result object printed as the last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted and failed operations. A failed job, a refused
// request and an output mismatch each count as one failure.
type tally struct{ attempted, failed int }

func (t *tally) check(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

func (t tally) report(m map[string]metric) report {
	return report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

// opts are the run parameters every workload receives.
type opts struct {
	seed    uint64
	measure time.Duration // how long the timed phase runs
	dir     string        // scratch directory inside the checkout
}

// rng returns the run's seeded generator for one purpose; distinct
// streams keep, say, the reader's choices from shifting the job plan.
func (o opts) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(o.seed, stream))
}

// workload is one benchmark workload: run measures the end-to-end
// metrics untraced, traced measures the per-layer metrics.
type workload struct {
	run    func(o opts) (report, error)
	traced func(o opts) (report, error)
}

var workloads = map[string]workload{
	"sweep-headline-fb8":   {run: runSweep(headlineSweep), traced: traceSweep(headlineSweep)},
	"replay-trace-bimodal": {run: runSweep(replaySweep), traced: traceSweep(replaySweep)},
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	traceFlag := flag.Int("trace", 0, "1 makes a traced run that reports per-layer metrics")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *seconds <= 0 || *traceFlag < 0 || *traceFlag > 1 {
		fatal(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
	}
	dir := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("%s-s%d-p%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	o := opts{seed: *seed, measure: time.Duration(*seconds * float64(time.Second)), dir: dir}
	run := w.run
	if *traceFlag == 1 {
		run = w.traced
	}
	rep, err := run(o)
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// quantile returns the p-quantile of xs by linear interpolation between
// closest ranks (numpy's default rule).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// timedMedian runs fn reps times, each from a collected heap, and
// returns the median duration in seconds. Set-up is timed this way so
// one slow repetition does not move the reported set-up time.
func timedMedian(reps int, fn func() error) (float64, error) {
	var ts []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(start).Seconds())
	}
	return median(ts), nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// endToEnd assembles the end-to-end metric set every workload reports.
// predsPerS is the predictions of every timed pass over their summed
// time. rss is the peak resident set read when the timed phase ends,
// before the output checks allocate.
func endToEnd(setupS, predsPerS, misp, rss float64) map[string]metric {
	return map[string]metric{
		"setup_s":            {setupS, "s"},
		"branch_preds_per_s": {predsPerS, "1/s"},
		"misp_per_kuops":     {misp, "misp/Kuops"},
		"peak_rss_mb":        {rss, "MB"},
	}
}
