package main

// The service probe of the traced runs: an in-process pcserved
// (service.New and NewServer with the serve command's defaults) behind
// a loopback HTTP listener, loaded by two closed-loop clients. A
// submitter runs a sweep's cells as jobs and follows each job's NDJSON
// event stream until it is done; about half are fresh cells that
// simulate, checkpoint and store, the rest resubmit a completed job and
// are answered from the result cache. A reader loops on GET /v1/results
// and GET /v1/jobs/{id} beside it.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"prophetcritic/internal/obs"
	"prophetcritic/internal/program"
	"prophetcritic/internal/service"
	"prophetcritic/internal/sim"
	"prophetcritic/internal/trace"
)

const (
	// svcCkptEvery is the serve command's default checkpoint interval.
	svcCkptEvery = 20_000
	svcHitShare  = 0.5
	// readerThink keeps the reader from taking a whole CPU of the
	// two the simulator and server share.
	readerThink = 2 * time.Millisecond
)

// sweepJobs turns a sweep's cells into service jobs for the traced
// service probe: hybrids sharing a critic become one job per cell.
func sweepJobs(sw *sweep) func(k int) service.JobSpec {
	type group struct {
		critic string
		fb     uint
		specs  []string
	}
	var groups []*group
	for _, s := range sw.specs {
		var g *group
		for _, x := range groups {
			if x.critic == s.critic && x.fb == s.fb && len(x.specs) < 4 {
				g = x
			}
		}
		if g == nil {
			g = &group{critic: s.critic, fb: s.fb}
			groups = append(groups, g)
		}
		g.specs = append(g.specs, s.prophet)
	}
	return func(k int) service.JobSpec {
		g := groups[k%len(groups)]
		c := sw.cells[(k/len(groups))%len(sw.cells)]
		js := service.JobSpec{Client: "perfbench", Specs: g.specs, Critic: g.critic, FutureBits: g.fb,
			Warmup: c.train + k, Measure: c.measure}
		if sw.traceFile != "" {
			js.Traces = []string{sw.traceFile}
		} else {
			js.Benches = []string{c.synth.Name}
		}
		return js
	}
}

// server is one in-process pcserved.
type server struct {
	sched *service.Scheduler
	hs    *http.Server
	url   string
	done  chan error
}

func startServer(dataDir, traceDir string) (*server, error) {
	sim.EnableObs(true) // as pcserved serve does
	sched, err := service.New(service.Config{DataDir: dataDir, TraceDir: traceDir, Workers: 1, CheckpointEvery: svcCkptEvery})
	if err != nil {
		return nil, err
	}
	sched.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sched.Kill()
		return nil, err
	}
	s := &server{sched: sched, hs: &http.Server{Handler: service.NewServer(sched).Handler()},
		url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	if _, err := httpGet(s.url + "/healthz"); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop drains the scheduler, closes the listener and waits for both.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := s.sched.Drain(ctx)
	s.hs.Close()
	if err := <-s.done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return derr
}

var httpClient = &http.Client{Timeout: 60 * time.Second}

func httpGet(url string) ([]byte, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, nil
}

// jobRec is one submitted job and what the client saw of it.
type jobRec struct {
	spec        service.JobSpec
	hit         bool
	src         int // index of the resubmitted miss job, for hits
	id          string
	rows        []service.ResultRow
	submit, lat time.Duration
	start, done time.Time
	delivery    time.Duration // server job-span end to client receipt of done (traced runs)
}

// runJob submits one job and follows its event stream to the end.
func runJob(base string, j *jobRec) error {
	body, err := json.Marshal(j.spec)
	if err != nil {
		return err
	}
	j.start = time.Now()
	resp, err := httpClient.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var rec service.Job
	derr := json.NewDecoder(resp.Body).Decode(&rec)
	resp.Body.Close()
	j.submit = time.Since(j.start)
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("submit: %s", resp.Status)
	}
	if derr != nil {
		return fmt.Errorf("submit: %w", derr)
	}
	j.id = rec.ID
	resp, err = httpClient.Get(base + "/v1/jobs/" + j.id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		var ev service.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("event stream: %w", err)
		}
		switch ev.Type {
		case "done":
			j.done = time.Now()
			j.lat = j.done.Sub(j.start)
			j.rows = ev.Rows
			return nil
		case "failed":
			return fmt.Errorf("job %s failed: %s", j.id, ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("job %s: event stream ended before done", j.id)
}

// mix is the outcome of one closed-loop run of the two clients.
type mix struct {
	jobs      []*jobRec
	readLat   []float64 // ms
	readBytes []float64
	tally     tally
}

// runMix drives the submitter until more, given the number of jobs
// submitted so far, reports false, with the reader beside it once the
// first job is done. A traced mix fetches each job's
// server trace after the job, outside its latency, and records it
// under a client span.
func runMix(srv *server, o opts, missJob func(k int) service.JobSpec, more func(n int) bool, t *tracer) *mix {
	m := &mix{}
	rng := o.rng(3)
	var (
		mu      sync.Mutex
		doneIDs []string
		benches []string
	)
	var stop atomic.Bool
	var wg sync.WaitGroup
	readerStarted := false
	var rt tally
	startReader := func() {
		readerStarted = true
		wg.Add(1)
		go func() {
			defer wg.Done()
			rrng := o.rng(4)
			for i := 0; !stop.Load(); i++ {
				mu.Lock()
				url := srv.url + "/v1/jobs/" + doneIDs[rrng.IntN(len(doneIDs))]
				if i%2 == 0 {
					url = srv.url + "/v1/results?workload=" + benches[rrng.IntN(len(benches))]
				}
				mu.Unlock()
				start := time.Now()
				b, err := httpGet(url)
				d := time.Since(start)
				ok := err == nil && json.Valid(b)
				rt.check(ok)
				if ok {
					m.readLat = append(m.readLat, float64(d)/float64(time.Millisecond))
					m.readBytes = append(m.readBytes, float64(len(b)))
				}
				time.Sleep(readerThink)
			}
		}()
	}

	var misses []int
	for k := 0; more(k); k++ {
		j := &jobRec{}
		if len(misses) > 0 && rng.Float64() < svcHitShare {
			j.hit = true
			j.src = misses[rng.IntN(len(misses))]
			j.spec = m.jobs[j.src].spec
		} else {
			j.spec = missJob(len(misses))
		}
		var root int
		if t != nil {
			root = t.begin(0, "client.job")
		}
		err := runJob(srv.url, j)
		m.tally.check(err == nil)
		if t != nil {
			t.end(root)
			if j.id != "" {
				t.add(root, "http.submit", j.start, j.start.Add(j.submit))
			}
			if err == nil {
				importServerTrace(t, srv, root, j)
			}
		}
		if err != nil {
			continue
		}
		idx := len(m.jobs)
		m.jobs = append(m.jobs, j)
		if !j.hit {
			misses = append(misses, idx)
		}
		mu.Lock()
		doneIDs = append(doneIDs, j.id)
		benches = append(benches, workloadKey(j.spec))
		mu.Unlock()
		if !readerStarted {
			startReader()
		}
	}
	stop.Store(true)
	wg.Wait()
	m.tally.add(rt)
	return m
}

// workloadKey is the ?workload= filter naming a job's workload; a
// trace sweep has one workload, so its reads take every cell.
func workloadKey(js service.JobSpec) string {
	if len(js.Benches) > 0 {
		return js.Benches[0]
	}
	return ""
}

// serverSpanNames maps the server's span names onto layers.
var serverSpanNames = map[string]string{
	"job": "service.job", "queue": "service.queue", "workload": "service.workload",
	"warmup": "sim.warmup", "measure": "sim.measure", "checkpoint": "checkpoint.write",
}

// importServerTrace copies the server's span tree of job j under the
// client span root. A checkpoint span taken during a measure span is
// re-parented under it, so measure self time excludes the write. The
// gap between the server closing the job and the client reading its
// done event becomes an http.done_delivery span.
func importServerTrace(t *tracer, srv *server, root int, j *jobRec) {
	tr, ok := srv.sched.Trace(j.id)
	if !ok {
		return
	}
	ids := make(map[int]int)
	var measures []obs.Span
	for _, s := range tr.Spans {
		if s.Name == "measure" {
			measures = append(measures, s)
		}
	}
	var jobEnd time.Time
	for _, s := range tr.Spans {
		parent := root
		if p, ok := ids[s.Parent]; ok {
			parent = p
		}
		if s.Name == "checkpoint" {
			for _, ms := range measures {
				if p, ok := ids[ms.ID]; ok && !s.Start.Before(ms.Start) && !ms.End.IsZero() && !s.End.After(ms.End) {
					parent = p
				}
			}
		}
		name, ok := serverSpanNames[s.Name]
		if !ok {
			name = "service." + s.Name
		}
		end := s.End
		if end.IsZero() {
			end = time.Now()
		}
		ids[s.ID] = t.add(parent, name, s.Start, end)
		if s.Name == "job" {
			jobEnd = end
		}
	}
	if jobEnd.IsZero() {
		return
	}
	// The server emits done just before it closes the job span, so the
	// client can read done first; the delivery time is then negative.
	j.delivery = j.done.Sub(jobEnd)
	if j.delivery > 0 {
		t.add(root, "http.done_delivery", jobEnd, j.done)
	}
}

// checkMix verifies every job's rows: a miss job's against a direct
// sim.RunMany of its cells, a hit job's against the job that stored
// them. The direct runs are split over two goroutines.
func checkMix(m *mix, traceDir string) (tally, error) {
	var t tally
	progs := make(map[string]*program.Program)
	type direct struct {
		j    *jobRec
		p    *program.Program
		bs   []sim.Builder
		same bool
	}
	var ds []*direct
	for _, j := range m.jobs {
		if j.hit {
			src := m.jobs[j.src]
			ok := len(j.rows) == len(src.rows)
			for i := 0; ok && i < len(j.rows); i++ {
				ok = j.rows[i].Cached && sameRow(j.rows[i], src.rows[i])
			}
			t.check(ok)
			continue
		}
		key := fmt.Sprint(j.spec.Benches, j.spec.Traces)
		p, ok := progs[key]
		if !ok {
			var err error
			if len(j.spec.Traces) > 0 {
				p, err = trace.Load(filepath.Join(traceDir, j.spec.Traces[0]))
			} else {
				p, err = program.Load(j.spec.Benches[0])
			}
			if err != nil {
				return t, err
			}
			progs[key] = p
		}
		specs := make([]hybridSpec, len(j.spec.Specs))
		for i, s := range j.spec.Specs {
			specs[i] = hybridSpec{s, j.spec.Critic, j.spec.FutureBits}
		}
		bs, err := builders(specs)
		if err != nil {
			return t, err
		}
		ds = append(ds, &direct{j: j, p: p, bs: bs})
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(ds); i += 2 {
				d := ds[i]
				rs := sim.RunMany(d.p, d.bs, sim.Options{WarmupBranches: d.j.spec.Warmup, MeasureBranches: d.j.spec.Measure})
				ok := len(rs) == len(d.j.rows)
				for i := 0; ok && i < len(rs); i++ {
					r, row := rs[i], d.j.rows[i]
					ok = !row.Cached && row.Config == r.Config && row.Benchmark == r.Benchmark &&
						row.Branches == r.Branches && row.Uops == r.Uops && row.ProphetMisp == r.ProphetMisp &&
						row.FinalMisp == r.FinalMisp && row.Critiques == r.Critiques
				}
				d.same = ok
			}
		}()
	}
	wg.Wait()
	for _, d := range ds {
		t.check(d.same)
	}
	return t, nil
}

// sameRow compares the simulated content of two rows, not provenance.
func sameRow(a, b service.ResultRow) bool {
	return a.Config == b.Config && a.Benchmark == b.Benchmark && a.Branches == b.Branches &&
		a.Uops == b.Uops && a.ProphetMisp == b.ProphetMisp && a.FinalMisp == b.FinalMisp &&
		a.Critiques == b.Critiques && a.MispPerKuops == b.MispPerKuops
}

// split returns the latencies in ms of the miss and hit jobs.
func (m *mix) split() (missMs, hitMs []float64) {
	for _, j := range m.jobs {
		ms := float64(j.lat) / float64(time.Millisecond)
		if j.hit {
			hitMs = append(hitMs, ms)
		} else {
			missMs = append(missMs, ms)
		}
	}
	return missMs, hitMs
}

// freshServer starts a server in a fresh data directory.
func freshServer(o opts, traceDir string) (*server, error) {
	dir, err := os.MkdirTemp(o.dir, "svc-")
	if err != nil {
		return nil, err
	}
	return startServer(dir, traceDir)
}

// probeService runs a traced mix of a fixed number of jobs and returns
// the service's per-layer metrics.
func probeService(t *tracer, o opts, missJob func(k int) service.JobSpec, traceDir string, jobs int) (map[string]metric, tally, error) {
	srv, err := freshServer(o, traceDir)
	if err != nil {
		return nil, tally{}, err
	}
	m := runMix(srv, o, missJob, func(n int) bool { return n < jobs }, t)
	scrape, serr := httpGet(srv.url + "/metricsz")
	if err := srv.stop(); err != nil {
		return nil, tally{}, err
	}
	if serr != nil {
		return nil, tally{}, serr
	}
	prom, err := obs.ParseMetrics(bytes.NewReader(scrape))
	if err != nil {
		return nil, tally{}, err
	}
	tl := m.tally
	ct, err := checkMix(m, traceDir)
	if err != nil {
		return nil, tl, err
	}
	tl.add(ct)
	lm, err := serviceLayers(t, m, prom)
	return lm, tl, err
}

// serviceLayers computes the service's per-layer metrics from a traced
// mix, its imported spans and the server's final /metricsz scrape.
func serviceLayers(t *tracer, m *mix, prom obs.Metrics) (map[string]metric, error) {
	stage := func(name string) (float64, error) {
		l := map[string]string{"stage": name}
		sum, err := prom.LabeledValue("pcserved_stage_duration_seconds_sum", l)
		if err != nil {
			return 0, err
		}
		n, err := prom.LabeledValue("pcserved_stage_duration_seconds_count", l)
		if err != nil {
			return 0, err
		}
		return sum / n * 1e3, nil
	}
	queue, err := stage("queue_wait")
	if err != nil {
		return nil, err
	}
	ckpt, err := stage("checkpoint_write")
	if err != nil {
		return nil, err
	}
	hits, err := prom.Value("pcserved_cache_hits_total")
	if err != nil {
		return nil, err
	}
	misses, err := prom.Value("pcserved_cache_misses_total")
	if err != nil {
		return nil, err
	}

	// Per-job figures from the imported server spans.
	var warmup, measure []float64
	var ckpts, missJobs int
	self := t.selfTimes()
	for i, s := range t.spans {
		ms := s.dur().Seconds() * 1e3
		switch s.Name {
		case "sim.warmup":
			warmup = append(warmup, ms)
		case "sim.measure":
			measure = append(measure, self[i].Seconds()*1e3)
		case "checkpoint.write":
			ckpts++
		}
	}
	var submit, delivery []float64
	for _, j := range m.jobs {
		submit = append(submit, float64(j.submit)/float64(time.Millisecond))
		delivery = append(delivery, float64(j.delivery)/float64(time.Millisecond))
		if !j.hit {
			missJobs++
		}
	}
	missMs, hitMs := m.split()
	out := map[string]metric{
		"service.submit_ms":           {median(submit), "ms"},
		"service.done_to_client_ms":   {median(delivery), "ms"},
		"service.queue_wait_ms":       {queue, "ms"},
		"service.warmup_ms":           {median(warmup), "ms"},
		"service.measure_ms":          {median(measure), "ms"},
		"service.checkpoint_write_ms": {ckpt, "ms"},
		"service.checkpoints_per_job": {float64(ckpts) / float64(missJobs), "count"},
		"service.cache_hit_ratio":     {hits / (hits + misses), "fraction"},
		"service.read_bytes":          {mean(m.readBytes), "bytes"},
		"service.miss_job_p50_ms":     {median(missMs), "ms"},
		"service.hit_job_p50_ms":      {median(hitMs), "ms"},
		"service.read_p50_ms":         {median(m.readLat), "ms"},
		"service.read_p99_ms":         {quantile(m.readLat, 0.99), "ms"},
		"bench.job_unaccounted_frac":  {t.unaccounted("client.job"), "fraction"},
	}
	return out, nil
}
