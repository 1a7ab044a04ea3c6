package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/core"
	"prophetcritic/internal/obs"
	"prophetcritic/internal/pool"
	"prophetcritic/internal/program"
	"prophetcritic/internal/sim"
)

// Config configures a Scheduler.
type Config struct {
	// DataDir is the durability root: job records under jobs/,
	// checkpoints under ck/. Required.
	DataDir string
	// QueueCap bounds the number of queued jobs (default 64).
	QueueCap int
	// PerClient bounds one client's queued+running jobs (default 16).
	PerClient int
	// Workers is the number of jobs run concurrently (default 1: one job
	// at a time, each fanning its workloads/shards out on the shared
	// worker pool — the batching regime the pool is sized for).
	Workers int
	// CheckpointEvery is the measured-branch interval between hybrid
	// snapshots and progress events (default 20000).
	CheckpointEvery int
	// TraceDir is where job trace workloads are resolved (default
	// DataDir).
	TraceDir string

	// CrashAfterCheckpoints, when > 0, invokes Crash after that many
	// checkpoint writes — fault injection for the kill-and-restart
	// smoke tests. Crash runs on whatever goroutine wrote the
	// checkpoint; cmd/pcserved wires it to os.Exit.
	CrashAfterCheckpoints int
	Crash                 func()

	// Cluster routes jobs through the coordinator/worker protocol: each
	// workload's shard windows become leasable units that registered
	// workers pull and execute. The worker endpoints exist either way;
	// without Cluster they simply never see units.
	Cluster bool
	// LeaseTTL bounds one unit lease; an unrenewed lease past its
	// deadline is re-issued (default 5s). Mid-unit checkpoint uploads
	// renew the lease.
	LeaseTTL time.Duration
	// HeartbeatEvery is the worker heartbeat interval the coordinator
	// assigns (default 1s); a worker missing HeartbeatMisses consecutive
	// intervals (default 3) is declared dead and its leases expire
	// immediately.
	HeartbeatEvery  time.Duration
	HeartbeatMisses int
	// UnitAttempts is the per-unit lease budget (default 4): a unit
	// re-issued that many times without completing degrades to local
	// execution on the coordinator's own pool.
	UnitAttempts int
	// RetryBackoff/RetryBackoffMax shape the capped exponential backoff
	// (with jitter) between re-issues of an expired unit (defaults
	// 200ms / 5s).
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// LocalFallbackAfter pulls a pending unit onto the local pool when
	// no live workers exist for that long (default 3s), so a cluster job
	// with no fleet still completes.
	LocalFallbackAfter time.Duration

	// Logger receives structured lifecycle records (job admissions,
	// state transitions, fleet events), stamped with job/unit/worker
	// correlation IDs by the obs handler. nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	if c.PerClient == 0 {
		c.PerClient = 16
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 20_000
	}
	if c.TraceDir == "" {
		c.TraceDir = c.DataDir
	}
	if c.Crash == nil {
		c.Crash = func() { panic("service: checkpoint crash injection fired with no Crash hook") }
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	if c.LeaseTTL == 0 {
		c.LeaseTTL = 5 * time.Second
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = time.Second
	}
	if c.HeartbeatMisses == 0 {
		c.HeartbeatMisses = 3
	}
	if c.UnitAttempts == 0 {
		c.UnitAttempts = 4
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 200 * time.Millisecond
	}
	if c.RetryBackoffMax == 0 {
		c.RetryBackoffMax = 5 * time.Second
	}
	if c.LocalFallbackAfter == 0 {
		c.LocalFallbackAfter = 3 * time.Second
	}
	return c
}

// Metrics is a point-in-time snapshot of the scheduler's operational
// counters, rendered by the server's /metricsz endpoint.
type Metrics struct {
	Submitted          uint64
	Completed          uint64
	Failed             uint64
	Rejected           uint64
	ResumedJobs        uint64
	CheckpointsWritten uint64
	QueueDepth         int
	Running            int
	Draining           bool

	// Result-cache counters: cell lookups during job execution (hits are
	// rows answered without simulating) and the persisted store size.
	CacheHits    uint64
	CacheMisses  uint64
	CacheStores  uint64
	CacheEntries int
	CacheBytes   int64
}

// errStopped reports that a job was interrupted by drain or kill; the
// job record stays "running" on disk and is resumed on the next start.
var errStopped = errors.New("service: scheduler stopping")

// Scheduler owns the job queue, the worker goroutines, durability, and
// the per-job event logs. One Scheduler per data directory.
type Scheduler struct {
	cfg   Config
	st    *store
	q     *jobQueue
	co    *coordinator
	cache *resultCache

	mu     sync.Mutex
	jobs   map[string]*Job
	logs   map[string]*EventLog
	nextID int

	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup

	log      *slog.Logger
	reg      *obs.Registry
	tracer   *obs.Tracer
	stageDur *obs.HistogramVec
	spanMu   sync.Mutex
	spans    map[string]*jobSpans

	submitted atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	rejected  atomic.Uint64
	resumed   atomic.Uint64
	ckWrites  atomic.Uint64
	crashLeft atomic.Int64
	running   atomic.Int64
	draining  atomic.Bool
}

// New opens (or creates) the data directory, loads every persisted job,
// and re-enqueues unfinished ones: queued jobs restart from scratch,
// running jobs resume from their last checkpoint. Call Start to begin
// executing.
func New(cfg Config) (*Scheduler, error) {
	cfg = cfg.withDefaults()
	st, err := newStore(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	cache, err := newResultCache(filepath.Join(cfg.DataDir, "cache"))
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:   cfg,
		st:    st,
		q:     newJobQueue(cfg.QueueCap, cfg.PerClient),
		co:    newCoordinator(cfg),
		cache: cache,
		jobs:  make(map[string]*Job),
		logs:  make(map[string]*EventLog),
		ctx:   ctx,
		stop:  cancel,
		log:   cfg.Logger,
	}
	s.crashLeft.Store(int64(cfg.CrashAfterCheckpoints))
	s.initObs()

	jobs, err := st.loadJobs()
	if err != nil {
		cancel()
		return nil, err
	}
	for _, j := range jobs {
		// Records written before the multi-spec schema carry only the
		// single-spec alias; fold it so resume arithmetic (rows per
		// workload = len(Specs)) holds for every loaded job.
		j.Spec = j.Spec.normalized()
		s.jobs[j.ID] = j
		s.logs[j.ID] = newEventLog()
		if n := idNumber(j.ID); n >= s.nextID {
			s.nextID = n + 1
		}
		switch j.State {
		case StateQueued, StateRunning:
			if j.State == StateRunning {
				j.Resumed = true
				j.State = StateQueued
				if err := st.saveJob(j); err != nil {
					cancel()
					return nil, err
				}
			}
			s.emit(j.ID, Event{Type: "queued", Job: j.ID})
			if err := s.q.Enqueue(j, true); err != nil {
				cancel()
				return nil, err
			}
		case StateDone:
			// Seed the fresh event log with the terminal event so a
			// post-restart stream still ends with the job's rows. No
			// observer can see the job before New returns, so the
			// stream already ends when its done state is first read.
			s.emit(j.ID, Event{Type: "done", Job: j.ID, Rows: j.Rows})
		case StateFailed:
			s.emit(j.ID, Event{Type: "failed", Job: j.ID, Error: j.Error})
		}
	}
	return s, nil
}

func idNumber(id string) int {
	var n int
	fmt.Sscanf(id, "j%d", &n)
	return n
}

// Start launches the worker goroutines.
func (s *Scheduler) Start() {
	for w := 0; w < s.cfg.Workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				j, ok := s.q.Dequeue(s.ctx)
				if !ok {
					return
				}
				s.runJob(j)
			}
		}()
	}
}

// Submit validates, persists, and enqueues a job.
func (s *Scheduler) Submit(spec JobSpec) (Job, error) {
	if s.draining.Load() {
		return Job{}, ErrDraining
	}
	spec = spec.normalized()
	if err := spec.validate(); err != nil {
		return Job{}, err
	}
	refs, err := spec.resolveWorkloads(s.cfg.TraceDir)
	if err != nil {
		return Job{}, err
	}

	s.mu.Lock()
	id := fmt.Sprintf("j%06d", s.nextID)
	s.nextID++
	j := &Job{ID: id, Spec: spec, Workloads: refs, State: StateQueued}
	s.jobs[id] = j
	s.logs[id] = newEventLog()
	s.mu.Unlock()

	// Persist before enqueueing: a worker may pick the job up the
	// instant it is queued, and every later transition assumes the
	// record exists. The returned copy is taken before Enqueue for the
	// same reason — afterwards a worker may already be mutating the job.
	if err := s.st.saveJob(j); err != nil {
		s.dropJob(id)
		return Job{}, fmt.Errorf("%w: %v", ErrInternal, err)
	}
	cp := *j
	// The "queued" event goes out before Enqueue: the instant the job is
	// queued a worker may emit "started", and the stream's documented
	// order (queued first) must not race that. dropJob discards the log
	// if admission then fails. The trace's job+queue spans open here for
	// the same reason — a worker may start the job immediately.
	s.emit(id, Event{Type: "queued", Job: id})
	s.traceSubmit(id)
	if err := s.q.Enqueue(j, false); err != nil {
		s.rejected.Add(1)
		s.dropJob(id)
		return Job{}, err
	}
	s.submitted.Add(1)
	s.log.InfoContext(obs.WithJob(context.Background(), id), "job admitted",
		"client", spec.Client, "specs", len(spec.Specs), "workloads", len(refs))
	return cp, nil
}

// dropJob removes a job that failed admission.
func (s *Scheduler) dropJob(id string) {
	s.mu.Lock()
	delete(s.jobs, id)
	delete(s.logs, id)
	s.mu.Unlock()
	s.traceJobEnd(id, "rejected")
	os.Remove(s.st.jobPath(id))
}

// JobSnapshot returns a copy of one job's current state.
func (s *Scheduler) JobSnapshot(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	cp := *j
	cp.Rows = append([]ResultRow(nil), j.Rows...)
	return cp, true
}

// Jobs returns a copy of every job, ordered by ID.
func (s *Scheduler) Jobs() []Job {
	s.mu.Lock()
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Strings(ids)
	out := make([]Job, 0, len(ids))
	for _, id := range ids {
		if j, ok := s.JobSnapshot(id); ok {
			out = append(out, j)
		}
	}
	return out
}

// Events returns the event log for one job.
func (s *Scheduler) Events(id string) (*EventLog, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.logs[id]
	return l, ok
}

// Metrics returns the operational counter snapshot.
func (s *Scheduler) Metrics() Metrics {
	cs := s.cache.stats()
	return Metrics{
		Submitted:          s.submitted.Load(),
		Completed:          s.completed.Load(),
		Failed:             s.failed.Load(),
		Rejected:           s.rejected.Load(),
		ResumedJobs:        s.resumed.Load(),
		CheckpointsWritten: s.ckWrites.Load(),
		QueueDepth:         s.q.Depth(),
		Running:            int(s.running.Load()),
		Draining:           s.draining.Load(),
		CacheHits:          cs.hits,
		CacheMisses:        cs.misses,
		CacheStores:        cs.stores,
		CacheEntries:       cs.entries,
		CacheBytes:         cs.bytes,
	}
}

// CacheResults lists cached result cells matching the optional spec and
// workload filters — the GET /v1/results surface.
func (s *Scheduler) CacheResults(spec, workload string) []CacheEntry {
	return s.cache.list(spec, workload)
}

// Drain gracefully stops the scheduler: admissions are rejected, running
// jobs checkpoint at their next interval boundary and stop (their
// records stay "running" for the next start to resume), and Drain
// returns once every worker has parked or ctx expires.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.q.Close()
	s.stop()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("service: drain timed out: %w", ctx.Err())
	}
	s.endLogs()
	return err
}

// Kill stops the scheduler abruptly, persisting nothing beyond the
// checkpoints already written — the in-process equivalent of the
// process dying, used by the restart-resume tests.
func (s *Scheduler) Kill() {
	s.draining.Store(true)
	s.q.Close()
	s.stop()
	s.wg.Wait()
	s.endLogs()
}

func (s *Scheduler) endLogs() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range s.logs {
		l.end()
	}
}

func (s *Scheduler) emit(id string, e Event) {
	s.mu.Lock()
	l, ok := s.logs[id]
	s.mu.Unlock()
	if ok {
		l.append(e)
	}
}

// setState persists a job state transition.
func (s *Scheduler) setState(j *Job, state string) error {
	s.mu.Lock()
	j.State = state
	s.mu.Unlock()
	return s.st.saveJob(j)
}

// A job becomes terminal in two steps. First its record is persisted
// in the terminal state (persistTerminal), so a crash from here on
// restarts it as terminal (New seeds its stream from the record). Then
// publishTerminal closes its span and, under s.mu, both sets the state
// JobSnapshot and GET /v1/jobs/{id} report and appends the terminal
// event that ends its stream. Observers therefore see the two together:
// a client that reads done or failed from either finds the span closed,
// the stream ended, and the other agreeing.

// persistTerminal saves j's record as it reads once terminal, without
// publishing the state.
func (s *Scheduler) persistTerminal(j *Job, state, errMsg string) error {
	s.mu.Lock()
	rec := *j
	s.mu.Unlock()
	rec.State, rec.Error = state, errMsg
	return s.st.saveJob(&rec)
}

// publishTerminal closes j's span, then publishes its terminal state
// and terminal event atomically with respect to JobSnapshot.
func (s *Scheduler) publishTerminal(j *Job, state, errMsg string, e Event) {
	s.traceJobEnd(j.ID, state)
	s.mu.Lock()
	defer s.mu.Unlock()
	j.State, j.Error = state, errMsg
	if l, ok := s.logs[j.ID]; ok {
		l.append(e)
	}
}

// failJob marks a job failed.
func (s *Scheduler) failJob(j *Job, err error) {
	_ = s.persistTerminal(j, StateFailed, err.Error())
	s.st.removeCheckpoint(j.ID)
	s.failed.Add(1)
	s.q.Release(j.Spec.Client)
	s.publishTerminal(j, StateFailed, err.Error(), Event{Type: "failed", Job: j.ID, Error: err.Error()})
	s.log.ErrorContext(obs.WithJob(context.Background(), j.ID), "job failed", "err", err)
}

// loadWorkload resolves one workload reference to a runnable program.
func (s *Scheduler) loadWorkload(ref WorkloadRef) (*program.Program, error) {
	return loadWorkloadIn(ref, s.cfg.TraceDir)
}

// RetryAfterSeconds estimates how long a rejected submitter should wait
// before retrying, from the live queue state: roughly one drain cycle of
// the backlog per configured worker, clamped to [1, 60] seconds. While
// draining the server will not admit again until a restart, so the hint
// is a flat 5 seconds — long enough to outlive a rolling restart.
func (s *Scheduler) RetryAfterSeconds() int {
	if s.draining.Load() {
		return 5
	}
	workers := s.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	sec := s.q.Depth() / workers
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// checkpointWritten counts a write and fires crash injection.
func (s *Scheduler) checkpointWritten() {
	s.ckWrites.Add(1)
	if s.cfg.CrashAfterCheckpoints > 0 && s.crashLeft.Add(-1) == 0 {
		s.cfg.Crash()
	}
}

// runJob executes one job to completion, drain, or failure. Each
// workload is answered spec by spec from the result cache first; the
// remaining misses run in ONE pass of the workload's committed stream
// (sim.RunMany semantics) and are stored back, so a later identical
// submission is a lookup.
func (s *Scheduler) runJob(j *Job) {
	s.running.Add(1)
	defer s.running.Add(-1)

	jctx := obs.WithJob(context.Background(), j.ID)
	root := s.traceRunStart(j)
	wlSpan := 0
	endWl := func() {
		if wlSpan != 0 {
			s.tracer.EndSpan(j.ID, wlSpan)
			s.setWorkloadSpan(j.ID, 0)
			wlSpan = 0
		}
	}
	defer endWl()

	specs := j.Spec.Specs
	builders := make([]sim.Builder, len(specs))
	cells := make([]string, len(specs))
	for i, spec := range specs {
		b, err := HybridBuilder(spec, j.Spec.Critic, j.Spec.FutureBits, j.Spec.Unfiltered)
		if err != nil {
			s.failJob(j, err) // unreachable for specs admitted by Submit
			return
		}
		cell, err := cellSpec(spec, j.Spec.Critic, j.Spec.FutureBits, j.Spec.Unfiltered)
		if err != nil {
			s.failJob(j, err)
			return
		}
		builders[i] = b
		cells[i] = cell
	}
	if err := s.setState(j, StateRunning); err != nil {
		s.failJob(j, err)
		return
	}
	if j.Resumed {
		s.resumed.Add(1)
		s.emit(j.ID, Event{Type: "resumed", Job: j.ID})
		s.log.InfoContext(jctx, "job resumed")
	} else {
		s.emit(j.ID, Event{Type: "started", Job: j.ID})
		s.log.InfoContext(jctx, "job started")
	}

	// A resumed job continues at the first workload without persisted
	// rows (each finished workload appended len(specs) rows); its
	// checkpoint, if any, belongs to that workload.
	window := j.Spec.windowKey()
	for wi := len(j.Rows) / len(specs); wi < len(j.Workloads); wi++ {
		ref := j.Workloads[wi]
		wlID, err := workloadID(ref, s.cfg.TraceDir)
		if err != nil {
			s.failJob(j, err)
			return
		}
		p, err := s.loadWorkload(ref)
		if err != nil {
			s.failJob(j, err)
			return
		}
		wlSpan = s.tracer.StartSpan(j.ID, root, "workload",
			spanAttrs("workload", p.Name, "index", itoa(wi)))
		s.setWorkloadSpan(j.ID, wlSpan)

		// Cache pass: serve what exists, collect the miss set. A
		// -no-specialize job skips cache reads: its results would be
		// byte-identical to the cached ones, but the point of the flag
		// is to actually run the generic engine.
		rows := make([]ResultRow, len(specs))
		var missIdx []int
		for i := range specs {
			key := cellKey(cells[i], wlID, window)
			if e, ok := s.cache.get(key); ok && !j.Spec.NoSpecialize {
				row := e.Row
				row.Spec = specs[i]
				row.CellKey = key
				row.Cached = true
				row.SourceJob = e.Job
				rows[i] = row
			} else {
				missIdx = append(missIdx, i)
			}
		}

		if len(missIdx) > 0 {
			var rs []sim.Result
			switch {
			case s.cfg.Cluster:
				rs, err = s.runClusteredSpecs(j, wi, ref, p, specs, builders, missIdx)
			case len(missIdx) == 1:
				// A single miss keeps the original checkpoint formats, so
				// pre-upgrade "running" records resume unchanged.
				var r sim.Result
				i := missIdx[0]
				if j.Spec.Shards <= 1 {
					r, err = s.runStepped(j, wi, p, builders[i], specs[i])
				} else {
					r, err = s.runSharded(j, wi, p, builders[i], specs[i])
				}
				rs = []sim.Result{r}
			case j.Spec.Shards <= 1:
				rs, err = s.runSteppedMany(j, wi, p, specs, builders, missIdx)
			default:
				rs, err = s.runShardedMany(j, wi, p, specs, builders, missIdx)
			}
			if errors.Is(err, errStopped) {
				return // record stays "running"; next start resumes
			}
			if err != nil {
				s.failJob(j, err)
				return
			}
			for k, i := range missIdx {
				key := cellKey(cells[i], wlID, window)
				row := rowFromResult(rs[k])
				row.Spec = specs[i]
				row.CellKey = key
				rows[i] = row
				if err := s.cache.put(CacheEntry{Key: key, Spec: cells[i], Workload: wlID, Window: window, Job: j.ID, Row: row}); err != nil {
					s.failJob(j, err)
					return
				}
			}
		}

		s.mu.Lock()
		j.Rows = append(j.Rows, rows...)
		s.mu.Unlock()
		if err := s.st.saveJob(j); err != nil {
			s.failJob(j, err)
			return
		}
		s.st.removeCheckpoint(j.ID)
		for i := range rows {
			row := rows[i]
			s.emit(j.ID, Event{Type: "result", Job: j.ID, Workload: p.Name,
				Done: j.Spec.Measure, Total: j.Spec.Measure, Row: &row})
		}
		endWl()
	}

	if err := s.persistTerminal(j, StateDone, ""); err != nil {
		s.failJob(j, err)
		return
	}
	s.st.removeCheckpoint(j.ID)
	s.completed.Add(1)
	s.q.Release(j.Spec.Client)
	s.mu.Lock()
	rows := append([]ResultRow(nil), j.Rows...)
	s.mu.Unlock()
	s.publishTerminal(j, StateDone, "", Event{Type: "done", Job: j.ID, Rows: rows})
	s.log.InfoContext(jctx, "job done", "rows", len(rows))
}

// steppedResume loads a stepped checkpoint applicable to workload wi and
// spec, if one exists.
func (s *Scheduler) steppedResume(j *Job, wi int, wlName, spec string, build sim.Builder) (ck *ckState, meta checkpoint.Meta, err error) {
	meta, dec, ok, err := s.st.readCheckpoint(j.ID)
	if err != nil || !ok {
		return nil, meta, err
	}
	if meta.Workload != wlName || meta.Prophet != spec {
		// Checkpoint from another workload — or from a pass whose miss
		// set differed (the cache may answer a pre-crash miss after a
		// restart): restart this workload clean.
		return nil, meta, nil
	}
	c := &ckState{mode: ckModeStepped, hybrid: build()}
	if err := c.Restore(dec); err != nil {
		return nil, meta, fmt.Errorf("service: restoring checkpoint for job %s: %w", j.ID, err)
	}
	if c.workload != wi {
		return nil, meta, nil
	}
	return c, meta, nil
}

// runStepped runs one workload through a sim.Stepper in
// CheckpointEvery-sized measured chunks, snapshotting the hybrid and
// partial counters at every boundary. Interrupted runs resume from the
// snapshot and produce counters bit-identical to an uninterrupted run.
func (s *Scheduler) runStepped(j *Job, wi int, p *program.Program, build sim.Builder, spec string) (sim.Result, error) {
	opt := j.Spec.simOptions()
	total := opt.MeasureBranches

	var (
		partial      sim.Result
		measuredDone int
		skip         int
		train        = opt.WarmupBranches
		hybrid       *core.Hybrid
	)
	if j.Resumed {
		ck, meta, err := s.steppedResume(j, wi, p.Name, spec, build)
		if err != nil {
			return sim.Result{}, err
		}
		if ck != nil {
			hybrid = ck.hybrid
			partial = ck.partial
			measuredDone = ck.measuredDone
			skip = int(meta.Position)
			train = 0
			if want := opt.WarmupBranches + measuredDone; skip != want {
				return sim.Result{}, fmt.Errorf("service: checkpoint position %d does not match warmup %d + measured %d",
					skip, opt.WarmupBranches, measuredDone)
			}
		}
	}
	if hybrid == nil {
		hybrid = build()
	}
	st := sim.NewStepper(p, hybrid)
	defer st.Close()
	if opt.NoSpecialize {
		st.ForceGeneric()
	}
	parent := s.workloadSpan(j.ID)
	wspan := s.tracer.StartSpan(j.ID, parent, "warmup", spanAttrs("skip", itoa(skip), "train", itoa(train)))
	wt := time.Now()
	st.Skip(skip)
	st.Train(train)
	s.tracer.EndSpan(j.ID, wspan)
	s.observeStage(stageWarmup, wt)

	meta := checkpoint.Meta{
		Workload:   p.Name,
		Prophet:    spec,
		Critic:     j.Spec.Critic,
		FutureBits: j.Spec.FutureBits,
		Unfiltered: j.Spec.Unfiltered,
	}
	mspan := s.tracer.StartSpan(j.ID, parent, "measure", spanAttrs("total", itoa(total)))
	defer s.tracer.EndSpan(j.ID, mspan)
	for measuredDone < total {
		n := s.cfg.CheckpointEvery
		if n > total-measuredDone {
			n = total - measuredDone
		}
		mt := time.Now()
		st.Measure(n)
		s.observeStage(stageMeasure, mt)
		measuredDone += n
		cur := st.Result()
		cur.Merge(partial)
		if measuredDone >= total {
			return cur, nil
		}

		// Interval boundary: persist, report, honor crash injection and
		// drain/kill.
		meta.Position = uint64(opt.WarmupBranches + measuredDone)
		state := &ckState{mode: ckModeStepped, workload: wi, measuredDone: measuredDone, partial: cur, hybrid: hybrid}
		if err := s.traceCheckpoint(j.ID, parent, func() error { return s.st.writeCheckpoint(j.ID, meta, state) }); err != nil {
			return sim.Result{}, err
		}
		s.checkpointWritten()
		row := rowFromResult(cur)
		s.emit(j.ID, Event{Type: "progress", Job: j.ID, Workload: p.Name,
			Done: measuredDone, Total: total, Row: &row})
		select {
		case <-s.ctx.Done():
			return sim.Result{}, errStopped
		default:
		}
	}
	return st.Result(), nil // unreachable: loop exits via measuredDone >= total
}

// runSharded runs one workload's shard windows (exactly sim.RunSharded's
// windows) on the shared pool, persisting each completed shard's
// counters. A restarted server reruns only the missing shards; the
// merged result is bit-identical to RunSharded's.
func (s *Scheduler) runSharded(j *Job, wi int, p *program.Program, build sim.Builder, spec string) (sim.Result, error) {
	opt := j.Spec.simOptions()
	ws, err := sim.ShardWindows(opt, j.Spec.shardOptions())
	if err != nil {
		return sim.Result{}, err
	}
	done := make([]bool, len(ws))
	results := make([]sim.Result, len(ws))

	if j.Resumed {
		meta, dec, ok, err := s.st.readCheckpoint(j.ID)
		if err != nil {
			return sim.Result{}, err
		}
		if ok && meta.Workload == p.Name && meta.Prophet == spec {
			c := &ckState{mode: ckModeSharded, done: done, shards: results}
			if err := c.Restore(dec); err != nil {
				return sim.Result{}, fmt.Errorf("service: restoring checkpoint for job %s: %w", j.ID, err)
			}
			if c.workload != wi {
				// Another workload's checkpoint: restart this one clean.
				done = make([]bool, len(ws))
				results = make([]sim.Result, len(ws))
			}
		}
	}

	cfgName := build().Name()
	meta := checkpoint.Meta{
		Workload:   p.Name,
		Prophet:    spec,
		Critic:     j.Spec.Critic,
		FutureBits: j.Spec.FutureBits,
		Unfiltered: j.Spec.Unfiltered,
	}
	var mu sync.Mutex
	doneBranches := 0
	for i, d := range done {
		if d {
			doneBranches += ws[i].Measure
		}
	}
	parent := s.workloadSpan(j.ID)
	err = pool.RunCtx(s.ctx, len(ws), func(i int) error {
		if done[i] {
			return nil // completed before the restart
		}
		w := ws[i]
		span := s.tracer.StartSpan(j.ID, parent, "shard",
			spanAttrs("window", itoa(i), "measure", itoa(w.Measure)))
		defer s.tracer.EndSpan(j.ID, span)
		mt := time.Now()
		r := sim.RunSegment(p, build(), w.Skip, w.Train, w.Measure)
		s.observeStage(stageMeasure, mt)

		mu.Lock()
		results[i] = r
		done[i] = true
		doneBranches += w.Measure
		meta.Position = uint64(opt.WarmupBranches + doneBranches)
		state := &ckState{mode: ckModeSharded, workload: wi, done: done, shards: results}
		werr := s.traceCheckpoint(j.ID, span, func() error { return s.st.writeCheckpoint(j.ID, meta, state) })
		progress := doneBranches
		mu.Unlock()
		if werr != nil {
			return werr
		}
		s.checkpointWritten()
		s.emit(j.ID, Event{Type: "progress", Job: j.ID, Workload: p.Name,
			Done: progress, Total: opt.MeasureBranches})
		return nil
	})
	if err != nil {
		if s.ctx.Err() != nil {
			return sim.Result{}, errStopped
		}
		return sim.Result{}, err
	}
	// A Crash hook can kill a pool worker between its checkpoint write
	// and job completion, so a nil pool error does not yet prove every
	// window ran. Merging zero-valued windows would persist wrong rows;
	// an incomplete pass leaves the record running for resume instead.
	for _, d := range done {
		if !d {
			return sim.Result{}, errStopped
		}
	}

	merged := sim.Result{Benchmark: p.Name, Suite: p.Suite, Config: cfgName}
	for _, r := range results {
		merged.Merge(r)
	}
	return merged, nil
}

// runClustered runs one workload's shard windows as leasable cluster
// units: registered workers pull them under time-bounded leases, expired
// leases are re-issued (from the unit's last uploaded checkpoint) with
// backoff, and units that exhaust their attempt budget — or sit pending
// with no live workers — degrade to the coordinator's own pool. Results
// merge in window order and completed units persist through the same
// sharded checkpoint state runSharded uses, so a coordinator restart
// reruns only the missing units and the merged result stays
// bit-identical to the sequential run.
func (s *Scheduler) runClustered(j *Job, wi int, ref WorkloadRef, p *program.Program, build sim.Builder, spec string) (sim.Result, error) {
	opt := j.Spec.simOptions()
	ws, err := sim.ShardWindows(opt, j.Spec.shardOptions())
	if err != nil {
		return sim.Result{}, err
	}
	done := make([]bool, len(ws))
	results := make([]sim.Result, len(ws))

	if j.Resumed {
		meta, dec, ok, err := s.st.readCheckpoint(j.ID)
		if err != nil {
			return sim.Result{}, err
		}
		if ok && meta.Workload == p.Name && meta.Prophet == spec {
			c := &ckState{mode: ckModeSharded, done: done, shards: results}
			if err := c.Restore(dec); err != nil {
				return sim.Result{}, fmt.Errorf("service: restoring checkpoint for job %s: %w", j.ID, err)
			}
			if c.workload != wi {
				done = make([]bool, len(ws))
				results = make([]sim.Result, len(ws))
			}
		}
	}

	parent := s.workloadSpan(j.ID)
	s.co.addUnits(j, wi, ref, ws, done, spec, parent)
	defer s.co.dropUnits(j.ID, wi)

	meta := checkpoint.Meta{
		Workload:   p.Name,
		Prophet:    spec,
		Critic:     j.Spec.Critic,
		FutureBits: j.Spec.FutureBits,
		Unfiltered: j.Spec.Unfiltered,
	}
	doneBranches := 0
	for i, d := range done {
		if d {
			doneBranches += ws[i].Measure
		}
	}
	allDone := func() bool {
		for _, d := range done {
			if !d {
				return false
			}
		}
		return true
	}

	tick := pollInterval(s.cfg.LeaseTTL)
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for !allDone() {
		s.co.reap()

		// Budget-exhausted (or fleet-less) units run on our own pool —
		// graceful degradation instead of a failed job.
		if locals := s.co.takeLocal(j.ID, wi); len(locals) > 0 {
			lerr := pool.RunCtx(s.ctx, len(locals), func(i int) error {
				u := locals[i]
				r, err := runUnit(p, build, u.window, u.idx, meta, s.co.localCheckpoint(u), 0,
					j.Spec.NoSpecialize, nil, func() error { return s.ctx.Err() })
				if err != nil {
					return err
				}
				s.co.completeLocal(u, r)
				return nil
			})
			if lerr != nil {
				if s.ctx.Err() != nil {
					return sim.Result{}, errStopped
				}
				return sim.Result{}, lerr
			}
		}

		// Persist and report any newly completed units.
		if n := s.co.progress(j.ID, wi, done, results); n > 0 {
			doneBranches = 0
			for i, d := range done {
				if d {
					doneBranches += ws[i].Measure
				}
			}
			meta.Position = uint64(opt.WarmupBranches + doneBranches)
			state := &ckState{mode: ckModeSharded, workload: wi, done: done, shards: results}
			if err := s.traceCheckpoint(j.ID, parent, func() error { return s.st.writeCheckpoint(j.ID, meta, state) }); err != nil {
				return sim.Result{}, err
			}
			s.checkpointWritten()
			s.emit(j.ID, Event{Type: "progress", Job: j.ID, Workload: p.Name,
				Done: doneBranches, Total: opt.MeasureBranches})
			continue // check completion before sleeping
		}

		select {
		case <-s.ctx.Done():
			return sim.Result{}, errStopped
		case <-s.co.wake:
		case <-ticker.C:
		}
	}

	merged := sim.Result{Benchmark: p.Name, Suite: p.Suite, Config: build().Name()}
	for _, r := range results {
		merged.Merge(r)
	}
	return merged, nil
}

// manyMeta builds the checkpoint meta record of a one-pass run covering
// several specs: Prophet carries the covered specs joined in pass order,
// which doubles as the resume guard (a different miss set after a
// restart — the cache can answer a pre-crash miss meanwhile — fails the
// match and restarts the workload clean).
func (s *Scheduler) manyMeta(j *Job, wlName string, covered []string) checkpoint.Meta {
	return checkpoint.Meta{
		Workload:   wlName,
		Prophet:    strings.Join(covered, "; "),
		Critic:     j.Spec.Critic,
		FutureBits: j.Spec.FutureBits,
		Unfiltered: j.Spec.Unfiltered,
	}
}

// runSteppedMany runs one workload's cache-miss specs in ONE pass of the
// committed stream through a sim.ManyStepper, checkpointing every
// hybrid and every spec's partial counters at CheckpointEvery
// boundaries. The results are bit-identical to per-spec runStepped runs;
// restore problems (covered-set drift, truncated snapshot) restart the
// workload clean instead of failing the job.
func (s *Scheduler) runSteppedMany(j *Job, wi int, p *program.Program, specs []string, builders []sim.Builder, missIdx []int) ([]sim.Result, error) {
	opt := j.Spec.simOptions()
	total := opt.MeasureBranches

	covered := make([]string, len(missIdx))
	for k, i := range missIdx {
		covered[k] = specs[i]
	}
	buildMiss := func() []*core.Hybrid {
		hs := make([]*core.Hybrid, len(missIdx))
		for k, i := range missIdx {
			hs[k] = builders[i]()
		}
		return hs
	}

	hybrids := buildMiss()
	partials := make([]sim.Result, len(missIdx))
	measuredDone := 0
	skip := 0
	train := opt.WarmupBranches
	meta := s.manyMeta(j, p.Name, covered)
	if j.Resumed {
		cmeta, dec, ok, err := s.st.readCheckpoint(j.ID)
		if err == nil && ok && cmeta.Workload == p.Name && cmeta.Prophet == meta.Prophet {
			c := &ckState{mode: ckModeManyStepped, specIdx: missIdx, hybrids: hybrids, partials: partials}
			if rerr := c.Restore(dec); rerr == nil && c.workload == wi &&
				int(cmeta.Position) == opt.WarmupBranches+c.measuredDone {
				measuredDone = c.measuredDone
				skip = int(cmeta.Position)
				train = 0
			} else {
				// A failed restore may have half-applied hybrid state:
				// rebuild everything and restart this workload clean.
				hybrids = buildMiss()
				partials = make([]sim.Result, len(missIdx))
			}
		}
	}

	st := sim.NewManyStepper(p, hybrids)
	defer st.Close()
	if opt.NoSpecialize {
		st.ForceGeneric()
	}
	parent := s.workloadSpan(j.ID)
	wspan := s.tracer.StartSpan(j.ID, parent, "warmup",
		spanAttrs("skip", itoa(skip), "train", itoa(train), "specs", itoa(len(missIdx))))
	wt := time.Now()
	st.Skip(skip)
	st.Train(train)
	s.tracer.EndSpan(j.ID, wspan)
	s.observeStage(stageWarmup, wt)

	mspan := s.tracer.StartSpan(j.ID, parent, "measure", spanAttrs("total", itoa(total)))
	defer s.tracer.EndSpan(j.ID, mspan)
	for measuredDone < total {
		n := s.cfg.CheckpointEvery
		if n > total-measuredDone {
			n = total - measuredDone
		}
		mt := time.Now()
		st.Measure(n)
		s.observeStage(stageMeasure, mt)
		measuredDone += n
		curs := st.Results()
		for k := range curs {
			curs[k].Merge(partials[k])
		}
		if measuredDone >= total {
			return curs, nil
		}

		meta.Position = uint64(opt.WarmupBranches + measuredDone)
		state := &ckState{mode: ckModeManyStepped, workload: wi, measuredDone: measuredDone,
			specIdx: missIdx, partials: curs, hybrids: hybrids}
		if err := s.traceCheckpoint(j.ID, parent, func() error { return s.st.writeCheckpoint(j.ID, meta, state) }); err != nil {
			return nil, err
		}
		s.checkpointWritten()
		s.emit(j.ID, Event{Type: "progress", Job: j.ID, Workload: p.Name,
			Done: measuredDone, Total: total})
		select {
		case <-s.ctx.Done():
			return nil, errStopped
		default:
		}
	}
	return st.Results(), nil // unreachable: loop exits via measuredDone >= total
}

// runShardedMany runs one workload's shard windows on the shared pool,
// each window simulating every cache-miss spec in one pass
// (sim.RunManySegment); completed windows persist every covered spec's
// counters. The per-spec merges are bit-identical to runSharded per
// spec.
func (s *Scheduler) runShardedMany(j *Job, wi int, p *program.Program, specs []string, builders []sim.Builder, missIdx []int) ([]sim.Result, error) {
	opt := j.Spec.simOptions()
	ws, err := sim.ShardWindows(opt, j.Spec.shardOptions())
	if err != nil {
		return nil, err
	}
	done := make([]bool, len(ws))
	windows := make([][]sim.Result, len(ws))

	covered := make([]string, len(missIdx))
	for k, i := range missIdx {
		covered[k] = specs[i]
	}
	meta := s.manyMeta(j, p.Name, covered)
	if j.Resumed {
		cmeta, dec, ok, rerr := s.st.readCheckpoint(j.ID)
		if rerr == nil && ok && cmeta.Workload == p.Name && cmeta.Prophet == meta.Prophet {
			c := &ckState{mode: ckModeManySharded, specIdx: missIdx, done: done, windows: windows}
			if err := c.Restore(dec); err != nil || c.workload != wi {
				done = make([]bool, len(ws))
				windows = make([][]sim.Result, len(ws))
			}
		}
	}

	buildMiss := func() []*core.Hybrid {
		hs := make([]*core.Hybrid, len(missIdx))
		for k, i := range missIdx {
			hs[k] = builders[i]()
		}
		return hs
	}
	var mu sync.Mutex
	doneBranches := 0
	for i, d := range done {
		if d {
			doneBranches += ws[i].Measure
		}
	}
	parent := s.workloadSpan(j.ID)
	err = pool.RunCtx(s.ctx, len(ws), func(i int) error {
		if done[i] {
			return nil // completed before the restart
		}
		w := ws[i]
		span := s.tracer.StartSpan(j.ID, parent, "shard",
			spanAttrs("window", itoa(i), "measure", itoa(w.Measure), "specs", itoa(len(missIdx))))
		defer s.tracer.EndSpan(j.ID, span)
		mt := time.Now()
		rs := sim.RunManySegment(p, buildMiss(), w.Skip, w.Train, w.Measure)
		s.observeStage(stageMeasure, mt)

		mu.Lock()
		windows[i] = rs
		done[i] = true
		doneBranches += w.Measure
		meta.Position = uint64(opt.WarmupBranches + doneBranches)
		state := &ckState{mode: ckModeManySharded, workload: wi, specIdx: missIdx, done: done, windows: windows}
		werr := s.traceCheckpoint(j.ID, span, func() error { return s.st.writeCheckpoint(j.ID, meta, state) })
		progress := doneBranches
		mu.Unlock()
		if werr != nil {
			return werr
		}
		s.checkpointWritten()
		s.emit(j.ID, Event{Type: "progress", Job: j.ID, Workload: p.Name,
			Done: progress, Total: opt.MeasureBranches})
		return nil
	})
	if err != nil {
		if s.ctx.Err() != nil {
			return nil, errStopped
		}
		return nil, err
	}
	// Same guard as runSharded: a Crash hook killing a worker mid-pass
	// can surface as a nil pool error with windows missing.
	for _, d := range done {
		if !d {
			return nil, errStopped
		}
	}

	merged := make([]sim.Result, len(missIdx))
	for k, i := range missIdx {
		merged[k] = sim.Result{Benchmark: p.Name, Suite: p.Suite, Config: builders[i]().Name()}
		for w := range ws {
			merged[k].Merge(windows[w][k])
		}
	}
	return merged, nil
}

// runClusteredSpecs runs each cache-miss spec's shard units through the
// cluster protocol in turn — unit leases stay per (window × spec), so
// the fleet's failure handling is untouched; the cache still collapses
// later duplicates into lookups.
func (s *Scheduler) runClusteredSpecs(j *Job, wi int, ref WorkloadRef, p *program.Program, specs []string, builders []sim.Builder, missIdx []int) ([]sim.Result, error) {
	out := make([]sim.Result, len(missIdx))
	for k, i := range missIdx {
		r, err := s.runClustered(j, wi, ref, p, builders[i], specs[i])
		if err != nil {
			return nil, err
		}
		out[k] = r
	}
	return out, nil
}

// ClusterMetricsSnapshot exposes the coordinator counters for /metricsz.
func (s *Scheduler) ClusterMetricsSnapshot() ClusterMetrics {
	return s.co.Metrics()
}
