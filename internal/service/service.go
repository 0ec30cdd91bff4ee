// Package service turns the CEC engines into a long-running job subsystem:
// a bounded submission queue, a scheduler that runs K jobs concurrently —
// each on its own par.Device sized so the total worker count stays within
// GOMAXPROCS (admission control instead of oversubscription) — per-job
// deadlines and client cancellation wired into the engines' cooperative
// Stop channel, an LRU result cache keyed by a canonical structural
// fingerprint of the (A, B) pair, and a ring of recent results with
// per-job statistics. cmd/cecd exposes it over HTTP.
package service

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"simsweep"
	"simsweep/internal/aig"
	"simsweep/internal/fault"
	"simsweep/internal/par"
	"simsweep/internal/trace"
)

// State is a job lifecycle state.
type State string

// Job lifecycle: queued → running → done | failed | timeout | cancelled.
// Cache hits jump straight to done.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateTimeout   State = "timeout"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateTimeout || s == StateCancelled
}

// Request describes one CEC job: either a pair (A, B) of circuits with
// matching interfaces, or a prebuilt miter.
type Request struct {
	A, B  *aig.AIG // pair mode (Miter nil)
	Miter *aig.AIG // miter mode (A, B nil)

	Engine        simsweep.Engine // "" selects the default (simsweep.Engines)
	Seed          int64
	ConflictLimit int64
	// Timeout bounds the job's execution (not its queue wait); 0 selects
	// the service default. It is capped at Config.MaxTimeout.
	Timeout time.Duration
	// Trace records the job's execution (engine phases, kernel spans,
	// SAT calls) into a per-job tracer; the rendered Chrome trace_event
	// JSON is retrievable with Service.Trace once the job is terminal.
	// A cache hit runs nothing and therefore records nothing.
	Trace bool
}

// crashBackoffMax caps a crashed runner's backoff.
const crashBackoffMax = 2 * time.Second

// Config sizes the service. The zero value selects sensible defaults.
type Config struct {
	// MaxConcurrent is K, the number of jobs running at once (default 2).
	MaxConcurrent int
	// TotalWorkers is the worker budget shared by the K per-job devices;
	// each device gets TotalWorkers/K (min 1). Default GOMAXPROCS, so the
	// service never oversubscribes the machine.
	TotalWorkers int
	// QueueCap bounds the submission queue; Submit fails with
	// ErrQueueFull beyond it (default 64).
	QueueCap int
	// CacheSize bounds the LRU result cache entries (default 256).
	CacheSize int
	// RingSize bounds the ring of retained finished jobs (default 256).
	RingSize int
	// DefaultTimeout applies to requests without one (0: unbounded).
	DefaultTimeout time.Duration
	// MaxTimeout caps any per-request timeout (0: uncapped).
	MaxTimeout time.Duration
	// Log, when non-nil, receives one line per job transition.
	Log io.Writer
	// Faults, when armed, injects deterministic faults into the service and
	// into every job it runs: the service.runner.crash hook crashes a runner
	// as it picks up a job (the runner recovers, re-queues the job once with
	// backoff, then fails it with a typed error), and the injector is passed
	// down into the engines so the kernel/simulation/SAT hooks fire too.
	// Nil (the default) disables every hook at zero cost.
	Faults *fault.Injector
	// PhaseBudget bounds each simulation-engine phase of every job by wall
	// clock (see simsweep.Options.PhaseBudget). Zero disables the watchdog.
	PhaseBudget time.Duration
	// crashBackoffBase is the first delay of a crashed runner's
	// exponential backoff (default 50ms), capped at crashBackoffMax. A
	// runner that completes a job cleanly resets to base. Only tests set
	// it.
	crashBackoffBase time.Duration
}

func (c *Config) fill() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.TotalWorkers <= 0 {
		c.TotalWorkers = runtime.GOMAXPROCS(0)
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.RingSize <= 0 {
		c.RingSize = 256
	}
	if c.crashBackoffBase <= 0 {
		c.crashBackoffBase = 50 * time.Millisecond
	}
}

// Service errors.
var (
	ErrQueueFull  = errors.New("service: submission queue full")
	ErrClosed     = errors.New("service: closed")
	ErrNotFound   = errors.New("service: no such job")
	ErrFinished   = errors.New("service: job already finished")
	ErrBadRequest = errors.New("service: request needs either A and B or Miter")
)

// Job is the lifecycle record of one submitted check. Service.Get,
// Submit, Cancel and Jobs return value copies that are safe to read
// without locking.
type Job struct {
	ID      string
	State   State
	Engine  simsweep.Engine
	Timeout time.Duration

	Created  time.Time
	Started  time.Time
	Finished time.Time

	// Result holds the engine result once Terminal (nil for failed).
	Result *simsweep.Result
	// Err carries the failure message for StateFailed.
	Err string
	// CacheHit marks a job answered from the result cache.
	CacheHit bool
	// KernelLaunches counts the par-device kernel launches the job issued.
	KernelLaunches int
	// Traced marks a job that recorded an execution trace; fetch it with
	// Service.Trace once the job is terminal.
	Traced bool
	// Retries counts how many times the job was re-queued after a runner
	// crash (at most 1: a job whose second attempt also crashes fails).
	Retries int
	// Coalesced marks a job that attached to an identical in-flight
	// submission instead of executing: the key matched a running leader,
	// and the leader's decided verdict settled this job too (reported as a
	// cache hit). Single-flight coalescing guarantees one execution per
	// distinct fingerprint key no matter how many concurrent submitters
	// race.
	Coalesced bool
}

// job pairs the published record with the scheduling machinery that must
// never be copied.
type job struct {
	Job

	key   Key
	req   Request
	stop  chan struct{}
	once  sync.Once
	cause State // timeout or cancelled, set by whoever closed stop

	// followers are jobs with the same key that attached to this leader
	// while it was in flight; they settle from its result. Guarded by s.mu.
	followers []*job

	// traceJSON is the rendered Chrome trace of a traced job, set under
	// s.mu when the job reaches a terminal state.
	traceJSON []byte
}

// stopNow closes the job's stop channel once, recording why.
func (j *job) stopNow(cause State) {
	j.once.Do(func() {
		j.cause = cause
		close(j.stop)
	})
}

// Service is the CEC job subsystem. Create with New, release with Close.
type Service struct {
	cfg Config

	mu       sync.Mutex
	jobs     map[string]*job
	ring     []string // finished job ids, oldest first
	cache    *lru
	inflight map[Key]*job // key -> leader job currently queued or running
	seq      int
	closed   bool
	running  int

	// counters for /metrics
	hits, misses  uint64
	coalesced     uint64 // submissions attached to an in-flight identical job
	byOutcome     map[State]uint64
	latencies     *latencyRing
	runnerCrashes uint64 // recovered runner panics (injected or real)
	requeues      uint64 // jobs re-queued after a runner crash
	degraded      uint64 // jobs whose result reported Degraded

	// histograms for /metrics; each synchronises itself (the kernel
	// launch observer fires concurrently from every runner).
	phaseHists map[string]*histogram // phase duration by kind (P/G/L)
	launchHist *histogram            // kernel launch sizes (items)
	queueHist  *histogram            // queue wait (submit → start)

	queue chan *job
	wg    sync.WaitGroup
	devs  []*par.Device
}

// New starts a service: K runner goroutines, each owning one device.
func New(cfg Config) *Service {
	cfg.fill()
	s := &Service{
		cfg:       cfg,
		jobs:      make(map[string]*job),
		cache:     newLRU(cfg.CacheSize),
		inflight:  make(map[Key]*job),
		byOutcome: make(map[State]uint64),
		latencies: newLatencyRing(1024),
		phaseHists: map[string]*histogram{
			"P": newHistogram(phaseBuckets...),
			"G": newHistogram(phaseBuckets...),
			"L": newHistogram(phaseBuckets...),
		},
		launchHist: newHistogram(launchBuckets...),
		queueHist:  newHistogram(queueBuckets...),
		queue:      make(chan *job, cfg.QueueCap),
	}
	perDev := cfg.TotalWorkers / cfg.MaxConcurrent
	if perDev < 1 {
		perDev = 1
	}
	for i := 0; i < cfg.MaxConcurrent; i++ {
		dev := par.NewDevice(perDev)
		// Every kernel launch of every job feeds the launch-size
		// histogram, whether or not the job is traced.
		dev.SetObserver(func(name string, items int, d time.Duration) {
			s.launchHist.observe(float64(items))
		})
		s.devs = append(s.devs, dev)
		s.wg.Add(1)
		go s.runner(dev)
	}
	return s
}

// Close drains the runners and releases their devices. Queued jobs that
// never ran are marked cancelled; running jobs are stopped cooperatively.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.queue)
	for _, j := range s.jobs {
		if !j.State.Terminal() {
			j.stopNow(StateCancelled)
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	for _, dev := range s.devs {
		dev.Close()
	}
}

// Submit validates and enqueues a request. Cache hits complete instantly
// (the returned job is already done), as do submissions that coalesce onto
// an identical in-flight job (single-flight: concurrent submissions of the
// same fingerprint key execute exactly once — the leader runs, the
// duplicates settle from its verdict as cache hits). Otherwise the job is
// queued and one of the K runners will pick it up. A full queue fails with
// ErrQueueFull — that is the admission control the HTTP layer maps to 429.
func (s *Service) Submit(req Request) (Job, error) {
	key, err := KeyOf(req)
	if err != nil {
		return Job{}, err
	}
	timeout := req.Timeout
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if s.cfg.MaxTimeout > 0 && (timeout <= 0 || timeout > s.cfg.MaxTimeout) {
		timeout = s.cfg.MaxTimeout
	}

	// The fast checks and the enqueue share one critical section, so two
	// racing submitters can never both lead.
	s.mu.Lock()
	if snap, ok, err := s.submitFastLocked(req, key, timeout); ok || err != nil {
		s.mu.Unlock()
		return snap, err
	}
	snap, err := s.enqueueLeaderLocked(req, key, timeout)
	s.mu.Unlock()
	if err == nil {
		s.logf("job %s: queued (engine %s)", snap.ID, engineName(req.Engine))
	}
	return snap, err
}

// enqueueLeaderLocked creates a leader job and pushes it onto the runner
// queue, registering it in the in-flight index so identical submissions
// coalesce onto it. Callers hold s.mu and have already run the fast-path
// checks.
func (s *Service) enqueueLeaderLocked(req Request, key Key, timeout time.Duration) (Job, error) {
	s.misses++
	j := s.newJobLocked(req, key, timeout)
	// Snapshot before unlocking: once queued, a runner may start mutating
	// the job the instant the lock is released.
	snap := j.Job
	select {
	case s.queue <- j:
		s.inflight[key] = j
	default:
		delete(s.jobs, j.ID)
		s.misses--
		return Job{}, ErrQueueFull
	}
	return snap, nil
}

// newJobLocked allocates a queued job record. Callers hold s.mu.
func (s *Service) newJobLocked(req Request, key Key, timeout time.Duration) *job {
	s.seq++
	j := &job{
		Job: Job{
			ID:      fmt.Sprintf("j%d", s.seq),
			State:   StateQueued,
			Engine:  req.Engine,
			Timeout: timeout,
			Created: time.Now(),
		},
		key:  key,
		req:  req,
		stop: make(chan struct{}),
	}
	s.jobs[j.ID] = j
	return j
}

// submitFastLocked settles a submission without executing when it can: a
// local cache hit completes it instantly, and an identical in-flight leader
// absorbs it as a follower (single-flight). It reports ok=true when the
// submission was handled. Callers hold s.mu.
func (s *Service) submitFastLocked(req Request, key Key, timeout time.Duration) (Job, bool, error) {
	if s.closed {
		return Job{}, false, ErrClosed
	}
	if cached, ok := s.cache.get(key); ok {
		s.hits++
		j := s.newJobLocked(req, key, timeout)
		j.State = StateDone
		j.CacheHit = true
		j.Started = j.Created
		j.Finished = time.Now()
		res := cached
		j.Result = &res
		s.finishLocked(j)
		snap := j.Job
		s.logf("job %s: cache hit (%v)", snap.ID, res.Outcome)
		return snap, true, nil
	}
	if lead, ok := s.inflight[key]; ok && !lead.State.Terminal() {
		s.coalesced++
		j := s.newJobLocked(req, key, timeout)
		j.Coalesced = true
		lead.followers = append(lead.followers, j)
		snap := j.Job
		s.logf("job %s: coalesced onto in-flight %s", snap.ID, lead.ID)
		return snap, true, nil
	}
	return Job{}, false, nil
}

// Get returns a snapshot of the job.
func (s *Service) Get(id string) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, ErrNotFound
	}
	return j.Job, nil
}

// Trace returns the Chrome trace_event JSON recorded for a traced job.
// It fails with ErrNotFound for unknown jobs and jobs that recorded no
// trace (not requested, cache hit, or still running — the trace is
// rendered when the job reaches a terminal state).
func (s *Service) Trace(id string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || j.traceJSON == nil {
		return nil, ErrNotFound
	}
	return append([]byte(nil), j.traceJSON...), nil
}

// Cancel requests cooperative cancellation of a queued or running job.
func (s *Service) Cancel(id string) (Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Job{}, ErrNotFound
	}
	if j.State.Terminal() {
		snap := j.Job
		s.mu.Unlock()
		return snap, ErrFinished
	}
	queued := j.State == StateQueued
	if queued {
		// The runner will skip it; settle the record immediately.
		j.State = StateCancelled
		j.Finished = time.Now()
		s.finishLocked(j)
	}
	s.mu.Unlock()
	j.stopNow(StateCancelled)
	s.logf("job %s: cancel requested", id)
	s.mu.Lock()
	snap := j.Job
	s.mu.Unlock()
	return snap, nil
}

// Jobs returns snapshots of every retained job, newest first.
func (s *Service) Jobs() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.Job)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Created.After(out[k].Created) })
	return out
}

// runner is one of the K scheduler loops; it owns dev for its lifetime, so
// at most K devices are ever simulating and total workers stay bounded. A
// runner that crashes mid-job (an injected service.runner.crash fault, or a
// genuine bug escaping the engines) recovers, disposes of the job — re-queue
// once, then fail — and restarts after a capped exponential backoff, so a
// crashing workload degrades the service's throughput, never its liveness.
func (s *Service) runner(dev *par.Device) {
	defer s.wg.Done()
	backoff := s.cfg.crashBackoffBase
	for j := range s.queue {
		if s.runGuarded(j, dev) {
			backoff = s.cfg.crashBackoffBase // a clean job resets the ramp
			continue
		}
		time.Sleep(backoff)
		backoff *= 2
		if backoff > crashBackoffMax {
			backoff = crashBackoffMax
		}
	}
}

// runGuarded runs one job, converting a panicking runner into a recovered
// crash. It reports whether the job completed without a crash.
func (s *Service) runGuarded(j *job, dev *par.Device) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			s.crashed(j, r)
			ok = false
		}
	}()
	// Model the runner itself dying as it picks up the job (a heap blow-up,
	// a bug outside the engines' own recovery nets). The panic unwinds to
	// the recover above.
	s.cfg.Faults.Panic(fault.HookRunnerCrash)
	s.runJob(j, dev)
	return true
}

// crashed settles a job whose runner panicked: re-queue it once, fail it
// with a typed error when it already burned its retry (or the queue is
// full, closed, or the job was cancelled meanwhile).
func (s *Service) crashed(j *job, cause interface{}) {
	s.mu.Lock()
	s.runnerCrashes++
	if j.State == StateRunning {
		s.running--
	}
	if j.State.Terminal() {
		// The panic struck after the job settled; nothing to repair.
		s.mu.Unlock()
		s.logf("runner: recovered crash after job %s settled: %v", j.ID, cause)
		return
	}
	if j.Retries == 0 && !s.closed && !par.Stopped(j.stop) {
		j.Retries++
		j.State = StateQueued
		select {
		case s.queue <- j:
			s.requeues++
			s.mu.Unlock()
			s.logf("job %s: runner crashed (%v); re-queued (retry 1)", j.ID, cause)
			return
		default: // queue full: fall through to failure
		}
	}
	j.State = StateFailed
	j.Err = fmt.Sprintf("runner crashed: %v", cause)
	j.Finished = time.Now()
	s.finishLocked(j)
	s.mu.Unlock()
	s.logf("job %s: failed (%s)", j.ID, j.Err)
}

func (s *Service) runJob(j *job, dev *par.Device) {
	s.mu.Lock()
	if j.State != StateQueued { // cancelled while waiting
		s.mu.Unlock()
		return
	}
	if par.Stopped(j.stop) {
		// The job's stop channel closed while it sat in the queue (service
		// shutdown, or a cancel that raced the state update): settle it
		// without ever running — a withdrawn job must never report
		// "running", and must never produce (and cache) a verdict.
		j.State = j.cause
		if j.State == "" {
			j.State = StateCancelled
		}
		j.Finished = time.Now()
		s.finishLocked(j)
		s.mu.Unlock()
		s.logf("job %s: %s (while queued)", j.ID, j.State)
		return
	}
	j.State = StateRunning
	j.Started = time.Now()
	s.running++
	s.mu.Unlock()
	s.queueHist.observe(j.Started.Sub(j.Created).Seconds())
	s.logf("job %s: running", j.ID)

	var tracer *trace.Tracer
	if j.req.Trace {
		tracer = trace.New(0)
		tracer.Enable()
	}
	var timer *time.Timer
	if j.Timeout > 0 {
		timer = time.AfterFunc(j.Timeout, func() { j.stopNow(StateTimeout) })
	}
	launchesBefore := totalLaunches(dev)
	res, err := s.check(j.req, dev, j.stop, tracer)
	if timer != nil {
		timer.Stop()
	}
	var traceJSON []byte
	if tracer != nil {
		tracer.Disable()
		var buf bytes.Buffer
		if werr := trace.WriteChromeTrace(&buf, tracer); werr == nil {
			traceJSON = buf.Bytes()
		}
	}
	for _, p := range res.SimPhases {
		if h := s.phaseHists[p.Kind.String()]; h != nil {
			h.observe(p.Duration.Seconds())
		}
	}

	s.mu.Lock()
	j.Finished = time.Now()
	j.KernelLaunches = totalLaunches(dev) - launchesBefore
	j.traceJSON = traceJSON
	j.Traced = traceJSON != nil
	s.running--
	switch {
	case err != nil:
		j.State = StateFailed
		j.Err = err.Error()
	case res.Stopped:
		// The engines returned early because the stop channel closed;
		// the closer recorded whether it was the deadline or the client.
		j.State = j.cause
		if j.State == "" { // stop raced a genuine finish; treat as done
			j.State = StateDone
		}
		j.Result = &res
	default:
		j.State = StateDone
		j.Result = &res
		// A degraded verdict is still trustworthy (faulted work withdraws
		// its claims rather than guess) but is not cached: a later identical
		// submission deserves a healthy run, and chaos soaks must keep
		// exercising the engines rather than the cache.
		if res.Outcome != simsweep.Undecided && !res.Degraded {
			s.cache.put(j.key, res)
		}
	}
	if res.Degraded {
		s.degraded++
	}
	s.finishLocked(j)
	s.mu.Unlock()
	s.logf("job %s: %s", j.ID, j.State)
}

// check dispatches the engines with the runner's device and the job's stop
// channel wired into the cooperative cancellation path.
func (s *Service) check(req Request, dev *par.Device, stop <-chan struct{}, tracer *trace.Tracer) (simsweep.Result, error) {
	opts := simsweep.Options{
		Engine:        req.Engine,
		Seed:          req.Seed,
		ConflictLimit: req.ConflictLimit,
		Dev:           dev,
		Workers:       dev.Workers(),
		Stop:          stop,
		Trace:         tracer,
		Faults:        s.cfg.Faults,
		PhaseBudget:   s.cfg.PhaseBudget,
	}
	if req.Miter != nil {
		return simsweep.CheckMiter(req.Miter, opts)
	}
	return simsweep.CheckEquivalence(req.A, req.B, opts)
}

// finishLocked records a terminal job in the ring and counters, evicting
// the oldest retained record beyond RingSize, and — when the job led an
// in-flight coalition — settles or promotes its followers. Callers hold
// s.mu.
func (s *Service) finishLocked(j *job) {
	s.byOutcome[j.State]++
	if j.State == StateDone && !j.CacheHit {
		s.latencies.add(j.Finished.Sub(j.Created))
	}
	s.ring = append(s.ring, j.ID)
	if len(s.ring) > s.cfg.RingSize {
		evict := s.ring[0]
		s.ring = s.ring[1:]
		if old, ok := s.jobs[evict]; ok && old.State.Terminal() {
			delete(s.jobs, evict)
		}
	}
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
		s.resolveFollowersLocked(j)
	}
}

// resolveFollowersLocked settles the followers of a just-finished leader.
// A decided, non-degraded leader verdict settles every waiting follower as
// a cache hit (the single execution answered them all). Any other terminal
// state — failed, cancelled, timed out, undecided or degraded — keeps the
// followers' promise of a healthy check: the first live follower is
// promoted to leader and re-enqueued, carrying the rest. Callers hold s.mu.
func (s *Service) resolveFollowersLocked(j *job) {
	live := j.followers[:0]
	for _, f := range j.followers {
		if !f.State.Terminal() {
			live = append(live, f)
		}
	}
	j.followers = nil
	settle := func(f *job, state State, err string) {
		f.State = state
		f.Err = err
		f.Finished = time.Now()
		s.finishLocked(f) // never recurses: a follower is not in s.inflight
	}
	cacheable := j.State == StateDone && j.Result != nil &&
		j.Result.Outcome != simsweep.Undecided && !j.Result.Degraded
	if cacheable {
		for _, f := range live {
			res := TrimResult(*j.Result)
			f.CacheHit = true
			f.Started = f.Created
			f.Result = &res
			settle(f, StateDone, "")
			s.logf("job %s: settled from leader %s (%v)", f.ID, j.ID, res.Outcome)
		}
		return
	}
	for len(live) > 0 {
		lead := live[0]
		live = live[1:]
		if s.closed || par.Stopped(lead.stop) {
			settle(lead, StateCancelled, "")
			continue
		}
		select {
		case s.queue <- lead:
			s.inflight[lead.key] = lead
			lead.followers = live
			s.logf("job %s: promoted to leader after %s finished %s", lead.ID, j.ID, j.State)
			return
		default:
			settle(lead, StateFailed, ErrQueueFull.Error())
		}
	}
}

// Stats is a point-in-time snapshot of the service counters for /metrics.
type Stats struct {
	QueueDepth  int
	QueueCap    int
	Running     int
	CacheHits   uint64
	CacheMisses uint64
	CacheSize   int
	// Coalesced counts submissions that attached to an identical in-flight
	// job instead of executing (single-flight duplicates).
	Coalesced  uint64
	ByOutcome  map[State]uint64
	P50        time.Duration
	P99        time.Duration
	Workers    int // total worker budget across the K devices
	Concurrent int // K
	// RunnerCrashes counts recovered runner panics; Requeues the jobs given
	// a second attempt after one; Degraded the jobs whose result survived
	// internal faults.
	RunnerCrashes uint64
	Requeues      uint64
	Degraded      uint64
	// FaultsByHook is the armed injector's fire count per hook (nil when
	// the service runs without fault injection).
	FaultsByHook map[string]uint64
}

// Stats returns the current counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	by := make(map[State]uint64, len(s.byOutcome))
	for k, v := range s.byOutcome {
		by[k] = v
	}
	p50, p99 := s.latencies.percentiles()
	return Stats{
		QueueDepth:    len(s.queue),
		QueueCap:      s.cfg.QueueCap,
		Running:       s.running,
		CacheHits:     s.hits,
		CacheMisses:   s.misses,
		CacheSize:     s.cache.len(),
		Coalesced:     s.coalesced,
		ByOutcome:     by,
		P50:           p50,
		P99:           p99,
		Workers:       s.cfg.TotalWorkers,
		Concurrent:    s.cfg.MaxConcurrent,
		RunnerCrashes: s.runnerCrashes,
		Requeues:      s.requeues,
		Degraded:      s.degraded,
		FaultsByHook:  s.cfg.Faults.Counts(),
	}
}

// Ready reports whether the service can admit new work: it is open and the
// submission queue has a free slot. cmd/cecd serves it as /readyz, the
// signal load balancers and the cluster coordinator share — a saturated
// node answers 503 and stops receiving traffic until the queue drains.
func (s *Service) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed && len(s.queue) < s.cfg.QueueCap
}

func (s *Service) logf(format string, args ...interface{}) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, format+"\n", args...)
	}
}

// engineName resolves "" to the default engine's name.
func engineName(e simsweep.Engine) string {
	if d, ok := simsweep.LookupEngine(e); ok {
		return string(d.Name)
	}
	return string(e)
}

// totalLaunches sums the kernel launch counts of a device's profile.
func totalLaunches(dev *par.Device) int {
	n := 0
	for _, ks := range dev.Stats() {
		n += ks.Launches
	}
	return n
}

// latencyRing keeps the last n end-to-end latencies of completed jobs for
// cheap p50/p99 estimation.
type latencyRing struct {
	buf  []time.Duration
	next int
	full bool
}

func newLatencyRing(n int) *latencyRing { return &latencyRing{buf: make([]time.Duration, n)} }

func (r *latencyRing) add(d time.Duration) {
	r.buf[r.next] = d
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

func (r *latencyRing) percentiles() (p50, p99 time.Duration) {
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	if n == 0 {
		return 0, 0
	}
	sorted := append([]time.Duration(nil), r.buf[:n]...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := func(p float64) int {
		i := int(p * float64(n-1))
		return i
	}
	return sorted[idx(0.50)], sorted[idx(0.99)]
}
