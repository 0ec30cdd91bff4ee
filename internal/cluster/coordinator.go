// Package cluster turns cecd into a coordinator/worker cluster. The
// coordinator fronts the ordinary cecd HTTP API: clients submit jobs to it
// exactly as to a single daemon, and it shards them over registered
// workers by the semantic job key (order-normalised structural
// fingerprints) on a consistent-hash ring, so identical checks always land
// on — and stay cached at — the same node.
//
// Workers are ordinary cecd processes. They register by pushing periodic
// heartbeats; silence beyond a liveness timeout declares a worker dead,
// removes it from the ring and requeues everything it held. Verdicts are
// federated: any decided, non-degraded result, from any node, enters the
// coordinator's verdict index and is thereafter a hit everywhere — the
// coordinator answers repeat submissions without dispatching, and workers
// consult the index (via service.RemoteCache) before spending engine time.
// Degraded results are returned to their caller but never federated, so a
// fault-injured verdict cannot propagate. Idle workers steal queued jobs
// from the most loaded peer, which keeps stragglers from serialising a
// sweep. Each job settles at most once: late duplicate verdicts (from a
// worker that was declared dead but kept computing) are counted and
// dropped.
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"simsweep/internal/fault"
	"simsweep/internal/service"
)

// Fixed coordinator tuning.
const (
	// pollInterval is the initial remote-job poll period (backs off to
	// ~10x under a steady poll).
	pollInterval = 2 * time.Millisecond
	// maxRequeues caps how often one job survives node deaths before it
	// is failed outright.
	maxRequeues = 5
	// replicas is the number of virtual ring points per worker.
	replicas = 64
	// requestTimeout bounds each coordinator->worker HTTP call.
	requestTimeout = 10 * time.Second
	// federationSize bounds the verdict index.
	federationSize = 4096
	// retainJobs bounds how many finished job records are kept for GET.
	retainJobs = 4096
)

// Config tunes a Coordinator. The zero value works for tests; New fills
// defaults.
type Config struct {
	// HeartbeatTimeout declares a worker dead after this much silence.
	HeartbeatTimeout time.Duration // default 2s
	// SweepInterval is the liveness sweep period.
	SweepInterval time.Duration // default HeartbeatTimeout/4
	// Slots is the number of concurrent dispatches per worker.
	Slots int // default 4
	// Faults optionally arms the cluster.worker.kill hook: each fire
	// declares the dispatch target dead.
	Faults *fault.Injector
	// Log receives one-line operational events (nil = silent).
	Log io.Writer
}

func (c *Config) fill() {
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 2 * time.Second
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = c.HeartbeatTimeout / 4
	}
	if c.Slots <= 0 {
		c.Slots = 4
	}
}

// member is the coordinator's record of one registered worker.
type member struct {
	id       string
	url      string
	client   *nodeClient
	lastBeat time.Time
	hb       heartbeatWire
	queue    []*cjob
	dead     bool
}

// cjob is a cluster-level job: the raw request body plus routing and
// settlement state. The body is forwarded to workers verbatim and freed on
// settle.
type cjob struct {
	id      string
	key     service.Key
	body    []byte
	engine  string
	timeout string

	state    service.State
	created  time.Time
	started  time.Time
	finished time.Time
	node     string
	res      service.JobJSON // worker's terminal record (zero until settled)
	errMsg   string
	cached   bool // settled from the federation or a coalesced leader
	requeues int
	cancel   bool

	// followers are identical-key submissions coalesced onto this leader.
	followers []*cjob
}

// bodyMeta memoises the expensive part of admission — AIGER decode plus
// fingerprinting — keyed by the exact raw body bytes, so a replayed
// byte-identical submission skips straight to its semantic key with no
// collision risk at all.
type bodyMeta struct {
	key     service.Key
	engine  string
	timeout string
}

// Coordinator shards submissions over registered workers and federates
// their verdicts. Create with New, serve with NewHandler, stop with Close.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond
	closed  bool
	seq     uint64
	jobs    map[string]*cjob
	done    []string // finished job ids, oldest first, for retention
	infl    map[service.Key]*cjob
	ring    *hashRing
	workers map[string]*member
	pending []*cjob // jobs with no live ring owner yet
	memo    map[string]bodyMeta
	byState map[service.State]uint64

	submitted  uint64
	fedHits    uint64
	coalesced  uint64
	dispatches uint64
	steals     uint64
	requeues   uint64
	deaths     uint64
	duplicates uint64

	fed  *fedCache
	stop chan struct{}
	wg   sync.WaitGroup
}

// New starts a coordinator (its liveness sweeper runs immediately; workers
// join via Heartbeat).
func New(cfg Config) *Coordinator {
	cfg.fill()
	c := &Coordinator{
		cfg:     cfg,
		jobs:    make(map[string]*cjob),
		infl:    make(map[service.Key]*cjob),
		ring:    newRing(replicas),
		workers: make(map[string]*member),
		memo:    make(map[string]bodyMeta),
		byState: make(map[service.State]uint64),
		fed:     newFedCache(federationSize),
		stop:    make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	c.wg.Add(1)
	go c.sweeper()
	return c
}

// Close stops dispatching, cancels all unfinished jobs and waits for every
// internal goroutine. Idempotent.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.stop)
	for _, j := range c.jobs {
		if !j.state.Terminal() && j.state == service.StateQueued {
			c.settleLocked(j, service.StateCancelled, "coordinator shutting down")
		}
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	c.wg.Wait()
}

// sweeper periodically declares silent workers dead.
func (c *Coordinator) sweeper() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		now := time.Now()
		c.mu.Lock()
		for _, m := range c.workers {
			if now.Sub(m.lastBeat) > c.cfg.HeartbeatTimeout {
				c.markDeadLocked(m, "heartbeat timeout")
			}
		}
		c.mu.Unlock()
	}
}

// Heartbeat registers or refreshes a worker. The first beat from an ID
// adds it to the ring, starts its dispatchers and re-shards any pending
// jobs; later beats update liveness and load. Returns the live worker
// count.
func (c *Coordinator) Heartbeat(hb heartbeatWire) (int, error) {
	if hb.ID == "" || hb.URL == "" {
		return 0, errors.New("cluster: heartbeat needs id and url")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, errors.New("cluster: coordinator closed")
	}
	now := time.Now()
	m := c.workers[hb.ID]
	if m == nil {
		m = &member{
			id:     hb.ID,
			url:    hb.URL,
			client: newNodeClient(hb.URL),
		}
		c.workers[hb.ID] = m
		c.ring.Add(hb.ID)
		for i := 0; i < c.cfg.Slots; i++ {
			c.wg.Add(1)
			go c.dispatcher(m)
		}
		pend := c.pending
		c.pending = nil
		for _, j := range pend {
			c.enqueueLocked(j)
		}
		c.logf("cluster: worker %s joined at %s (%d workers)", hb.ID, hb.URL, c.ring.Len())
	} else if m.url != hb.URL {
		// Same identity, new address: the process restarted behind us.
		m.url = hb.URL
		m.client = newNodeClient(hb.URL)
		c.logf("cluster: worker %s moved to %s", hb.ID, hb.URL)
	}
	m.lastBeat = now
	m.hb = hb
	c.cond.Broadcast()
	return c.ring.Len(), nil
}

// markDeadLocked removes a worker from the ring and requeues everything it
// held. Idempotent per member instance.
func (c *Coordinator) markDeadLocked(m *member, reason string) {
	if m.dead {
		return
	}
	m.dead = true
	if c.workers[m.id] == m {
		delete(c.workers, m.id)
		c.ring.Remove(m.id)
	}
	c.deaths++
	q := m.queue
	m.queue = nil
	for _, j := range q {
		c.requeueLocked(j, "worker "+m.id+" died: "+reason)
	}
	c.logf("cluster: worker %s declared dead (%s), %d jobs requeued, %d workers left",
		m.id, reason, len(q), c.ring.Len())
	c.cond.Broadcast()
}

// requeueLocked sends a job back through sharding after a node failure,
// honouring the requeue cap, cancellation and shutdown. Terminal jobs pass
// through untouched (at-most-once settlement).
func (c *Coordinator) requeueLocked(j *cjob, reason string) {
	if j.state.Terminal() {
		return
	}
	if c.closed {
		c.settleLocked(j, service.StateCancelled, "coordinator shutting down")
		return
	}
	if j.cancel {
		c.settleLocked(j, service.StateCancelled, "")
		return
	}
	j.requeues++
	c.requeues++
	if j.requeues > maxRequeues {
		c.settleLocked(j, service.StateFailed,
			fmt.Sprintf("cluster: job requeued %d times without a verdict (last: %s)", j.requeues-1, reason))
		return
	}
	j.state = service.StateQueued
	j.node = ""
	c.enqueueLocked(j)
}

// enqueueLocked routes a queued job to its ring owner, or parks it pending
// when no worker is live.
func (c *Coordinator) enqueueLocked(j *cjob) {
	owner := c.ring.Owner(j.key.Shard())
	if m := c.workers[owner]; m != nil && !m.dead {
		m.queue = append(m.queue, j)
		c.cond.Broadcast()
		return
	}
	c.pending = append(c.pending, j)
}

// dispatcher is one of a member's Slots dispatch loops: it takes the next
// job (own queue first, then stealing from the most loaded peer), forwards
// it and babysits it to settlement. Exits when the member dies or the
// coordinator closes.
func (c *Coordinator) dispatcher(m *member) {
	defer c.wg.Done()
	for {
		c.mu.Lock()
		var j *cjob
		for {
			if c.closed || m.dead {
				c.mu.Unlock()
				return
			}
			if j = c.takeLocked(m); j != nil {
				break
			}
			c.cond.Wait()
		}
		j.state = service.StateRunning
		j.started = time.Now()
		j.node = m.id
		c.dispatches++
		c.mu.Unlock()
		c.runRemote(m, j)
	}
}

// takeLocked pops the next runnable job for m: its own queue first;
// otherwise it steals the head of the longest live peer queue.
func (c *Coordinator) takeLocked(m *member) *cjob {
	for len(m.queue) > 0 {
		j := m.queue[0]
		m.queue = m.queue[1:]
		if j.state.Terminal() { // cancelled while queued
			continue
		}
		return j
	}
	var victim *member
	for _, o := range c.workers {
		if o == m || o.dead || len(o.queue) == 0 {
			continue
		}
		if victim == nil || len(o.queue) > len(victim.queue) {
			victim = o
		}
	}
	if victim == nil {
		return nil
	}
	for len(victim.queue) > 0 {
		j := victim.queue[0]
		victim.queue = victim.queue[1:]
		if j.state.Terminal() {
			continue
		}
		c.steals++
		return j
	}
	return nil
}

// runRemote drives one dispatched job on one worker: submit, poll to a
// terminal state, settle. Any transport failure declares the node dead and
// requeues the job; the coordinator mutex is never held across a call.
func (c *Coordinator) runRemote(m *member, j *cjob) {
	if c.cfg.Faults.Fire(fault.HookClusterKill) {
		c.logf("cluster: fault hook %s fired for node %s", fault.HookClusterKill, m.id)
		c.failNode(m, j, errors.New("dispatch target sabotaged by "+fault.HookClusterKill))
		return
	}

	var remoteID string
	for {
		if c.isClosed() {
			c.settle1(j, service.StateCancelled, "coordinator shutting down")
			return
		}
		if c.memberDead(m) {
			c.requeue1(j, "node died before dispatch")
			return
		}
		jj, status, err := m.client.submit(j.body)
		if err != nil {
			c.failNode(m, j, err)
			return
		}
		if status == 200 { // instant terminal on the worker (its cache hit)
			c.settleRemote(j, jj, m)
			return
		}
		if status == 202 {
			remoteID = jj.ID
			break
		}
		if status == 429 { // worker queue saturated: brief blocking backoff
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if status == 503 { // worker draining/closing
			c.failNode(m, j, fmt.Errorf("worker refused job: HTTP %d", status))
			return
		}
		// 400 and friends are permanent: re-dispatching cannot help.
		c.settle1(j, service.StateFailed, fmt.Sprintf("cluster: worker %s rejected job: HTTP %d", m.id, status))
		return
	}

	delay := pollInterval
	maxDelay := 10 * pollInterval
	fails := 0
	cancelSent := false
	for {
		time.Sleep(delay)
		if c.isClosed() {
			c.settle1(j, service.StateCancelled, "coordinator shutting down")
			return
		}
		if c.memberDead(m) {
			c.requeue1(j, "node died mid-job")
			return
		}
		if c.cancelRequested(j) && !cancelSent {
			m.client.cancel(remoteID)
			cancelSent = true
		}
		jj, err := m.client.get(remoteID)
		if err != nil {
			if fails++; fails >= 3 {
				c.failNode(m, j, err)
				return
			}
			continue
		}
		fails = 0
		if service.State(jj.State).Terminal() {
			// A worker-side cancellation nobody asked for means the worker
			// is shutting down under us: treat as a node failure so the
			// job is re-run, not lost.
			if service.State(jj.State) == service.StateCancelled && !c.cancelRequested(j) {
				c.failNode(m, j, errors.New("worker cancelled the job unilaterally (draining?)"))
				return
			}
			c.settleRemote(j, jj, m)
			return
		}
		if delay < maxDelay {
			delay += delay / 2
		}
	}
}

// failNode reacts to a broken conversation with a worker: the node is
// declared dead (draining its queue) and the in-hand job requeued.
func (c *Coordinator) failNode(m *member, j *cjob, err error) {
	c.mu.Lock()
	c.markDeadLocked(m, err.Error())
	c.requeueLocked(j, err.Error())
	c.mu.Unlock()
}

func (c *Coordinator) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

func (c *Coordinator) memberDead(m *member) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return m.dead
}

func (c *Coordinator) cancelRequested(j *cjob) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return j.cancel
}

func (c *Coordinator) requeue1(j *cjob, reason string) {
	c.mu.Lock()
	c.requeueLocked(j, reason)
	c.mu.Unlock()
}

func (c *Coordinator) settle1(j *cjob, st service.State, msg string) {
	c.mu.Lock()
	c.settleLocked(j, st, msg)
	c.mu.Unlock()
}

// settleRemote records a worker's terminal verdict for j, federating it
// when it is decided and non-degraded.
func (c *Coordinator) settleRemote(j *cjob, jj service.JobJSON, m *member) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if j.state.Terminal() {
		c.duplicates++
		return
	}
	j.res = jj
	j.node = m.id
	j.errMsg = jj.Error
	if v, ok := verdictOfJobJSON(jj, m.id); ok {
		c.fed.put(j.key, v)
	}
	c.settleLocked(j, service.State(jj.State), jj.Error)
}

// settleLocked is the single place a job becomes terminal: at-most-once by
// construction. It updates counters, releases the body, applies retention
// and resolves coalesced followers.
func (c *Coordinator) settleLocked(j *cjob, st service.State, msg string) {
	if j.state.Terminal() {
		c.duplicates++
		return
	}
	j.state = st
	if msg != "" {
		j.errMsg = msg
	}
	j.finished = time.Now()
	j.body = nil
	c.byState[st]++
	if c.infl[j.key] == j {
		delete(c.infl, j.key)
		c.resolveFollowersLocked(j)
	}
	c.done = append(c.done, j.id)
	for len(c.done) > retainJobs {
		delete(c.jobs, c.done[0])
		c.done = c.done[1:]
	}
}

// resolveFollowersLocked settles a leader's coalesced followers from its
// verdict when that verdict is decided and non-degraded; otherwise the
// first live follower is promoted to a fresh leader and re-enqueued, so a
// failed or degraded leader never silently answers for its followers.
func (c *Coordinator) resolveFollowersLocked(j *cjob) {
	fols := j.followers
	j.followers = nil
	live := fols[:0]
	for _, f := range fols {
		if !f.state.Terminal() {
			live = append(live, f)
		}
	}
	if len(live) == 0 {
		return
	}
	if _, ok := verdictOfJobJSON(j.res, j.node); ok && j.state == service.StateDone {
		for _, f := range live {
			f.res = j.res
			f.node = j.node
			f.cached = true
			c.settleLocked(f, service.StateDone, "")
		}
		return
	}
	lead := live[0]
	if c.closed {
		for _, f := range live {
			c.settleLocked(f, service.StateCancelled, "coordinator shutting down")
		}
		return
	}
	lead.followers = append(lead.followers, live[1:]...)
	c.infl[lead.key] = lead
	c.enqueueLocked(lead)
}

// admit derives the semantic key (and engine label) for a raw body,
// memoising by content hash so a replayed byte-identical submission skips
// the AIGER decode and fingerprint entirely.
func (c *Coordinator) admit(raw []byte) (bodyMeta, error) {
	c.mu.Lock()
	meta, ok := c.memo[string(raw)]
	c.mu.Unlock()
	if ok {
		return meta, nil
	}
	var body service.JobRequest
	if err := json.Unmarshal(raw, &body); err != nil {
		return bodyMeta{}, fmt.Errorf("bad JSON: %w", err)
	}
	req, err := service.DecodeRequest(body)
	if err != nil {
		return bodyMeta{}, err
	}
	key, err := service.KeyOf(req)
	if err != nil {
		return bodyMeta{}, err
	}
	meta = bodyMeta{key: key, engine: string(req.Engine)}
	if body.TimeoutMS > 0 {
		meta.timeout = (time.Duration(body.TimeoutMS) * time.Millisecond).String()
	}
	c.mu.Lock()
	if len(c.memo) >= 8192 { // crude bound; a full reset is fine at this size
		c.memo = make(map[string]bodyMeta)
	}
	c.memo[string(raw)] = meta
	c.mu.Unlock()
	return meta, nil
}

// Submit admits a raw JobRequest body. The reply mirrors the single-node
// daemon: 200 with a terminal record on a federation hit, 202 with a
// queued/coalesced record otherwise, 400/503 on bad input or shutdown. A
// non-nil wire return is the complete pre-encoded 200 response body — the
// replay fast path, where a decided key answers without allocating a job
// record; rec is only meaningful when wire is nil.
func (c *Coordinator) Submit(raw []byte) (rec service.JobJSON, wire []byte, status int) {
	meta, err := c.admit(raw)
	if err != nil {
		return service.JobJSON{Error: err.Error()}, nil, 400
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return service.JobJSON{Error: "cluster: coordinator closed"}, nil, 503
	}
	c.submitted++

	// Federation fast path: a verdict decided anywhere settles this
	// submission without touching a worker. Replays after the first are
	// answered from the entry's pre-encoded bytes.
	if v, w, ok := c.fed.get(meta.key); ok {
		c.fedHits++
		if w != nil {
			c.byState[service.StateDone]++
			return service.JobJSON{}, w, 200
		}
		j := c.newJobLocked(meta)
		j.res = verdictJobJSON(v)
		j.node = v.Node
		j.cached = true
		c.settleLocked(j, service.StateDone, "")
		view := c.jobViewLocked(j)
		if enc, err := json.Marshal(view); err == nil {
			c.fed.attachWire(meta.key, append(enc, '\n'))
		}
		return view, nil, 200
	}

	j := c.newJobLocked(meta)

	// Single-flight: coalesce onto an identical in-flight leader.
	if lead, ok := c.infl[meta.key]; ok && !lead.state.Terminal() {
		c.coalesced++
		lead.followers = append(lead.followers, j)
		return c.jobViewLocked(j), nil, 202
	}

	j.body = raw
	c.infl[meta.key] = j
	c.enqueueLocked(j)
	return c.jobViewLocked(j), nil, 202
}

func (c *Coordinator) newJobLocked(meta bodyMeta) *cjob {
	c.seq++
	j := &cjob{
		id:      fmt.Sprintf("c-%08d", c.seq),
		key:     meta.key,
		engine:  meta.engine,
		timeout: meta.timeout,
		state:   service.StateQueued,
		created: time.Now(),
	}
	c.jobs[j.id] = j
	return j
}

// verdictJobJSON renders a federated verdict as a worker record.
func verdictJobJSON(v Verdict) service.JobJSON {
	return service.JobJSON{
		Verdict:        v.Verdict,
		CEX:            v.CEX,
		EngineUsed:     v.EngineUsed,
		RuntimeMS:      v.RuntimeMS,
		SATTimeMS:      v.SATTimeMS,
		ReducedPercent: v.ReducedPercent,
	}
}

// jobViewLocked renders a cluster job in the single-node wire shape, with
// coordinator-side identity, state and timestamps overriding the worker's.
func (c *Coordinator) jobViewLocked(j *cjob) service.JobJSON {
	out := j.res
	out.ID = j.id
	out.State = string(j.state)
	if out.Engine == "" {
		out.Engine = j.engine
	}
	if j.timeout != "" {
		out.Timeout = j.timeout
	}
	out.Node = j.node
	out.Cached = out.Cached || j.cached
	if j.errMsg != "" {
		out.Error = j.errMsg
	}
	out.Created = rfc3339(j.created)
	out.Started = rfc3339(j.started)
	out.Finished = rfc3339(j.finished)
	return out
}

func rfc3339(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// Get returns one job record.
func (c *Coordinator) Get(id string) (service.JobJSON, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return service.JobJSON{}, service.ErrNotFound
	}
	return c.jobViewLocked(j), nil
}

// Jobs lists retained job records, newest first.
func (c *Coordinator) Jobs() []service.JobJSON {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]service.JobJSON, 0, len(c.jobs))
	for _, j := range c.jobs {
		out = append(out, c.jobViewLocked(j))
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID > out[k].ID })
	return out
}

// Cancel requests cancellation: queued jobs settle immediately, dispatched
// ones get a best-effort cancel forwarded by their babysitter.
func (c *Coordinator) Cancel(id string) (service.JobJSON, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return service.JobJSON{}, service.ErrNotFound
	}
	if j.state.Terminal() {
		return c.jobViewLocked(j), service.ErrFinished
	}
	j.cancel = true
	if j.state == service.StateQueued {
		c.settleLocked(j, service.StateCancelled, "")
	}
	return c.jobViewLocked(j), nil
}

// WorkerStat is one worker's row in Stats.
type WorkerStat struct {
	ID         string `json:"id"`
	URL        string `json:"url"`
	QueueLen   int    `json:"queue_len"`
	Running    int    `json:"running"`
	Ready      bool   `json:"ready"`
	LastBeatMS int64  `json:"last_beat_ms"`
}

// Stats is a snapshot of the coordinator.
type Stats struct {
	Workers    []WorkerStat
	Pending    int
	ByState    map[service.State]uint64
	Submitted  uint64
	FedHits    uint64
	Coalesced  uint64
	Dispatches uint64
	Steals     uint64
	Requeues   uint64
	Deaths     uint64
	Duplicates uint64

	FedIndexHits    uint64
	FedIndexPuts    uint64
	FedIndexEntries int
}

// Stats snapshots counters, membership and per-worker load.
func (c *Coordinator) Stats() Stats {
	fh, fp, fe := c.fed.stats()
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Pending:         len(c.pending),
		ByState:         make(map[service.State]uint64, len(c.byState)),
		Submitted:       c.submitted,
		FedHits:         c.fedHits,
		Coalesced:       c.coalesced,
		Dispatches:      c.dispatches,
		Steals:          c.steals,
		Requeues:        c.requeues,
		Deaths:          c.deaths,
		Duplicates:      c.duplicates,
		FedIndexHits:    fh,
		FedIndexPuts:    fp,
		FedIndexEntries: fe,
	}
	for k, v := range c.byState {
		st.ByState[k] = v
	}
	for _, m := range c.workers {
		st.Workers = append(st.Workers, WorkerStat{
			ID:         m.id,
			URL:        m.url,
			QueueLen:   len(m.queue),
			Running:    m.hb.Running,
			Ready:      m.hb.Ready,
			LastBeatMS: now.Sub(m.lastBeat).Milliseconds(),
		})
	}
	sort.Slice(st.Workers, func(i, k int) bool { return st.Workers[i].ID < st.Workers[k].ID })
	return st
}

// Ready reports whether the cluster can make progress: at least one live
// worker.
func (c *Coordinator) Ready() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.closed && c.ring.Len() > 0
}

// CacheGet serves a federation lookup by wire key.
func (c *Coordinator) CacheGet(keyStr string) (Verdict, bool, error) {
	key, err := parseKey(keyStr)
	if err != nil {
		return Verdict{}, false, err
	}
	v, _, ok := c.fed.get(key)
	return v, ok, nil
}

// CachePut accepts a verdict published by a worker. Undecided verdicts are
// rejected by the index itself; degraded ones never reach the wire (the
// service layer filters them before publishing).
func (c *Coordinator) CachePut(keyStr string, v Verdict) error {
	key, err := parseKey(keyStr)
	if err != nil {
		return err
	}
	if !v.Decided() {
		return errors.New("cluster: refusing undecided verdict")
	}
	c.fed.put(key, v)
	return nil
}

func (c *Coordinator) logf(format string, args ...interface{}) {
	if c.cfg.Log == nil {
		return
	}
	fmt.Fprintf(c.cfg.Log, format+"\n", args...)
}
