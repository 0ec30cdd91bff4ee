// Package cluster turns cecd into a coordinator/worker cluster. The
// coordinator fronts the ordinary cecd HTTP API: clients submit jobs to it
// exactly as to a single daemon, and it keeps them in one FIFO that every
// live worker's dispatchers pop, so an idle worker takes the next job
// whatever its key.
//
// Workers are ordinary cecd processes. They register by pushing periodic
// heartbeats; silence beyond a liveness timeout declares a worker dead and
// requeues, at the head of the FIFO, the jobs its own dispatchers held. A
// job that was never dispatched is never charged for a death. A CEC verdict
// is a property of the two circuits, not of the node that computed it, so
// the coordinator keeps one verdict index keyed by the semantic job key
// (order-normalised structural fingerprints): a settled job with a
// decided, non-degraded verdict is the only way in, and a repeat
// submission is answered from it without dispatching. Identical
// submissions in flight coalesce onto one leader. Degraded results are
// returned to their caller but never indexed, so a fault-injured verdict
// cannot answer for anyone else. Each job settles at most once: late
// duplicate verdicts (from a worker that was declared dead but kept
// computing) are counted and dropped.
package cluster

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
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
	// requestTimeout bounds each coordinator->worker HTTP call.
	requestTimeout = 10 * time.Second
	// indexSize bounds the verdict index.
	indexSize = 4096
	// retainJobs bounds how many finished job records are kept for GET.
	retainJobs = 4096
	// memoSize bounds the admission memo; it resets when full.
	memoSize = 8192
)

// Config tunes a Coordinator. The zero value works for tests; New fills
// defaults.
type Config struct {
	// HeartbeatTimeout declares a worker dead after this much silence;
	// the liveness sweep runs every quarter of it.
	HeartbeatTimeout time.Duration // default 2s
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
	// held lists the jobs this member's dispatchers hold, oldest dispatch
	// first; its death requeues exactly these.
	held []*cjob
	dead bool
}

// cjob is a cluster-level job: the raw request body plus dispatch and
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
	cached   bool // settled from the verdict index or a coalesced leader
	requeues int
	cancel   bool

	// followers are identical-key submissions coalesced onto this leader.
	followers []*cjob
}

// bodyMeta memoises the expensive part of admission — AIGER decode plus
// fingerprinting — keyed by the SHA-256 of the raw body, so a replayed
// byte-identical submission skips straight to its semantic key. A
// collision is no likelier than one of the 64-bit structural fingerprints
// the key itself rests on.
type bodyMeta struct {
	key     service.Key
	engine  string
	timeout string
}

// Coordinator dispatches submissions to registered workers and answers
// repeats from its verdict index. Create with New, serve with NewHandler,
// stop with Close.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond
	closed  bool
	seq     uint64
	jobs    map[string]*cjob
	done    []string // finished job ids, oldest first, for retention
	infl    map[service.Key]*cjob
	workers map[string]*member
	queue   []*cjob // queued jobs, next to dispatch first
	memo    map[[sha256.Size]byte]bodyMeta
	index   *verdictIndex
	byState map[service.State]uint64

	submitted  uint64
	fedHits    uint64
	coalesced  uint64
	dispatches uint64
	requeues   uint64
	deaths     uint64
	duplicates uint64

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
		workers: make(map[string]*member),
		memo:    make(map[[sha256.Size]byte]bodyMeta),
		index:   newVerdictIndex(indexSize),
		byState: make(map[service.State]uint64),
		stop:    make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	c.wg.Add(1)
	go c.sweeper()
	return c
}

// Close stops dispatching, cancels every unfinished job and waits for
// every internal goroutine. Idempotent.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.stop)
	c.queue = nil
	for _, j := range c.jobs {
		if !j.state.Terminal() {
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
	t := time.NewTicker(c.cfg.HeartbeatTimeout / 4)
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
// starts its dispatchers; later beats update liveness and load. A beat
// from a known ID at a new address means the process restarted behind
// us: the old member dies and the new one joins. Returns the live worker
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
	m := c.workers[hb.ID]
	if m != nil && m.url != hb.URL {
		c.markDeadLocked(m, "restarted at "+hb.URL)
		m = nil
	}
	if m == nil {
		m = &member{id: hb.ID, url: hb.URL, client: newNodeClient(hb.URL)}
		c.workers[hb.ID] = m
		for i := 0; i < c.cfg.Slots; i++ {
			c.wg.Add(1)
			go c.dispatcher(m)
		}
		c.logf("cluster: worker %s joined at %s (%d workers)", hb.ID, hb.URL, len(c.workers))
	}
	m.lastBeat = time.Now()
	m.hb = hb
	return len(c.workers), nil
}

// markDeadLocked removes a worker and requeues the jobs its dispatchers
// held. Idempotent per member instance.
func (c *Coordinator) markDeadLocked(m *member, reason string) {
	if m.dead {
		return
	}
	m.dead = true
	if c.workers[m.id] == m {
		delete(c.workers, m.id)
	}
	c.deaths++
	held := m.held
	m.held = nil
	// Each requeue goes to the head, so walk backwards to keep the oldest
	// dispatch first.
	for i := len(held) - 1; i >= 0; i-- {
		c.requeueLocked(held[i], "worker "+m.id+" died: "+reason)
	}
	c.logf("cluster: worker %s declared dead (%s), %d jobs requeued, %d workers left",
		m.id, reason, len(held), len(c.workers))
	c.cond.Broadcast()
}

// requeueLocked puts a job whose worker died back at the head of the
// queue, honouring the requeue cap and cancellation. Terminal jobs pass
// through untouched (at-most-once settlement).
func (c *Coordinator) requeueLocked(j *cjob, reason string) {
	if j.state.Terminal() {
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
	c.queue = slices.Insert(c.queue, 0, j)
}

// enqueueLocked appends a queued job to the tail of the queue.
func (c *Coordinator) enqueueLocked(j *cjob) {
	c.queue = append(c.queue, j)
	c.cond.Broadcast()
}

// dispatcher is one of a member's Slots dispatch loops: it pops the head
// of the queue, forwards it and babysits it to settlement. Exits when the
// member dies or the coordinator closes.
func (c *Coordinator) dispatcher(m *member) {
	defer c.wg.Done()
	for {
		c.mu.Lock()
		for !c.closed && !m.dead && len(c.queue) == 0 {
			c.cond.Wait()
		}
		if c.closed || m.dead {
			c.mu.Unlock()
			return
		}
		j := c.queue[0]
		c.queue[0] = nil
		c.queue = c.queue[1:]
		j.state = service.StateRunning
		j.started = time.Now()
		j.node = m.id
		m.held = append(m.held, j)
		c.dispatches++
		body := j.body
		c.mu.Unlock()
		c.runRemote(m, j, body)
	}
}

// runRemote drives one dispatched job on one worker: submit, poll to a
// terminal state, settle. Any transport failure declares the node dead,
// which requeues the job; the coordinator mutex is never held across a
// call. Once the node is dead or the coordinator closed, the job is no
// longer this dispatcher's to settle.
func (c *Coordinator) runRemote(m *member, j *cjob, body []byte) {
	if c.cfg.Faults.Fire(fault.HookClusterKill) {
		c.logf("cluster: fault hook %s fired for node %s", fault.HookClusterKill, m.id)
		c.failNode(m, errors.New("dispatch target sabotaged by "+fault.HookClusterKill))
		return
	}

	var remoteID string
	for remoteID == "" {
		if gone, _ := c.watch(m, j); gone {
			return
		}
		jj, status, err := m.client.submit(body)
		switch {
		case err != nil:
			c.failNode(m, err)
			return
		case status == 200: // instant terminal on the worker (its cache hit)
			c.settleRemote(m, j, jj)
			return
		case status == 202:
			remoteID = jj.ID
		case status == 429: // worker queue saturated: brief blocking backoff
			time.Sleep(5 * time.Millisecond)
		case status == 503: // worker draining/closing
			c.failNode(m, fmt.Errorf("worker refused job: HTTP %d", status))
			return
		default: // 400 and friends are permanent: re-dispatching cannot help.
			c.settleRemote(m, j, service.JobJSON{
				State: string(service.StateFailed),
				Error: fmt.Sprintf("cluster: worker %s rejected job: HTTP %d", m.id, status),
			})
			return
		}
	}

	delay := pollInterval
	maxDelay := 10 * pollInterval
	fails := 0
	cancelSent := false
	for {
		time.Sleep(delay)
		gone, cancel := c.watch(m, j)
		if gone {
			return
		}
		if cancel && !cancelSent {
			m.client.cancel(remoteID)
			cancelSent = true
		}
		jj, err := m.client.get(remoteID)
		if err != nil {
			if fails++; fails >= 3 {
				c.failNode(m, err)
				return
			}
			continue
		}
		fails = 0
		if st := service.State(jj.State); st.Terminal() {
			// A worker-side cancellation nobody asked for means the worker
			// is shutting down under us: treat as a node failure so the
			// job is re-run, not lost.
			if st == service.StateCancelled && !cancelSent {
				c.failNode(m, errors.New("worker cancelled the job unilaterally (draining?)"))
				return
			}
			c.settleRemote(m, j, jj)
			return
		}
		if delay < maxDelay {
			delay += delay / 2
		}
	}
}

// failNode reacts to a broken conversation with a worker: the node is
// declared dead, which requeues every job its dispatchers held.
func (c *Coordinator) failNode(m *member, err error) {
	c.mu.Lock()
	c.markDeadLocked(m, err.Error())
	c.mu.Unlock()
}

// watch reports whether m's dispatcher must drop j because the coordinator
// closed or m died (either already took the job back), and whether the
// client asked to cancel it.
func (c *Coordinator) watch(m *member, j *cjob) (gone, cancel bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed || m.dead, j.cancel
}

// settleRemote settles j, held by m's dispatcher, from the worker's
// terminal record, and indexes the record when it is decided and
// non-degraded. A job that m's death or the coordinator's shutdown already
// took back is not m's to settle: the record is a late duplicate and is
// dropped.
func (c *Coordinator) settleRemote(m *member, j *cjob, jj service.JobJSON) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m.dead || j.state.Terminal() {
		c.duplicates++
		return
	}
	m.held = slices.DeleteFunc(m.held, func(h *cjob) bool { return h == j })
	j.res = jj
	j.node = m.id
	c.index.put(j.key, jj, m.id)
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
	if indexable(j.res) {
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
// memoising by the body's SHA-256 so a replayed byte-identical submission
// skips the AIGER decode and fingerprint entirely.
func (c *Coordinator) admit(raw []byte) (bodyMeta, error) {
	sum := sha256.Sum256(raw)
	c.mu.Lock()
	meta, ok := c.memo[sum]
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
	if len(c.memo) >= memoSize { // crude bound; a full reset is fine at this size
		clear(c.memo)
	}
	c.memo[sum] = meta
	c.mu.Unlock()
	return meta, nil
}

// Submit admits a raw JobRequest body. The reply mirrors the single-node
// daemon: 200 with a terminal record on a verdict-index hit, 202 with a
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

	// Index fast path: a verdict decided anywhere settles this submission
	// without touching a worker. Replays after the first are answered from
	// the entry's pre-encoded bytes.
	if e, ok := c.index.get(meta.key); ok {
		c.fedHits++
		if e.wire != nil {
			c.byState[service.StateDone]++
			return service.JobJSON{}, e.wire, 200
		}
		j := c.newJobLocked(meta)
		j.res = e.rec
		j.node = e.rec.Node
		j.cached = true
		c.settleLocked(j, service.StateDone, "")
		view := c.jobViewLocked(j)
		if enc, err := json.Marshal(view); err == nil {
			e.wire = append(enc, '\n')
		}
		return view, nil, 200
	}

	j := c.newJobLocked(meta)
	// A follower keeps its body too: if its leader fails it is promoted and
	// dispatched itself.
	j.body = raw

	// Single-flight: coalesce onto an identical in-flight leader.
	if lead, ok := c.infl[meta.key]; ok && !lead.state.Terminal() {
		c.coalesced++
		lead.followers = append(lead.followers, j)
		return c.jobViewLocked(j), nil, 202
	}

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
		c.queue = slices.DeleteFunc(c.queue, func(q *cjob) bool { return q == j })
		c.settleLocked(j, service.StateCancelled, "")
	}
	return c.jobViewLocked(j), nil
}

// WorkerStat is one worker's row in Stats: its identity and the load its
// last heartbeat reported.
type WorkerStat struct {
	ID         string `json:"id"`
	URL        string `json:"url"`
	Running    int    `json:"running"`
	Ready      bool   `json:"ready"`
	LastBeatMS int64  `json:"last_beat_ms"`
}

// Stats is a snapshot of the coordinator.
type Stats struct {
	Workers    []WorkerStat
	Pending    int // jobs in the queue
	ByState    map[service.State]uint64
	Submitted  uint64
	FedHits    uint64 // submissions answered from the verdict index
	Coalesced  uint64
	Dispatches uint64
	Requeues   uint64
	Deaths     uint64
	Duplicates uint64

	FedIndexPuts    uint64
	FedIndexEntries int
}

// Stats snapshots counters, membership and per-worker load.
func (c *Coordinator) Stats() Stats {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Pending:         len(c.queue),
		ByState:         make(map[service.State]uint64, len(c.byState)),
		Submitted:       c.submitted,
		FedHits:         c.fedHits,
		Coalesced:       c.coalesced,
		Dispatches:      c.dispatches,
		Requeues:        c.requeues,
		Deaths:          c.deaths,
		Duplicates:      c.duplicates,
		FedIndexPuts:    c.index.puts,
		FedIndexEntries: c.index.order.Len(),
	}
	for k, v := range c.byState {
		st.ByState[k] = v
	}
	for _, m := range c.workers {
		st.Workers = append(st.Workers, WorkerStat{
			ID:         m.id,
			URL:        m.url,
			Running:    m.hb.Running,
			Ready:      m.hb.Ready,
			LastBeatMS: now.Sub(m.lastBeat).Milliseconds(),
		})
	}
	sort.Slice(st.Workers, func(i, k int) bool { return st.Workers[i].ID < st.Workers[k].ID })
	return st
}

// Ready reports whether the cluster can make progress: a live worker
// exists.
func (c *Coordinator) Ready() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.closed && len(c.workers) > 0
}

func (c *Coordinator) logf(format string, args ...interface{}) {
	if c.cfg.Log == nil {
		return
	}
	fmt.Fprintf(c.cfg.Log, format+"\n", args...)
}
