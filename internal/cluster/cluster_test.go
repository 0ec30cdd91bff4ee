package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simsweep"
	"simsweep/internal/aig"
	"simsweep/internal/gen"
	"simsweep/internal/opt"
	"simsweep/internal/service"
)

// Shared circuits, built once: a pair the hybrid engine proves in
// milliseconds, a buggy copy, and a pair whose SAT sweep is the slowest
// job here, seconds on a 2-vCPU host (used to keep a worker busy while we
// kill it): 8-bit array and Booth multipliers, which share no internal
// structure, so the sweep's pairs are hard by construction.
var (
	buildOnce    sync.Once
	eqA, eqB     *aig.AIG
	neqA, neqB   *aig.AIG
	slowA, slowB *aig.AIG
	buildErr     error
)

func circuits(t *testing.T) {
	t.Helper()
	buildOnce.Do(func() {
		mk := func(name string, scale int) (*aig.AIG, *aig.AIG, error) {
			g, err := gen.Benchmark(name, scale)
			if err != nil {
				return nil, nil, err
			}
			return g, opt.Resyn2(g, nil), nil
		}
		if eqA, eqB, buildErr = mk("multiplier", 6); buildErr != nil {
			return
		}
		// The bug masks PO 3 with PI 0: only inputs with PI 0 low and PO 3
		// high tell the pair apart, so not every pattern is a counter-example.
		neqA, neqB = eqA.Copy(), eqB.Copy()
		neqB.SetPO(3, neqB.And(neqB.PO(3), neqB.PI(0)))
		if slowA, buildErr = gen.Multiplier(8); buildErr != nil {
			return
		}
		slowB, buildErr = gen.MultiplierBooth(8)
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
}

// poVariant returns copies of the pair with PO i complemented on both
// sides: the verdict is unchanged, the semantic key is distinct per i.
func poVariant(a, b *aig.AIG, i int) (*aig.AIG, *aig.AIG) {
	a, b = a.Copy(), b.Copy()
	i %= a.NumPOs()
	a.SetPO(i, a.PO(i).Not())
	b.SetPO(i, b.PO(i).Not())
	return a, b
}

// eqVariant is poVariant over the fast pair: still equivalent.
func eqVariant(i int) (*aig.AIG, *aig.AIG) { return poVariant(eqA, eqB, i) }

// neqVariant is poVariant over the buggy pair: still not equivalent.
func neqVariant(i int) (*aig.AIG, *aig.AIG) { return poVariant(neqA, neqB, i) }

// slowVariant is poVariant over the slow pair.
func slowVariant(i int) (*aig.AIG, *aig.AIG) { return poVariant(slowA, slowB, i) }

func pairBody(t *testing.T, a, b *aig.AIG) []byte {
	return pairBodyEngine(t, a, b, "")
}

// pairBodyEngine forces an engine; the SAT engine on the slow pair yields
// the slowest job of these tests, long enough to kill a worker under.
func pairBodyEngine(t *testing.T, a, b *aig.AIG, engine simsweep.Engine) []byte {
	t.Helper()
	jr, err := service.EncodeRequest(service.Request{A: a, B: b, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(jr)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func postJob(t *testing.T, base string, body []byte) (service.JobJSON, int) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j service.JobJSON
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatalf("decoding POST response (HTTP %d): %v", resp.StatusCode, err)
	}
	return j, resp.StatusCode
}

func getJob(t *testing.T, base, id string) service.JobJSON {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET job %s: HTTP %d", id, resp.StatusCode)
	}
	var j service.JobJSON
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return j
}

func waitJob(t *testing.T, base, id string, within time.Duration) service.JobJSON {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		j := getJob(t, base, id)
		if service.State(j.State).Terminal() {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, j.State, within)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// tWorker is one in-process worker: a real service behind a real HTTP
// listener plus a heartbeat agent. die() severs the network abruptly (the
// listener closes mid-conversation, like a partition or kill -9) while the
// process-local service keeps running, which is the worst case for the
// at-most-once guarantee: the "dead" node may still finish its jobs.
type tWorker struct {
	id    string
	svc   *service.Service
	srv   *httptest.Server
	agent *Agent
}

func startWorker(t *testing.T, coURL, id string, k int) *tWorker {
	t.Helper()
	svc := service.New(service.Config{MaxConcurrent: k, TotalWorkers: 1})
	srv := httptest.NewServer(service.NewHandler(svc))
	ag, err := StartAgent(AgentConfig{
		ID: id, Advertise: srv.URL, Coordinator: coURL,
		Interval: 50 * time.Millisecond, Service: svc,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := &tWorker{id: id, svc: svc, srv: srv, agent: ag}
	t.Cleanup(func() { w.svc.Close() })
	return w
}

func (w *tWorker) stopGraceful() {
	w.agent.Stop()
	w.srv.Close()
}

func (w *tWorker) die() {
	w.agent.Stop()
	w.srv.CloseClientConnections()
	w.srv.Close()
}

func startCoordinator(t *testing.T, cfg Config) (*Coordinator, string) {
	t.Helper()
	co := New(cfg)
	srv := httptest.NewServer(NewHandler(co))
	t.Cleanup(func() { srv.Close(); co.Close() })
	return co, srv.URL
}

func waitWorkers(t *testing.T, co *Coordinator, n int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		if len(co.Stats().Workers) == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw %d workers: %+v", n, co.Stats().Workers)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func readyz(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestClusterEndToEndVerdicts(t *testing.T) {
	circuits(t)
	co, base := startCoordinator(t, Config{
		HeartbeatTimeout: 500 * time.Millisecond,
	})

	// No workers: not ready, but submissions are accepted and parked.
	if got := readyz(t, base); got != 503 {
		t.Fatalf("readyz with no workers = %d", got)
	}
	parked, status := postJob(t, base, pairBody(t, eqA, eqB))
	if status != 202 || service.State(parked.State) != service.StateQueued {
		t.Fatalf("parked submit: HTTP %d state %s", status, parked.State)
	}

	ids := []string{"w1", "w2", "w3"}
	workers := make(map[string]*tWorker, len(ids))
	for _, id := range ids {
		workers[id] = startWorker(t, base, id, 1)
	}
	waitWorkers(t, co, 3, 10*time.Second)
	if got := readyz(t, base); got != 200 {
		t.Fatalf("readyz with workers = %d", got)
	}

	// The parked job drains to a worker once one joins.
	j := waitJob(t, base, parked.ID, 60*time.Second)
	if service.State(j.State) != service.StateDone || j.Verdict != simsweep.Equivalent.String() {
		t.Fatalf("parked job: state=%s verdict=%q err=%q", j.State, j.Verdict, j.Error)
	}
	if _, ok := workers[j.Node]; !ok {
		t.Fatalf("job executed by unknown node %q", j.Node)
	}

	// A non-equivalent pair yields a counter-example through the wire.
	nj, _ := postJob(t, base, pairBody(t, neqA, neqB))
	nj = waitJob(t, base, nj.ID, 60*time.Second)
	if nj.Verdict != simsweep.NotEquivalent.String() || len(nj.CEX) == 0 {
		t.Fatalf("buggy pair: verdict=%q cex=%v", nj.Verdict, nj.CEX)
	}

	// Byte-identical resubmission: verdict-index hit, settled in the POST.
	hit, status := postJob(t, base, pairBody(t, eqA, eqB))
	if status != 200 || !hit.Cached || hit.Verdict != simsweep.Equivalent.String() {
		t.Fatalf("resubmit: HTTP %d cached=%v verdict=%q", status, hit.Cached, hit.Verdict)
	}
	// Swapped operands: different bytes, same order-normalised key.
	swap, status := postJob(t, base, pairBody(t, eqB, eqA))
	if status != 200 || !swap.Cached {
		t.Fatalf("swapped resubmit: HTTP %d cached=%v", status, swap.Cached)
	}

	st := co.Stats()
	if st.FedHits < 2 {
		t.Fatalf("expected >=2 verdict-index hits, got %+v", st)
	}
	for _, w := range workers {
		w.stopGraceful()
	}
}

func TestWorkerDeathRequeuesWithoutLossOrLies(t *testing.T) {
	circuits(t)
	co, base := startCoordinator(t, Config{
		HeartbeatTimeout: 400 * time.Millisecond,
		Slots:            2,
	})
	w1 := startWorker(t, base, "w1", 1)
	waitWorkers(t, co, 1, 10*time.Second)

	// Pin w1 down with a slow SAT job, then pile on fast ones. Wait until
	// the slow job runs on w1's single runner: dispatch alone races with
	// the fast jobs' submits, and a fast job that reaches w1 first would
	// settle there before the death.
	sj, _ := postJob(t, base, pairBodyEngine(t, slowA, slowB, simsweep.EngineSAT))
	deadline := time.Now().Add(30 * time.Second)
	for getJob(t, base, sj.ID).Node != "w1" || w1.svc.Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow job never started on w1")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var fast []string
	for i := 0; i < 3; i++ {
		a, b := eqVariant(i)
		j, _ := postJob(t, base, pairBody(t, a, b))
		fast = append(fast, j.ID)
	}

	w2 := startWorker(t, base, "w2", 1)
	waitWorkers(t, co, 2, 10*time.Second)

	// Abrupt network death of w1 mid-sweep. Its local service keeps
	// computing — the classic zombie — but every job it held must be
	// re-run on w2 and settle exactly once with a correct verdict.
	w1.die()

	for _, id := range append([]string{sj.ID}, fast...) {
		j := waitJob(t, base, id, 120*time.Second)
		if service.State(j.State) != service.StateDone || j.Verdict != simsweep.Equivalent.String() {
			t.Fatalf("job %s after death: state=%s verdict=%q err=%q", id, j.State, j.Verdict, j.Error)
		}
		if j.Node != "w2" {
			t.Fatalf("job %s settled by %q, want w2", id, j.Node)
		}
	}
	st := co.Stats()
	if st.Deaths < 1 || st.Requeues < 1 {
		t.Fatalf("death not observed: %+v", st)
	}
	w2.stopGraceful()
}

// TestIdleWorkerDrainsQueueWhilePeerPinned pins the only dispatch slot of
// one worker with a job it never finishes, then queues fast jobs: the
// other worker's dispatcher pops them all from the shared queue, so every
// one settles there and none waits behind the pinned slot.
func TestIdleWorkerDrainsQueueWhilePeerPinned(t *testing.T) {
	circuits(t)
	co, base := startCoordinator(t, Config{
		HeartbeatTimeout: 2 * time.Second,
		Slots:            1,
	})
	fake, posts := startFakeWorker(t)
	ag, err := StartAgent(AgentConfig{ID: "pinned", Advertise: fake.URL, Coordinator: base, Interval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ag.Stop()
	waitWorkers(t, co, 1, 10*time.Second)
	pj, _ := postJob(t, base, pairBody(t, eqA, eqB))
	deadline := time.Now().Add(30 * time.Second)
	for posts.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("pinning job never dispatched")
		}
		time.Sleep(5 * time.Millisecond)
	}
	w := startWorker(t, base, "idle", 1)
	waitWorkers(t, co, 2, 10*time.Second)

	var ids []string
	for i := 0; i < 12; i++ {
		a, b := eqVariant(i)
		j, _ := postJob(t, base, pairBody(t, a, b))
		ids = append(ids, j.ID)
	}
	for _, id := range ids {
		j := waitJob(t, base, id, 60*time.Second)
		if j.Verdict != simsweep.Equivalent.String() || j.Node != "idle" {
			t.Fatalf("fast job %s: verdict=%q state=%s node=%q, want equivalent on the idle worker",
				id, j.Verdict, j.State, j.Node)
		}
	}
	if j := getJob(t, base, pj.ID); j.Node != "pinned" || service.State(j.State) != service.StateRunning || posts.Load() != 1 {
		t.Fatalf("pinning job: node=%q state=%s, %d jobs sent to the pinned worker", j.Node, j.State, posts.Load())
	}

	// Cancel the pinning job through the coordinator.
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+pj.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if j := waitJob(t, base, pj.ID, 60*time.Second); service.State(j.State) != service.StateCancelled {
		t.Fatalf("cancelled pinning job ended %s", j.State)
	}
	w.stopGraceful()
}

func TestCoordinatorCoalescesIdenticalSubmissions(t *testing.T) {
	circuits(t)
	co, base := startCoordinator(t, Config{
		HeartbeatTimeout: 2 * time.Second,
	})
	w := startWorker(t, base, "w1", 1)
	waitWorkers(t, co, 1, 10*time.Second)

	a, b := eqVariant(5)
	body := pairBody(t, a, b)
	const n = 8
	var wg sync.WaitGroup
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			var j service.JobJSON
			json.NewDecoder(resp.Body).Decode(&j)
			ids[i] = j.ID
		}(i)
	}
	wg.Wait()
	for i, id := range ids {
		if id == "" {
			t.Fatalf("submission %d failed", i)
		}
		j := waitJob(t, base, id, 60*time.Second)
		if service.State(j.State) != service.StateDone || j.Verdict != simsweep.Equivalent.String() {
			t.Fatalf("submission %d: state=%s verdict=%q", i, j.State, j.Verdict)
		}
	}
	st := co.Stats()
	if st.Dispatches != 1 {
		t.Fatalf("identical submissions dispatched %d times", st.Dispatches)
	}
	if st.Coalesced+st.FedHits != n-1 {
		t.Fatalf("coalesced=%d fedHits=%d, want sum %d", st.Coalesced, st.FedHits, n-1)
	}
	w.stopGraceful()
}

func TestFederationRejectsUndecidedAndDegraded(t *testing.T) {
	done := func(verdict, node string) service.JobJSON {
		return service.JobJSON{State: string(service.StateDone), Verdict: verdict, Node: node}
	}
	// The index refuses undecided verdicts...
	x := newVerdictIndex(2)
	key := service.Key{Mode: 'p', Lo: 1, Hi: 2}
	x.put(key, done(simsweep.Undecided.String(), ""), "w1")
	if _, ok := x.get(key); ok {
		t.Fatal("undecided verdict entered the index")
	}
	// ...first write wins, so a later conflicting claim cannot flip it...
	x.put(key, done(simsweep.Equivalent.String(), ""), "w1")
	x.put(key, done(simsweep.NotEquivalent.String(), ""), "w2")
	if e, _ := x.get(key); e.rec.Verdict != simsweep.Equivalent.String() || e.rec.Node != "w1" {
		t.Fatalf("index holds %q from %q", e.rec.Verdict, e.rec.Node)
	}
	// ...degraded or non-done worker records never enter it...
	degraded := done(simsweep.Equivalent.String(), "")
	degraded.Degraded = true
	failed := done(simsweep.Equivalent.String(), "")
	failed.State = string(service.StateFailed)
	for i, jj := range []service.JobJSON{degraded, failed} {
		k := service.Key{Mode: 'p', Lo: 3, Hi: uint64(i)}
		x.put(k, jj, "w1")
		if _, ok := x.get(k); ok {
			t.Fatalf("record %+v entered the index", jj)
		}
	}
	// ...and it keeps only its capacity, evicting the least recent.
	x.put(service.Key{Mode: 'm', Lo: 4, Hi: 4}, done(simsweep.Equivalent.String(), ""), "w1")
	x.put(service.Key{Mode: 'm', Lo: 5, Hi: 5}, done(simsweep.Equivalent.String(), ""), "w1")
	if _, ok := x.get(key); ok || x.order.Len() != 2 || x.puts != 3 {
		t.Fatalf("after eviction: %d entries, %d puts, first key kept %v", x.order.Len(), x.puts, ok)
	}
}

func TestClusterMetricsExposition(t *testing.T) {
	circuits(t)
	co, base := startCoordinator(t, Config{})
	w := startWorker(t, base, "w1", 1)
	waitWorkers(t, co, 1, 10*time.Second)
	j, _ := postJob(t, base, pairBody(t, eqA, eqB))
	waitJob(t, base, j.ID, 60*time.Second)

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	for _, want := range []string{
		"cecd_cluster_workers 1",
		"cecd_cluster_pending_jobs 0",
		"cecd_cluster_requeues_total",
		"cecd_cluster_fed_hits_total",
		"cecd_cluster_jobs_total{state=\"done\"} 1",
	} {
		if !bytes.Contains([]byte(body), []byte(want)) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
	w.stopGraceful()
}

// startFakeWorker serves a worker that accepts every job and finishes none
// unless it is cancelled, counting the jobs it was sent.
func startFakeWorker(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	posts := new(atomic.Int64)
	var cancelled sync.Map
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		n := posts.Add(1)
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(service.JobJSON{ID: fmt.Sprintf("f%d", n), State: string(service.StateQueued)})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st := service.StateRunning
		if _, ok := cancelled.Load(r.PathValue("id")); ok {
			st = service.StateCancelled
		}
		json.NewEncoder(w).Encode(service.JobJSON{ID: r.PathValue("id"), State: string(st)})
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		cancelled.Store(r.PathValue("id"), true)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, posts
}

// TestFlappingWorkerChargesOnlyHeldJobs: a worker with one slot that takes
// jobs and never finishes them lets its heartbeat lapse and rejoins, again
// and again, until the job it holds fails on the requeue cap. Each death
// requeues only what the worker's dispatcher held, so the two jobs queued
// behind it are never dispatched or charged, and they settle Done once a
// real worker joins.
func TestFlappingWorkerChargesOnlyHeldJobs(t *testing.T) {
	circuits(t)
	co, base := startCoordinator(t, Config{HeartbeatTimeout: 200 * time.Millisecond, Slots: 1})
	fake, posts := startFakeWorker(t)
	var ids []string
	for i := 0; i < 3; i++ {
		a, b := eqVariant(i)
		j, _ := postJob(t, base, pairBody(t, a, b))
		ids = append(ids, j.ID)
	}

	const lapses = maxRequeues + 1
	for lapse := int64(1); lapse <= lapses; lapse++ {
		// Rejoin and beat until the fresh member's dispatcher has sent
		// its job, then fall silent until the sweeper declares it dead.
		for posts.Load() < lapse {
			if _, err := co.Heartbeat(heartbeatWire{ID: "flap", URL: fake.URL, Ready: true}); err != nil {
				t.Fatal(err)
			}
			time.Sleep(20 * time.Millisecond)
		}
		waitWorkers(t, co, 0, 10*time.Second)
	}

	held := getJob(t, base, ids[0])
	if service.State(held.State) != service.StateFailed ||
		!strings.Contains(held.Error, fmt.Sprintf("requeued %d times", maxRequeues)) {
		t.Fatalf("held job after %d lapses: state=%s err=%q", lapses, held.State, held.Error)
	}
	st := co.Stats()
	if st.Deaths != lapses || st.Dispatches != lapses || st.Requeues != lapses || st.Pending != 2 {
		t.Fatalf("after %d lapses: %d deaths, %d dispatches, %d requeues, %d pending; want %d, %d, %d, 2",
			lapses, st.Deaths, st.Dispatches, st.Requeues, st.Pending, lapses, lapses, lapses)
	}

	w := startWorker(t, base, "w1", 1)
	for _, id := range ids[1:] {
		j := waitJob(t, base, id, 60*time.Second)
		if service.State(j.State) != service.StateDone || j.Verdict != simsweep.Equivalent.String() || j.Node != "w1" {
			t.Fatalf("queued job %s: state=%s verdict=%q node=%q err=%q", id, j.State, j.Verdict, j.Node, j.Error)
		}
	}
	if st := co.Stats(); st.Requeues != lapses {
		t.Fatalf("%d requeues, want %d: a job that was never dispatched was charged", st.Requeues, lapses)
	}
	w.stopGraceful()
}

// TestAdmitMemoKeysByDigest: byte-identical bodies share one admission
// memo entry, and the memo keeps no copy of a body, so admitting 64
// whitespace-padded 1 MiB copies of one pair request grows the heap by far
// less than a single copy.
func TestAdmitMemoKeysByDigest(t *testing.T) {
	circuits(t)
	co := New(Config{})
	defer co.Close()
	body := pairBody(t, eqA, eqB)
	want, err := co.admit(body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.admit(bytes.Clone(body)); err != nil || len(co.memo) != 1 {
		t.Fatalf("identical bodies: %d memo entries (err %v), want 1", len(co.memo), err)
	}

	const copies, size = 64, 1 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < copies; i++ {
		padded := bytes.Repeat([]byte{' '}, size-i)
		copy(padded, body)
		meta, err := co.admit(padded)
		if err != nil || meta.key != want.key {
			t.Fatalf("padded copy %d: key %v (err %v), want %v", i, meta.key, err, want.key)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if len(co.memo) != copies+1 {
		t.Fatalf("%d memo entries, want %d", len(co.memo), copies+1)
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 4<<20 {
		t.Fatalf("admitting %d distinct 1 MiB bodies grew the heap by %.1f MiB", copies, float64(grew)/(1<<20))
	}
}

// TestPromotedFollowerRunsItsOwnRequest: a submission coalesced onto a
// leader that is cancelled while queued is promoted to leader and must run
// from its own request body, not fail on an empty one.
func TestPromotedFollowerRunsItsOwnRequest(t *testing.T) {
	circuits(t)
	co, base := startCoordinator(t, Config{})
	body := pairBody(t, neqA, neqB)
	lead, _ := postJob(t, base, body)
	follower, _ := postJob(t, base, body)
	if _, err := co.Cancel(lead.ID); err != nil {
		t.Fatal(err)
	}
	w := startWorker(t, base, "w1", 1)
	j := waitJob(t, base, follower.ID, 60*time.Second)
	if service.State(j.State) != service.StateDone || j.Verdict != simsweep.NotEquivalent.String() {
		t.Fatalf("promoted follower: state=%s verdict=%q err=%q", j.State, j.Verdict, j.Error)
	}
	w.stopGraceful()
}
