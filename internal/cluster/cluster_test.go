package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"simsweep"
	"simsweep/internal/aig"
	"simsweep/internal/gen"
	"simsweep/internal/opt"
	"simsweep/internal/service"
)

// Shared circuits, built once: a pair the hybrid engine proves in
// milliseconds, a buggy copy, and a pair whose SAT sweep runs for seconds
// (used to pin a worker down while we kill or steal around it).
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
		slowA, slowB, buildErr = mk("multiplier", 8)
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
// a job that runs for seconds, long enough to kill or steal around.
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
// at-most-once guarantee: the "dead" node may still finish and try to
// publish.
type tWorker struct {
	id    string
	svc   *service.Service
	srv   *httptest.Server
	agent *Agent
}

func startWorker(t *testing.T, coURL, id string, k int, fed bool) *tWorker {
	t.Helper()
	cfg := service.Config{MaxConcurrent: k, TotalWorkers: 1}
	if fed {
		cfg.Remote = NewFederatedCache(coURL, id)
	}
	svc := service.New(cfg)
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
		SweepInterval:    100 * time.Millisecond,
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
		workers[id] = startWorker(t, base, id, 1, true)
	}
	waitWorkers(t, co, 3, 10*time.Second)
	if got := readyz(t, base); got != 200 {
		t.Fatalf("readyz with workers = %d", got)
	}

	// The parked job drains to a worker once the ring is populated.
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

	// Byte-identical resubmission: federation hit, settled in the POST.
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
		t.Fatalf("expected >=2 federation hits, got %+v", st)
	}
	for _, w := range workers {
		w.stopGraceful()
	}
}

func TestWorkerSideFederationLookup(t *testing.T) {
	circuits(t)
	co, base := startCoordinator(t, Config{
		HeartbeatTimeout: 500 * time.Millisecond,
		SweepInterval:    100 * time.Millisecond,
	})
	w1 := startWorker(t, base, "w1", 1, true)
	w2 := startWorker(t, base, "w2", 1, true)
	waitWorkers(t, co, 2, 10*time.Second)

	a, b := eqVariant(1)
	body := pairBody(t, a, b)
	j, _ := postJob(t, base, body)
	j = waitJob(t, base, j.ID, 60*time.Second)
	if service.State(j.State) != service.StateDone {
		t.Fatalf("cluster job: %s %q", j.State, j.Error)
	}

	// Submit the same pair directly to the worker that did NOT execute it:
	// its local LRU is cold, so only the federation can answer instantly.
	other := w1
	if j.Node == "w1" {
		other = w2
	}
	dj, status := postJob(t, other.srv.URL, body)
	if status != 200 || !dj.Cached || dj.Verdict != simsweep.Equivalent.String() {
		t.Fatalf("direct submit to %s: HTTP %d cached=%v verdict=%q", other.id, status, dj.Cached, dj.Verdict)
	}
	if st := other.svc.Stats(); st.RemoteHits != 1 {
		t.Fatalf("worker %s remote hits = %d", other.id, st.RemoteHits)
	}
	w1.stopGraceful()
	w2.stopGraceful()
}

func TestWorkerDeathRequeuesWithoutLossOrLies(t *testing.T) {
	circuits(t)
	co, base := startCoordinator(t, Config{
		HeartbeatTimeout: 400 * time.Millisecond,
		SweepInterval:    100 * time.Millisecond,
		Slots:            2,
	})
	w1 := startWorker(t, base, "w1", 1, false)
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

	w2 := startWorker(t, base, "w2", 1, false)
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

func TestWorkStealingDrainsStragglerQueue(t *testing.T) {
	circuits(t)
	co, base := startCoordinator(t, Config{
		HeartbeatTimeout: 2 * time.Second,
		SweepInterval:    200 * time.Millisecond,
		Slots:            1,
	})
	w1 := startWorker(t, base, "w1", 1, false)
	w2 := startWorker(t, base, "w2", 1, false)
	waitWorkers(t, co, 2, 10*time.Second)

	// Occupy one worker's single dispatch slot with a slow job...
	sj, _ := postJob(t, base, pairBodyEngine(t, slowA, slowB, simsweep.EngineSAT))
	deadline := time.Now().Add(30 * time.Second)
	for getJob(t, base, sj.ID).Node == "" {
		if time.Now().After(deadline) {
			t.Fatal("slow job never dispatched")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// ...then submit 12 distinct fast jobs. Roughly half shard to the
	// busy worker, whose only dispatcher is pinned — they can finish
	// quickly only if the idle worker steals them.
	var ids []string
	for i := 0; i < 12; i++ {
		a, b := eqVariant(i)
		j, _ := postJob(t, base, pairBody(t, a, b))
		ids = append(ids, j.ID)
	}
	for _, id := range ids {
		j := waitJob(t, base, id, 60*time.Second)
		if j.Verdict != simsweep.Equivalent.String() {
			t.Fatalf("stolen job %s: verdict=%q state=%s", id, j.Verdict, j.State)
		}
	}
	if st := co.Stats(); st.Steals < 1 {
		t.Fatalf("no steals recorded: %+v", st)
	}

	// Cancel the still-running slow job through the coordinator.
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+sj.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	j := waitJob(t, base, sj.ID, 60*time.Second)
	if st := service.State(j.State); st != service.StateCancelled && st != service.StateDone {
		t.Fatalf("cancelled slow job ended %s", j.State)
	}
	w1.stopGraceful()
	w2.stopGraceful()
}

func TestCoordinatorCoalescesIdenticalSubmissions(t *testing.T) {
	circuits(t)
	co, base := startCoordinator(t, Config{
		HeartbeatTimeout: 2 * time.Second,
		SweepInterval:    200 * time.Millisecond,
	})
	w := startWorker(t, base, "w1", 1, false)
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
	// The index itself refuses undecided verdicts...
	f := newFedCache(4)
	key := service.Key{Mode: 'p', Lo: 1, Hi: 2}
	f.put(key, Verdict{Verdict: simsweep.Undecided.String()})
	if _, _, ok := f.get(key); ok {
		t.Fatal("undecided verdict entered the index")
	}
	// ...first write wins, so a later conflicting claim cannot flip it...
	f.put(key, Verdict{Verdict: simsweep.Equivalent.String(), Node: "w1"})
	f.put(key, Verdict{Verdict: simsweep.NotEquivalent.String(), Node: "w2"})
	if v, _, _ := f.get(key); v.Verdict != simsweep.Equivalent.String() {
		t.Fatalf("index flipped to %q", v.Verdict)
	}
	// ...and degraded or non-done worker records never become verdicts.
	if _, ok := verdictOfJobJSON(service.JobJSON{
		State: "done", Verdict: simsweep.Equivalent.String(), Degraded: true,
	}, "w1"); ok {
		t.Fatal("degraded record federated")
	}
	if _, ok := verdictOfJobJSON(service.JobJSON{
		State: "failed", Verdict: simsweep.Equivalent.String(),
	}, "w1"); ok {
		t.Fatal("failed record federated")
	}
	if _, ok := verdictOfJobJSON(service.JobJSON{
		State: "done", Verdict: simsweep.Equivalent.String(),
	}, "w1"); !ok {
		t.Fatal("clean decided record rejected")
	}

	// The wire endpoint enforces the same rule.
	co, base := startCoordinator(t, Config{})
	_ = co
	put := func(verdict string) int {
		body, _ := json.Marshal(cachePut{Key: key.String(), Verdict: Verdict{Verdict: verdict}})
		req, _ := http.NewRequest(http.MethodPut, base+"/v1/cluster/cache", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if got := put(simsweep.Undecided.String()); got != 400 {
		t.Fatalf("PUT undecided = HTTP %d", got)
	}
	if got := put(simsweep.Equivalent.String()); got != 200 {
		t.Fatalf("PUT decided = HTTP %d", got)
	}
	resp, err := http.Get(base + "/v1/cluster/cache?key=" + key.String())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET federated verdict = HTTP %d", resp.StatusCode)
	}
}

func TestClusterMetricsExposition(t *testing.T) {
	circuits(t)
	co, base := startCoordinator(t, Config{})
	w := startWorker(t, base, "w1", 1, false)
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
		"cecd_cluster_steals_total",
		"cecd_cluster_requeues_total",
		"cecd_cluster_fed_hits_total",
		"cecd_cluster_jobs_total{state=\"done\"} 1",
		fmt.Sprintf("cecd_cluster_queue_depth{node=%q}", "w1"),
	} {
		if !bytes.Contains([]byte(body), []byte(want)) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
	w.stopGraceful()
}
