package main

// End-to-end exercise of the daemon over real HTTP: generated miter jobs
// are submitted to an httptest server running the cecd handler, and the
// test observes queue admission (never more than K running), a cache hit
// on a resubmitted pair, one cancellation via DELETE, one via deadline,
// and verdicts that match direct simsweep checks.

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"simsweep"
	"simsweep/internal/gen"
	"simsweep/internal/service"
)

func b64AIGER(t *testing.T, g *simsweep.AIG) string {
	t.Helper()
	var buf bytes.Buffer
	if err := simsweep.WriteAIGER(&buf, g, true); err != nil {
		t.Fatal(err)
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes())
}

func postJob(t *testing.T, base string, body map[string]interface{}) (service.JobJSON, int) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j service.JobJSON
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatalf("decoding submit response (status %d): %v", resp.StatusCode, err)
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
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
		time.Sleep(5 * time.Millisecond)
	}
}

var runningRe = regexp.MustCompile(`(?m)^cecd_running_jobs (\d+)$`)

func runningJobs(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	m := runningRe.FindSubmatch(buf.Bytes())
	if m == nil {
		t.Fatalf("metrics missing cecd_running_jobs:\n%s", buf.String())
	}
	n, _ := strconv.Atoi(string(m[1]))
	return n
}

func TestDaemonEndToEnd(t *testing.T) {
	const k = 2
	svc := service.New(service.Config{MaxConcurrent: k, TotalWorkers: 4})
	defer svc.Close()
	ts := httptest.NewServer(service.NewHandler(svc))
	defer ts.Close()

	// Liveness first.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()

	// Generated workload. Verdict jobs use distinct equivalent pairs plus
	// one deliberately buggy pair; the cancel and timeout targets use a
	// pair whose SAT sweep runs for seconds, long enough to interrupt:
	// 8-bit array and Booth multipliers, which share no internal structure.
	base, err := simsweep.Generate("multiplier", 6)
	if err != nil {
		t.Fatal(err)
	}
	opt := simsweep.Optimize(base)
	slow, err := gen.Multiplier(8)
	if err != nil {
		t.Fatal(err)
	}
	slowOpt, err := gen.MultiplierBooth(8)
	if err != nil {
		t.Fatal(err)
	}

	variant := func(g *simsweep.AIG, i int) *simsweep.AIG {
		v := g.Copy()
		v.SetPO(i, v.PO(i).Not())
		return v
	}

	type verdictJob struct {
		a, b *simsweep.AIG
		id   string
		want simsweep.Outcome
	}
	var vjobs []verdictJob
	for i := 0; i < 3; i++ {
		// PO i complemented on both sides: still equivalent, structurally
		// distinct per i so each is a genuine (uncached) job.
		vjobs = append(vjobs, verdictJob{a: variant(base, i), b: variant(opt, i)})
	}
	// One buggy pair: complemented PO on one side only.
	vjobs = append(vjobs, verdictJob{a: base, b: variant(opt, 4)})

	// Ground truth from direct in-process checks.
	for i := range vjobs {
		res, err := simsweep.CheckEquivalence(vjobs[i].a, vjobs[i].b, simsweep.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		vjobs[i].want = res.Outcome
	}

	// Occupy both runner slots with slow jobs: one to cancel over HTTP,
	// one to die by its deadline.
	cancelTarget, status := postJob(t, ts.URL, map[string]interface{}{
		"a": b64AIGER(t, slow), "b": b64AIGER(t, slowOpt), "engine": "sat",
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit cancel target: status %d", status)
	}
	timeoutTarget, status := postJob(t, ts.URL, map[string]interface{}{
		"a": b64AIGER(t, variant(slow, 0)), "b": b64AIGER(t, variant(slowOpt, 0)),
		"engine": "sat", "timeout_ms": 150,
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit timeout target: status %d", status)
	}

	// Queue the verdict jobs behind them.
	for i := range vjobs {
		j, status := postJob(t, ts.URL, map[string]interface{}{
			"a": b64AIGER(t, vjobs[i].a), "b": b64AIGER(t, vjobs[i].b),
		})
		if status != http.StatusAccepted {
			t.Fatalf("submit verdict job %d: status %d", i, status)
		}
		vjobs[i].id = j.ID
	}

	// Cancel the first slow job via DELETE once it is demonstrably
	// running (the SAT sweep on the array/Booth pair runs for seconds, so the
	// DELETE lands while it is mid-flight), sampling the admission gauge
	// along the way.
	maxRunning := 0
	sample := func() {
		if n := runningJobs(t, ts.URL); n > maxRunning {
			maxRunning = n
		}
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		sample()
		st := service.State(getJob(t, ts.URL, cancelTarget.ID).State)
		if st == service.StateRunning {
			break
		}
		if st.Terminal() {
			t.Fatalf("cancel target finished (%s) before it could be cancelled", st)
		}
		if time.Now().After(deadline) {
			t.Fatal("cancel target never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+cancelTarget.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d", dresp.StatusCode)
	}

	// Wait for everything while watching the running gauge.
	ids := []string{cancelTarget.ID, timeoutTarget.ID}
	for _, vj := range vjobs {
		ids = append(ids, vj.id)
	}
	for {
		sample()
		done := true
		for _, id := range ids {
			if !service.State(getJob(t, ts.URL, id).State).Terminal() {
				done = false
			}
		}
		if done {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if maxRunning > k {
		t.Fatalf("admission violated: observed %d running jobs, limit %d", maxRunning, k)
	}
	if maxRunning == 0 {
		t.Fatal("never observed a running job; gauge broken?")
	}

	// The DELETEd job is cancelled, the deadlined one timed out.
	if j := getJob(t, ts.URL, cancelTarget.ID); j.State != string(service.StateCancelled) {
		t.Fatalf("cancel target: state=%s", j.State)
	}
	if j := getJob(t, ts.URL, timeoutTarget.ID); j.State != string(service.StateTimeout) {
		t.Fatalf("timeout target: state=%s", j.State)
	}

	// Completed verdicts match the direct checks, counter-example included
	// for the buggy pair.
	for i, vj := range vjobs {
		j := getJob(t, ts.URL, vj.id)
		if j.State != string(service.StateDone) {
			t.Fatalf("verdict job %d: state=%s (%s)", i, j.State, j.Error)
		}
		if j.Verdict != vj.want.String() {
			t.Fatalf("verdict job %d: daemon says %q, direct check says %q", i, j.Verdict, vj.want)
		}
		if vj.want == simsweep.NotEquivalent {
			if len(j.CEX) == 0 {
				t.Fatalf("verdict job %d: NotEquivalent without counter-example", i)
			}
			cex := make([]bool, len(j.CEX))
			for b, v := range j.CEX {
				cex[b] = v == 1
			}
			m, err := simsweep.BuildMiter(vj.a, vj.b)
			if err != nil {
				t.Fatal(err)
			}
			fired := false
			for _, v := range m.Eval(cex) {
				fired = fired || v
			}
			if !fired {
				t.Fatalf("verdict job %d: returned CEX does not fire the miter", i)
			}
		}
	}

	// Resubmitting the first pair hits the cache instantly (status 200,
	// cached flag), as does the argument-swapped pair.
	hit, status := postJob(t, ts.URL, map[string]interface{}{
		"a": b64AIGER(t, vjobs[0].a), "b": b64AIGER(t, vjobs[0].b),
	})
	if status != http.StatusOK || !hit.Cached || hit.State != string(service.StateDone) {
		t.Fatalf("resubmission: status=%d cached=%v state=%s", status, hit.Cached, hit.State)
	}
	swapped, status := postJob(t, ts.URL, map[string]interface{}{
		"a": b64AIGER(t, vjobs[0].b), "b": b64AIGER(t, vjobs[0].a),
	})
	if status != http.StatusOK || !swapped.Cached {
		t.Fatalf("(B, A) resubmission: status=%d cached=%v", status, swapped.Cached)
	}

	// The metrics endpoint accounts for it all.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	mbuf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	metrics := mbuf.String()
	for _, want := range []string{
		"cecd_cache_hits_total 2",
		fmt.Sprintf("cecd_jobs_total{state=%q} %d", "done", len(vjobs)+2),
		"cecd_jobs_total{state=\"cancelled\"} 1",
		"cecd_jobs_total{state=\"timeout\"} 1",
		"cecd_max_concurrent 2",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func TestDaemonRejectsBadRequests(t *testing.T) {
	svc := service.New(service.Config{MaxConcurrent: 1})
	defer svc.Close()
	ts := httptest.NewServer(service.NewHandler(svc))
	defer ts.Close()

	for name, body := range map[string]map[string]interface{}{
		"empty":          {},
		"half a pair":    {"a": "YWFnIDEgMCAwIDEgMAox"},
		"bad base64":     {"a": "!!!", "b": "!!!"},
		"bad aiger":      {"a": base64.StdEncoding.EncodeToString([]byte("nonsense")), "b": base64.StdEncoding.EncodeToString([]byte("nonsense"))},
		"unknown engine": {"miter": "YWFnIDEgMCAwIDEgMAox", "engine": "quantum"},
		"retired engine": {"miter": "YWFnIDEgMCAwIDEgMAox", "engine": "cube"},
		"retired sched":  {"miter": "YWFnIDEgMCAwIDEgMAox", "engine": "sched"},
	} {
		_, status := postJob(t, ts.URL, body)
		if status != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, status)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/zzz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", resp.StatusCode)
	}
}

// TestDaemonAdmitsEveryEngine posts a small equivalent and a small buggy
// miter once per engine of the engine table, each engine on a fresh daemon
// so the verdict cache cannot answer for it: every name must pass
// admission, run that engine and settle with the right verdict.
func TestDaemonAdmitsEveryEngine(t *testing.T) {
	g, err := simsweep.Generate("multiplier", 4)
	if err != nil {
		t.Fatal(err)
	}
	opt := simsweep.Optimize(g)
	bad := opt.Copy()
	bad.SetPO(2, bad.PO(2).Not())
	miters := map[string]string{}
	for verdict, b := range map[string]*simsweep.AIG{"equivalent": opt, "NOT equivalent": bad} {
		m, err := simsweep.BuildMiter(g, b)
		if err != nil {
			t.Fatal(err)
		}
		miters[verdict] = b64AIGER(t, m)
	}

	for _, e := range simsweep.Engines() {
		name := string(e.Name)
		svc := service.New(service.Config{MaxConcurrent: 2, TotalWorkers: 2})
		ts := httptest.NewServer(service.NewHandler(svc))
		for want, m := range miters {
			j, status := postJob(t, ts.URL, map[string]interface{}{"miter": m, "engine": name})
			if status != http.StatusAccepted {
				t.Fatalf("%s: submit status %d (%s)", name, status, j.Error)
			}
			done := waitJob(t, ts.URL, j.ID, 30*time.Second)
			if done.State != string(service.StateDone) || done.Verdict != want {
				t.Fatalf("%s: state=%s verdict=%q, want %q (%s)", name, done.State, done.Verdict, want, done.Error)
			}
			if done.Engine != name || !strings.HasPrefix(done.EngineUsed, name) {
				t.Fatalf("%s: job ran engine %q (engine_used %q)", name, done.Engine, done.EngineUsed)
			}
		}
		ts.Close()
		svc.Close()
	}
}

// TestDaemonTracedJob submits a traced job over HTTP, fetches its Chrome
// trace from /v1/jobs/{id}/trace, and checks both the JSON shape and the
// histogram metrics the run must have populated.
func TestDaemonTracedJob(t *testing.T) {
	svc := service.New(service.Config{MaxConcurrent: 1, TotalWorkers: 2})
	defer svc.Close()
	ts := httptest.NewServer(service.NewHandler(svc))
	defer ts.Close()

	g, err := simsweep.Generate("multiplier", 6)
	if err != nil {
		t.Fatal(err)
	}
	o := simsweep.Optimize(g)

	// Traced submission via the query parameter.
	raw, _ := json.Marshal(map[string]interface{}{
		"a": b64AIGER(t, g), "b": b64AIGER(t, o),
	})
	resp, err := http.Post(ts.URL+"/v1/jobs?trace=1", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var sub service.JobJSON
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	// While the job is still running, the trace endpoint must not 200.
	// (Checked only if the job is demonstrably unfinished afterwards, so a
	// fast job cannot make this racy.)
	if r, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/trace"); err == nil {
		stillRunning := !service.State(getJob(t, ts.URL, sub.ID).State).Terminal()
		if stillRunning && r.StatusCode == http.StatusOK {
			t.Fatalf("trace endpoint returned 200 for unfinished job")
		}
		r.Body.Close()
	}

	j := waitJob(t, ts.URL, sub.ID, 30*time.Second)
	if j.State != string(service.StateDone) {
		t.Fatalf("job state = %s (%s)", j.State, j.Error)
	}
	if !j.Traced {
		t.Fatal("finished job not marked traced")
	}

	tresp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: status %d", tresp.StatusCode)
	}
	if ct := tresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("trace content type = %q", ct)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(tresp.Body).Decode(&chrome); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	cats := map[string]bool{}
	for _, e := range chrome.TraceEvents {
		cats[e.Cat] = true
	}
	for _, want := range []string{"engine", "phase", "sim"} {
		if !cats[want] {
			t.Fatalf("trace missing category %q (got %v)", want, cats)
		}
	}

	// An untraced job yields 404 from the trace endpoint after finishing.
	plain, status := postJob(t, ts.URL, map[string]interface{}{
		"a": b64AIGER(t, o), "b": b64AIGER(t, g), // swapped: cache hit, no trace
	})
	if status != http.StatusOK {
		t.Fatalf("cache-hit submit: status %d", status)
	}
	nresp, err := http.Get(ts.URL + "/v1/jobs/" + plain.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Fatalf("untraced trace fetch: status %d, want 404", nresp.StatusCode)
	}

	// The run populated the new histograms.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	mbuf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	metrics := mbuf.String()
	for _, want := range []string{
		`cecd_phase_duration_seconds_bucket{kind="P",le="+Inf"}`,
		"cecd_kernel_launch_items_bucket",
		"cecd_queue_wait_seconds_count 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
	var phaseCount int
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, `cecd_phase_duration_seconds_count{kind="P"}`) {
			fmt.Sscanf(line, `cecd_phase_duration_seconds_count{kind="P"} %d`, &phaseCount)
		}
	}
	if phaseCount < 1 {
		t.Fatalf("phase duration histogram empty:\n%s", metrics)
	}
}
