package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"simsweep"
	"simsweep/internal/service"
)

// TestMain lets the test binary serve as the engine child the workloads
// spawn (os.Executable is the test binary under go test).
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == childArg {
		if err := runChild(os.Stdin, os.Stdout); err != nil {
			os.Stderr.WriteString("ledger child: " + err.Error() + "\n")
			os.Exit(2)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 1.2, 7.7, 4.4}, 1.675, 6.875},
		{[]float64{5, 1}, 0, 6},
		{[]float64{2, 9, 4}, 2, 9},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := relIQR([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("relIQR = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n        int
		pct, val float64
		ok       bool
	}{
		{1000, 99, 990, true},
		{999, 99, 0, false}, // only 9 samples beyond p99
		{999, 90, 900, true},
		{100, 90, 90, true},
		{99, 90, 0, false},
		{40, 75, 30, true},
		{10000, 99.9, 9990, true}, // 99.9% of 10000 is not rounded up past 9990
	}
	for _, c := range cases {
		val, ok := tailAt(seq(c.n), c.pct)
		if ok != c.ok || ok && val != c.val {
			t.Errorf("tailAt(n=%d, p%v) = %v %v; want %v %v", c.n, c.pct, val, ok, c.val, c.ok)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); !near(got, 10) {
		t.Errorf("geomean = %v, want 10", got)
	}
	for _, xs := range [][]float64{nil, {1, 0}, {2, -1}} {
		if got := geomean(xs); !math.IsNaN(got) {
			t.Errorf("geomean(%v) = %v, want NaN", xs, got)
		}
	}
}

// TestLatencyFromDueTime pins the open-loop rule: latency runs from when
// the job was due, so time spent waiting for the generator or a free
// connection counts, and a failed job misses every limit.
func TestLatencyFromDueTime(t *testing.T) {
	due := time.Unix(100, 0)
	s := &svcSample{
		job: &svcJob{Expect: simsweep.Equivalent}, due: due, issued: due.Add(3 * time.Millisecond),
		sent: due.Add(5 * time.Millisecond), done: due.Add(9 * time.Millisecond),
		status: http.StatusOK,
		jj:     service.JobJSON{State: "done", Verdict: "equivalent"},
	}
	if got := s.latency(); !near(got, 9) {
		t.Errorf("latency = %v ms, want 9 (from due, not from send)", got)
	}
	s.jj.Verdict = "undecided"
	if got := s.latency(); !math.IsInf(got, 1) {
		t.Errorf("failed job latency = %v, want +Inf", got)
	}
}

// TestOpenLoopCountsQueueingBeforeSend drives the open loop against a stub
// service that answers after 20 ms: with two connections, jobs due every
// millisecond wait for a connection, and their latency must include that
// wait.
func TestOpenLoopCountsQueueingBeforeSend(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
		json.NewEncoder(w).Encode(service.JobJSON{ID: "j", State: "done", Verdict: "equivalent"})
	}))
	defer srv.Close()
	c := newSvcClient(srv.URL)
	jobs := make([]*svcJob, 8)
	for i := range jobs {
		jobs[i] = &svcJob{Idx: i, Body: []byte("{}")}
	}
	samples := c.openLoop(jobs, 1000, 0)
	last := samples[len(samples)-1]
	if last.err != "" {
		t.Fatal(last.err)
	}
	rtt := ms(last.done.Sub(last.sent))
	if lat := last.latency(); lat < 60 || lat < rtt+40 {
		t.Errorf("last job latency %.1f ms, round trip %.1f ms: queueing before the send was not counted", lat, rtt)
	}
}

// TestEngineTimings pins the engine workloads' timing rules: the latency
// is the geometric mean of the per-instance medians, the tail the same
// over the slower half of the instances (rounded up), the throughput the
// instances per median pass, and the normalised metrics are the raw ones
// at the run's reference speed.
func TestEngineTimings(t *testing.T) {
	r := &engineResult{
		// Three instances over three passes, with medians 20, 60 and 40 ms.
		Samples: []checkSample{
			{0, 0.010}, {1, 0.040}, {2, 0.040},
			{0, 0.020}, {1, 0.080}, {2, 0.035},
			{0, 0.030}, {1, 0.060}, {2, 0.045},
		},
		PassS: []float64{0.050, 0.100, 0.090},
	}
	m := make(map[string]metric)
	r.timings(m, rawTimings, 3, 1)
	r.timings(m, normTimings, 3, 0.5) // a run on a machine twice as slow as the reference
	want := map[string]float64{
		"latency_ms":            math.Cbrt(20 * 60 * 40), // geomean of the instance medians
		"latency_tail_ms":       math.Sqrt(60 * 40),      // geomean of the slower two
		"throughput_per_s":      3 / 0.090,               // three instances per median pass
		"latency_norm_ms":       math.Cbrt(20*60*40) / 2,
		"latency_tail_norm_ms":  math.Sqrt(60*40) / 2,
		"throughput_norm_per_s": 3 / 0.045,
	}
	for name, v := range want {
		if got := m[name].Value; got == nil || !near(*got, v) {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
}

// TestServiceTimings pins the service's timing rules: each metric is the
// median over segments of one number per segment, taken over the segments
// the host took the least CPU time from; the latency is a segment's median
// open-loop latency, the tail that of its medium jobs (a resubmitted medium
// job does not count), the throughput a closed-loop segment's answers per
// second.
func TestServiceTimings(t *testing.T) {
	due := time.Unix(100, 0)
	sample := func(kind string, latMS float64) *svcSample {
		return &svcSample{
			job: &svcJob{Kind: kind, Expect: simsweep.Equivalent},
			due: due, done: due.Add(time.Duration(latMS * 1e6)), status: http.StatusOK,
			jj: service.JobJSON{State: "done", Verdict: "equivalent"},
		}
	}
	open := func(steal float64, lats ...float64) segment {
		s := segment{steal: steal}
		for i, l := range lats {
			kind := "tiny"
			switch i {
			case 3:
				kind = "medium"
			case 4:
				kind = "resubmit"
			}
			s.samples = append(s.samples, sample(kind, l))
		}
		return s
	}
	segs := []segment{
		open(0, 1, 2, 3, 10, 1),                            // median 2, medium 10
		open(0.01, 2, 3, 4, 30),                            // median 3.5, medium 30
		open(0.2, 50, 60, 70, 100),                         // the host took a fifth: left out
		{closed: true, length: time.Second, answered: 900}, // steal 0
		{closed: true, length: 2 * time.Second, answered: 2200, steal: 0.01},
		{closed: true, length: time.Second, answered: 100, steal: 0.3}, // left out
	}
	m := make(map[string]metric)
	svcTimings(m, rawTimings, segs, 1)
	svcTimings(m, normTimings, segs, 0.5)
	want := map[string]float64{
		"latency_ms": 2.75, "latency_tail_ms": 20, "throughput_per_s": 1000,
		"latency_norm_ms": 1.375, "latency_tail_norm_ms": 10, "throughput_norm_per_s": 2000,
	}
	for name, v := range want {
		if got := m[name].Value; got == nil || !near(*got, v) {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
}

func TestFirstPollPhasesSpreadOverOneDoubling(t *testing.T) {
	var below int
	for idx := 0; idx < 1000; idx++ {
		d := firstPoll(idx)
		if d < svcFirstPoll || d >= 2*svcFirstPoll {
			t.Fatalf("firstPoll(%d) = %v, want within [%v, %v)", idx, d, svcFirstPoll, 2*svcFirstPoll)
		}
		if d < svcFirstPoll*3/2 {
			below++
		}
	}
	// log2(1.5) of the phases lie below 1.5 × svcFirstPoll.
	if want := 1000 * math.Log2(1.5); math.Abs(float64(below)-want) > 10 {
		t.Errorf("%d of 1000 first polls below 1.5× svcFirstPoll, want about %.0f", below, want)
	}
}

// TestResidualArithmetic checks that the layer accumulator's residual is
// the check wall time no layer accounts for.
func TestResidualArithmetic(t *testing.T) {
	acc := newLayerAcc()
	acc.addSpans([]span{
		{Name: "ledger.read", Cat: ledgerCat, MS: 10},
		{Name: "ledger.miter", Cat: ledgerCat, MS: 5},
		{Name: "ledger.engine", Cat: ledgerCat, MS: 83},
		{Name: "core.check", Cat: "engine", MS: 70, Args: map[string]int64{"words_simulated": 64}},
		{Name: "P", Cat: "phase", MS: 40, Args: map[string]int64{"checked": 7}},
		{Name: "G", Cat: "phase", MS: 5},
		{Name: "L", Cat: "phase", MS: 20},
		{Name: "sat.pair", Cat: "sat", MS: 3, Args: map[string]int64{"conflicts": 4, "status": 1}},
	})
	acc.addCheck(100*time.Millisecond, 10*time.Millisecond, 50)
	m := acc.metrics()
	// 100 ms of wall: 10 read + 5 miter + 83 CheckMiter, which holds 70 of
	// core engine and 10 of SAT sweep.
	want := map[string]float64{
		"simsweep.residual_frac": 0.02, "simsweep.other_ms": 3, "core.other_ms": 5, "core.p_ms": 40, "core.pairs_checked": 7,
		"core.words_simulated": 64, "sat.calls": 1, "sat.conflicts": 4, "sat.useful_frac": 1, "check.wall_ms": 100,
	}
	for name, v := range want {
		if got := m[name].Value; got == nil || !near(*got, v) {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
}

func TestJudge(t *testing.T) {
	tight := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		name        string
		base, head  []float64
		lowerBetter bool
		want        string
	}{
		{"same", tight, []float64{100, 100, 101, 99, 100}, true, verdictOK},
		{"slower beyond bound", tight, []float64{115, 116, 114, 115, 115}, true, verdictRegression},
		{"faster", tight, []float64{80, 81, 79, 80, 80}, true, verdictOK},
		{"throughput drop", tight, []float64{85, 86, 84, 85, 85}, false, verdictRegression},
		{"wide overlapping spread", []float64{80, 120, 100, 90, 110}, []float64{85, 125, 105, 95, 115}, true, verdictUnresolved},
		{"wide but every run worse", []float64{80, 100, 90, 85, 95}, []float64{130, 150, 140, 135, 145}, true, verdictRegression},
		{"wide but every run better", []float64{130, 150, 140, 135, 145}, []float64{80, 100, 90, 85, 95}, true, verdictOK},
	}
	for _, c := range cases {
		if got, _ := judge(c.base, c.head, c.lowerBetter, 0.10); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := readJSON("../../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q vs %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	if len(spec.EndToEnd) != len(gatedMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the command %d", len(spec.EndToEnd), len(gatedMetrics))
	}
	for i, g := range gatedMetrics {
		e := spec.EndToEnd[i]
		if e.Name != g.Name || e.Unit != g.Unit || e.Better != g.Better {
			t.Errorf("end_to_end %d: %+v vs %+v", i, e, g)
		}
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the command %d", len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, l := range perLayerMetrics {
		if spec.PerLayer[i].Name != l.Name || spec.PerLayer[i].Unit != l.Unit {
			t.Errorf("per_layer %d: %+v vs %+v", i, spec.PerLayer[i], l)
		}
	}
}

// inProcess starts the service handler in this process behind httptest.
// Its ring keeps the daemon's default 256 finished jobs, so a job trace
// fetched long after the job finished is gone.
func inProcess() (target, error) {
	svc := service.New(service.Config{MaxConcurrent: svcJobs, TotalWorkers: svcWorkers, RingSize: 256})
	srv := httptest.NewServer(service.NewHandler(svc))
	return target{base: srv.URL, stop: func() error { srv.Close(); svc.Close(); return nil }}, nil
}

// smokeWorkloads are the benchmark's workloads on smaller instance sets,
// so every code path runs in a few seconds.
var smokeWorkloads = []workload{
	engineWorkload("datapath", []family{{Name: "multiplier", Scale: 4}, {Name: "voter", Scale: 1, Double: 1}}, false),
	engineWorkload("control", []family{{Name: "ac97", Words: 2}}, false),
	engineWorkload("bughunt", []family{{Name: "square", Scale: 4}}, true),
	{name: "service"},
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that every verdict is right, every reported metric was measured and every
// traced service job's layers were read. An in-process service has no
// resident set of its own.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes and a service")
	}
	for _, w := range smokeWorkloads {
		for _, traced := range []bool{false, true} {
			rep, err := run(w, runOpts{seed: 7, seconds: 0.4, trace: traced, startService: inProcess})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			line, err := resultLine(rep)
			if err != nil {
				t.Fatal(err)
			}
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct{ Value *float64 }
			}
			if err := json.Unmarshal(line, &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct %v attempted %d failed %d: %v", w.name, traced, res.Correct, res.Attempted, res.Failed, rep.Notes)
			}
			for name, m := range res.Metrics {
				if m.Value == nil && !(w.instances == nil && name == "peak_rss_mb") {
					t.Errorf("%s traced=%v: %s not measured", w.name, traced, name)
				}
			}
			// Every check launches a simulation kernel, inline on the
			// service's one-worker job devices too.
			if ex, pl := res.Metrics["par.exhaustive_window.launches"].Value, res.Metrics["par.partial_level.launches"].Value; traced && (ex == nil || pl == nil || *ex+*pl == 0) {
				t.Errorf("%s traced: no kernel launches read", w.name)
			}
			for _, n := range rep.Notes {
				if strings.Contains(n, "layers:") {
					t.Errorf("%s traced=%v: %s", w.name, traced, n)
				}
			}
		}
	}
}
