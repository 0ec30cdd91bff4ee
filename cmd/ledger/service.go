package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"simsweep"
	"simsweep/internal/aig"
	"simsweep/internal/difftest"
	"simsweep/internal/service"
	"simsweep/internal/trace"
)

// The service workload drives one cecd process over loopback HTTP from
// this process, the single load generator, in segments (svcClient.segments):
// open-loop segments at a fixed rate of reference time, interleaved with
// closed-loop segments of two clients. Every cold job applies a fresh PI
// permutation to both sides of its pair, so its fingerprint is new while its
// work stays the same; resubmitted jobs exercise the cache.
const (
	// svcRate is the open-loop arrival rate in jobs per second at the
	// reference speed, about half the closed-loop throughput at that speed
	// (see README).
	svcRate = 600.0
	// svcClosedEvery: every svcClosedEvery-th segment of a run is closed
	// loop, the others open loop.
	svcClosedEvery = 3
	// The client polls an outstanding job first after 1 to 2 times
	// svcFirstPoll (firstPoll), then at doubling intervals up to svcPoll. A
	// fixed 5 ms poll hid the service: every tiny job then read 5 ms plus
	// one round trip, whatever the engine and the front door did.
	svcFirstPoll = 250 * time.Microsecond
	svcPoll      = 5 * time.Millisecond
	// svcConns bounds the client's connections, svcClients the closed-loop
	// callers; both equal the machine's two cores the workload was sized on.
	svcConns   = 2
	svcClients = 2
	// cecd runs svcJobs jobs at once and shares svcWorkers device workers
	// among them, so each job runs on a device of svcJobWorkers workers.
	svcJobs       = 2
	svcWorkers    = 2
	svcJobWorkers = svcWorkers / svcJobs
	// svcResubmitWindow is how far back a resubmission reaches (svcBlock).
	svcResubmitWindow = 200
	// svcTraceEvery: in a traced run every svcTraceEvery-th job asks cecd
	// for an execution trace.
	svcTraceEvery = 10
	// svcSetupStarts is how many times set-up is timed per run; the last
	// daemon started serves the run.
	svcSetupStarts = 15
	// svcTailPct is the open-loop latency percentile reported next to the
	// gated metrics: a 25 s run has several thousand open-loop samples, so
	// more than ten lie beyond it.
	svcTailPct = 99
	// svcGoodputLimit is the latency within which an answer counts as good.
	svcGoodputLimit = time.Second
	// svcMaxOutstanding caps the open-loop jobs in flight; a job due while
	// the cap is reached is counted as refused.
	svcMaxOutstanding = 512
	// svcJobLimit abandons a job that has not finished after this long.
	svcJobLimit = 30 * time.Second
)

// svcPair is one job kind of the mix: two circuits and the known verdict.
type svcPair struct {
	Name   string
	A, B   *aig.AIG
	Expect simsweep.Outcome
}

// svcMix holds the pairs cold jobs are drawn from.
type svcMix struct {
	tinyEQ, tinyNEQ, medium []svcPair
}

// archPairs are tiny EQ pairs of two architectures of one function. The
// adders stop at 8 bits: ripple vs Kogge-Stone at 12 and 16 bits takes
// 116 and 268 ms per check, not a tiny job.
var archPairs = []struct {
	a, b  string
	scale int
}{
	{"adder", "ksadder", 6},
	{"adder", "ksadder", 8},
	{"multiplier", "boothmul", 5},
	{"multiplier", "boothmul", 6},
}

// tinyFamilies and mediumFamilies are checked against their resyn2 selves.
// The medium jobs take 8–15 ms each on an idle device. The multiplier is
// 7 bits wide because at 8 it took twice as long as the other two and the
// open-loop p99 fell on the edge of its latency distribution; the ac97
// fabric is 4 words wide because at 6 words it takes about 1 s per check.
var (
	tinyFamilies = []family{
		{Name: "barrel", Scale: 8}, {Name: "voter", Scale: 1}, {Name: "voter", Scale: 2},
		{Name: "alu", Scale: 4}, {Name: "hyp", Scale: 4}, {Name: "sqrt", Scale: 10},
		{Name: "square", Scale: 6}, {Name: "log2", Scale: 8},
	}
	mediumFamilies = []family{
		{Name: "multiplier", Scale: 7, Double: 1}, {Name: "hyp", Scale: 6, Double: 1},
		{Name: "ac97", Words: 4},
	}
)

// theMix generates the mix once per process; jobs only read its pairs.
var theMix = sync.OnceValues(buildMix)

// buildMix generates the pairs of the mix. NEQ pairs are witnessed mutants
// of the tiny pairs' second sides, one per mutator.
func buildMix() (svcMix, error) {
	var mix svcMix
	for _, p := range archPairs {
		a, err := simsweep.Generate(p.a, p.scale)
		if err != nil {
			return mix, err
		}
		b, err := simsweep.Generate(p.b, p.scale)
		if err != nil {
			return mix, err
		}
		mix.tinyEQ = append(mix.tinyEQ, svcPair{Name: fmt.Sprintf("%s-%d/%s", p.a, p.scale, p.b), A: a, B: b, Expect: simsweep.Equivalent})
	}
	for _, f := range tinyFamilies {
		g, err := f.build()
		if err != nil {
			return mix, err
		}
		mix.tinyEQ = append(mix.tinyEQ, svcPair{Name: f.String(), A: g, B: simsweep.Optimize(g), Expect: simsweep.Equivalent})
	}
	for _, f := range mediumFamilies {
		g, err := f.build()
		if err != nil {
			return mix, err
		}
		mix.medium = append(mix.medium, svcPair{Name: f.String(), A: g, B: simsweep.Optimize(g), Expect: simsweep.Equivalent})
	}
	muts := difftest.Mutators()
	for pi, p := range mix.tinyEQ {
		for mi := range muts {
			mut, name, err := witnessedMutant(p.A, p.B, muts, mi, int64(pi*len(muts)+mi))
			if err != nil {
				return mix, fmt.Errorf("%s: %w", p.Name, err)
			}
			mix.tinyNEQ = append(mix.tinyNEQ, svcPair{Name: p.Name + "/" + name, A: p.A, B: mut, Expect: simsweep.NotEquivalent})
		}
	}
	return mix, nil
}

// svcJob is one submission: the permuted circuits (kept for replaying a
// counter-example), their binary AIGER and the POST body.
type svcJob struct {
	Idx        int
	Kind       string // tiny, neq, medium or resubmit
	Pair       string
	A, B       *aig.AIG
	RawA, RawB []byte
	Body       []byte
	Expect     simsweep.Outcome
}

// svcBlock is the make-up of every block of 25 consecutive submissions:
// 20% resubmit one of the previous svcResubmitWindow jobs; the cold jobs
// are 70% tiny EQ, 25% tiny NEQ and 5% medium EQ pairs. The seed shuffles
// each block and deals the pairs of each kind from shuffled decks, so every
// seed gives new jobs but the same amount of work. Blocks are this short so
// that medium jobs cannot bunch up: in blocks of 100 the spread of the
// open-loop p99, which the medium jobs and the jobs queued behind them set,
// was 0.14 over ten runs; in blocks of 25 it is 0.08.
var svcBlock = []struct {
	kind string
	n    int
}{{"resubmit", 5}, {"tiny", 14}, {"neq", 5}, {"medium", 1}}

// jobStream draws the seeded job sequence. Safe for concurrent use.
type jobStream struct {
	mu    sync.Mutex
	rng   *rand.Rand
	pools map[string][]svcPair
	decks map[string][]int // pool indices still to deal, per kind
	block []string         // kinds still to come in the current block
	jobs  []*svcJob
	keys  map[[2]uint64]bool
}

func newJobStream(mix svcMix, seed int64) *jobStream {
	return &jobStream{
		rng:   rand.New(rand.NewSource(seed)),
		pools: map[string][]svcPair{"tiny": mix.tinyEQ, "neq": mix.tinyNEQ, "medium": mix.medium},
		decks: make(map[string][]int),
		keys:  make(map[[2]uint64]bool),
	}
}

// freshTries bounds the permutations drawn for a cold job whose
// fingerprint pair was already used (a symmetric circuit maps many
// permutations to one structure).
const freshTries = 8

// next returns the next job of the sequence.
func (s *jobStream) next() *svcJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.block) == 0 {
		for _, b := range svcBlock {
			for i := 0; i < b.n; i++ {
				s.block = append(s.block, b.kind)
			}
		}
		s.rng.Shuffle(len(s.block), func(i, k int) { s.block[i], s.block[k] = s.block[k], s.block[i] })
	}
	kind := s.block[0]
	s.block = s.block[1:]
	j := &svcJob{Idx: len(s.jobs), Kind: kind}
	if kind == "resubmit" {
		if len(s.jobs) == 0 {
			j.Kind = "tiny" // nothing to resubmit yet
		} else {
			lo := max(0, len(s.jobs)-svcResubmitWindow)
			prev := s.jobs[lo+s.rng.Intn(len(s.jobs)-lo)]
			*j = *prev
			j.Idx, j.Kind = len(s.jobs), kind
			s.jobs = append(s.jobs, j)
			return j
		}
	}
	pool := s.pools[j.Kind]
	if len(s.decks[j.Kind]) == 0 {
		s.decks[j.Kind] = s.rng.Perm(len(pool))
	}
	p := pool[s.decks[j.Kind][0]]
	s.decks[j.Kind] = s.decks[j.Kind][1:]
	for try := 0; ; try++ {
		j.A, j.B = permuted(p.A, p.B, s.rng)
		fa, fb := j.A.Fingerprint(), j.B.Fingerprint()
		if fa > fb {
			fa, fb = fb, fa
		}
		if key := [2]uint64{fa, fb}; !s.keys[key] || try == freshTries {
			s.keys[key] = true
			break
		}
	}
	j.Pair, j.Expect = p.Name, p.Expect
	j.RawA, j.RawB = encode(j.A), encode(j.B)
	body, err := json.Marshal(service.JobRequest{
		A: base64.StdEncoding.EncodeToString(j.RawA),
		B: base64.StdEncoding.EncodeToString(j.RawB),
	})
	if err != nil {
		panic(fmt.Sprintf("ledger: marshal job: %v", err)) // plain strings always marshal
	}
	j.Body = body
	s.jobs = append(s.jobs, j)
	return j
}

// svcSample is one job as the client saw it, with the server's record.
type svcSample struct {
	job    *svcJob
	traced bool

	// Client clock: when the job was due, when the generator issued it (its
	// lateness is the generator's lag), when the POST went out and came
	// back, and when the verdict was in hand.
	due, issued, sent, resp, done time.Time
	status                        int
	jj                            service.JobJSON
	err                           string
	// trace is a traced job's execution trace, fetched as soon as its
	// verdict is in hand, before the daemon's ring of finished jobs drops
	// it; traceErr is why it is missing.
	trace    []byte
	traceErr error
}

// serverTimes parses the job record's created/started/finished stamps.
func (s *svcSample) serverTimes() (created, started, finished time.Time, ok bool) {
	var err1, err2, err3 error
	created, err1 = time.Parse(time.RFC3339Nano, s.jj.Created)
	started, err2 = time.Parse(time.RFC3339Nano, s.jj.Started)
	finished, err3 = time.Parse(time.RFC3339Nano, s.jj.Finished)
	return created, started, finished, err1 == nil && err2 == nil && err3 == nil
}

// refused reports a submission the service (or the generator's own
// outstanding-job cap) turned away.
func (s *svcSample) refused() bool {
	return s.status == http.StatusTooManyRequests || s.err == errGeneratorCap
}

// errGeneratorCap marks an open-loop job dropped at the outstanding cap.
const errGeneratorCap = "generator: outstanding-job cap reached"

// verify checks the sample against the known answer: failed covers errors,
// refusals and undecided or unfinished jobs; wrong covers a verdict that
// contradicts the known answer and a counter-example that does not replay
// on both circuits.
func (s *svcSample) verify() (failed, wrong bool, why string) {
	switch {
	case s.err != "":
		return true, false, s.err
	case s.refused():
		return true, false, "refused (429)"
	case s.jj.State != string(service.StateDone):
		return true, false, "job " + s.jj.State + " " + s.jj.Error
	}
	var got simsweep.Outcome
	switch s.jj.Verdict {
	case simsweep.Equivalent.String():
		got = simsweep.Equivalent
	case simsweep.NotEquivalent.String():
		got = simsweep.NotEquivalent
	default:
		return true, false, "verdict " + s.jj.Verdict
	}
	if got != s.job.Expect {
		return true, true, fmt.Sprintf("WRONG verdict %v, want %v", got, s.job.Expect)
	}
	if got == simsweep.NotEquivalent {
		cex := make([]bool, len(s.jj.CEX))
		for i, v := range s.jj.CEX {
			cex[i] = v != 0
		}
		if !differs(s.job.A, s.job.B, cex) {
			return true, true, "counter-example does not replay"
		}
	}
	return false, false, ""
}

// latency is the time from when the job was due to the verdict in the
// client's hands; a failed job counts as missing every limit.
func (s *svcSample) latency() float64 {
	if failed, _, _ := s.verify(); failed {
		return math.Inf(1)
	}
	return ms(s.done.Sub(s.due))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// preciseSleep blocks the calling goroutine for d on the kernel's
// high-resolution timer. The Go runtime's timers fired up to 1.1 ms late on
// the calibration machine, which would have made the generator late by
// half a millisecond on average and rounded every poll up to a millisecond.
func preciseSleep(d time.Duration) {
	end := time.Now().Add(d)
	for d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		if syscall.Nanosleep(&ts, nil) == nil {
			return
		}
		d = time.Until(end) // interrupted by a signal: sleep the rest
	}
}

// generatorThread locks the calling goroutine to its OS thread and gives the
// thread a raised priority and a 1 ns timer slack. On two cores the service
// under test otherwise delayed the generator's wake-ups by up to 2 ms at the
// p99 and the default 50 µs slack added to every one. The caller's goroutine
// must exit without unlocking, so that the thread ends with it. The
// priority needs CAP_SYS_NICE; without it the error is returned and the
// schedule runs at normal priority.
func generatorThread() error {
	runtime.LockOSThread()
	const prSetTimerSlack = 29 // PR_SET_TIMERSLACK from linux/prctl.h
	if _, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0); errno != 0 {
		return fmt.Errorf("timer slack: %w", errno)
	}
	if err := syscall.Setpriority(syscall.PRIO_PROCESS, syscall.Gettid(), -10); err != nil {
		return fmt.Errorf("raise priority: %w", err)
	}
	return nil
}

// svcClient submits and polls jobs over at most svcConns connections.
type svcClient struct {
	base string
	hc   *http.Client
	tr   *trace.Tracer // client spans of traced jobs; nil when untraced
	// genErr is why the last open loop's generator thread runs without its
	// raised priority or timer slack; nil when it has both.
	genErr error
}

func newSvcClient(base string) *svcClient {
	return &svcClient{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: svcConns, MaxIdleConnsPerHost: svcConns, DisableCompression: true},
		Timeout:   svcJobLimit,
	}}
}

// getJSON issues a request and decodes a JobJSON reply.
func (c *svcClient) getJSON(req *http.Request, into *service.JobJSON) (int, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, into); err != nil {
			return resp.StatusCode, fmt.Errorf("decode job: %w", err)
		}
	}
	return resp.StatusCode, nil
}

// firstPoll is the wait before the first poll of job idx: svcFirstPoll
// times 2^u, with u spread evenly over [0, 1) by the golden-ratio sequence.
// The waits then double, so the poll times of a job are a geometric series
// at a phase of its own. With one fixed series every tiny job was answered
// at one of two or three poll times, and the median latency jumped from one
// to the next as the machine's speed changed; spread over all phases, it
// moves smoothly with the service's speed.
func firstPoll(idx int) time.Duration {
	const phi = 0.6180339887498949 // (√5 − 1) / 2
	_, u := math.Modf(float64(idx) * phi)
	return time.Duration(float64(svcFirstPoll) * math.Exp2(u))
}

// do submits one job and polls it until it is terminal.
func (c *svcClient) do(s *svcSample) {
	url := c.base + "/v1/jobs"
	var buf *trace.Buf
	if s.traced {
		url += "?trace=1"
		buf = c.tr.Buf(2000 + int32(s.job.Idx))
	}
	sp := buf.Begin(ledgerCat, "ledger.submit")
	s.sent = time.Now()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(s.job.Body))
	if err != nil {
		s.err = err.Error()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	s.status, err = c.getJSON(req, &s.jj)
	s.resp = time.Now()
	sp.End()
	s.done = s.resp
	switch {
	case err != nil:
		s.err = err.Error()
		return
	case s.status == http.StatusOK || s.status == http.StatusTooManyRequests:
		return
	case s.status != http.StatusAccepted:
		s.err = "submit: HTTP " + strconv.Itoa(s.status)
		return
	}
	id := s.jj.ID
	for wait := firstPoll(s.job.Idx); !service.State(s.jj.State).Terminal(); wait = min(2*wait, svcPoll) {
		if time.Since(s.sent) > svcJobLimit {
			s.err = "job " + id + " unfinished after " + svcJobLimit.String()
			return
		}
		preciseSleep(wait)
		sp := buf.Begin(ledgerCat, "ledger.poll")
		req, err := http.NewRequest(http.MethodGet, c.base+"/v1/jobs/"+id, nil)
		if err != nil {
			s.err = err.Error()
			return
		}
		st, err := c.getJSON(req, &s.jj)
		sp.End()
		if err != nil || st != http.StatusOK {
			s.err = fmt.Sprintf("poll %s: HTTP %d %v", id, st, err)
			return
		}
	}
	s.done = time.Now()
	if s.jj.Traced {
		s.trace, s.traceErr = c.jobTrace(id)
	}
}

// jobTrace fetches a finished job's execution trace.
func (c *svcClient) jobTrace(id string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/trace")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	if err != nil {
		return nil, fmt.Errorf("job trace %s: %w", id, err)
	}
	return data, nil
}

// openLoop sends jobs at rate regardless of how the service keeps up;
// every traceEvery-th job (0: none) is traced. The schedule runs on a
// generator thread of its own (generatorThread).
func (c *svcClient) openLoop(jobs []*svcJob, rate float64, traceEvery int) []*svcSample {
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(10 * time.Millisecond)
	samples := make([]*svcSample, len(jobs))
	sem := make(chan struct{}, svcMaxOutstanding)
	var wg sync.WaitGroup
	scheduled := make(chan struct{})
	go func() {
		defer close(scheduled)
		c.genErr = generatorThread()
		for i, j := range jobs {
			s := &svcSample{job: j, due: start.Add(time.Duration(i) * interval)}
			s.traced = traceEvery > 0 && j.Idx%traceEvery == 0
			samples[i] = s
			preciseSleep(time.Until(s.due))
			s.issued = time.Now()
			select {
			case sem <- struct{}{}:
			default:
				s.sent, s.done, s.err = s.issued, s.issued, errGeneratorCap
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				c.do(s)
			}()
		}
	}()
	<-scheduled
	wg.Wait()
	return samples
}

// closedLoop runs svcClients callers that each submit their next job when
// the previous one is answered, for d. It returns every sample and the
// number answered before the deadline.
func (c *svcClient) closedLoop(stream *jobStream, d time.Duration) ([]*svcSample, int) {
	deadline := time.Now().Add(d)
	var mu sync.Mutex
	var samples []*svcSample
	var wg sync.WaitGroup
	for k := 0; k < svcClients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				s := &svcSample{job: stream.next(), due: time.Now()}
				s.issued = s.due
				c.do(s)
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	done := 0
	for _, s := range samples {
		if !s.done.After(deadline) {
			done++
		}
	}
	return samples, done
}

// target is the service under test: its base URL, its process (0 when it
// runs inside this one) and how to stop it.
type target struct {
	base string
	pid  int
	stop func() error
}

// cecdTarget returns a starter for cecd processes built at bin.
func cecdTarget(bin string) func() (target, error) {
	return func() (target, error) {
		addr, err := freeAddr()
		if err != nil {
			return target{}, err
		}
		cmd := exec.Command(bin, "-addr", addr, "-jobs", strconv.Itoa(svcJobs), "-workers", strconv.Itoa(svcWorkers), "-q")
		if err := cmd.Start(); err != nil {
			return target{}, fmt.Errorf("start cecd: %w", err)
		}
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()
		stop := func() error {
			cmd.Process.Signal(syscall.SIGTERM)
			select {
			case <-exited:
				return nil
			case <-time.After(10 * time.Second):
				cmd.Process.Kill()
				<-exited
				return errors.New("cecd ignored SIGTERM")
			}
		}
		return target{base: "http://" + addr, pid: cmd.Process.Pid, stop: stop}, nil
	}
}

// freeAddr returns a loopback address with a port free right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// readyWithin polls /readyz until it answers 200.
func readyWithin(base string, limit time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for {
		resp, err := hc.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("service at %s not ready after %v (last error: %v)", base, limit, err)
		}
		preciseSleep(100 * time.Microsecond)
	}
}

// startTimed starts a target and waits until it is ready, returning the
// set-up time from launch to the first 200 on /readyz.
func startTimed(start func() (target, error)) (target, time.Duration, error) {
	t0 := time.Now()
	t, err := start()
	if err != nil {
		return t, 0, err
	}
	if err := readyWithin(t.base, 10*time.Second); err != nil {
		t.stop()
		return t, 0, err
	}
	return t, time.Since(t0), nil
}

// Both phases run in segments of svcSegment, or of a third of the run when
// that is shorter, so that a short run still has a closed-loop segment.
// Once a segment's jobs are answered a probe samples the machine and the
// service.
const svcSegment = time.Second

// probe records, after each segment, the reference kernel's time (ref.go),
// so that, as after every pass of an engine workload, the machine's speed
// is sampled through the run; and, when the service runs in a process of
// its own, that process's peak resident set over the segment. The
// reference waits until the service is idle: timed while cecd still
// collected the garbage of the segment's jobs, it read 2.5 to 6.5 ms on a
// machine that read about 3 ms when idle.
type probe struct {
	pid   int
	refs  []float64
	peaks []float64
}

func (p *probe) sample() {
	if p.pid == 0 {
		p.refs = append(p.refs, refKernel())
		return
	}
	if mb, err := peakMB(p.pid); err == nil {
		p.peaks = append(p.peaks, mb)
		resetPeak(p.pid)
	}
	waitIdle(p.pid)
	p.refs = append(p.refs, refKernel())
}

// waitIdle returns once process pid has used no CPU time for idleQuiet, or
// after idleLimit.
func waitIdle(pid int) {
	const (
		idleQuiet = 30 * time.Millisecond
		idleLimit = 500 * time.Millisecond
	)
	deadline := time.Now().Add(idleLimit)
	last, since := cpuTicks(pid), time.Now()
	for time.Now().Before(deadline) {
		preciseSleep(2 * time.Millisecond)
		if t := cpuTicks(pid); t != last {
			last, since = t, time.Now()
		} else if time.Since(since) >= idleQuiet {
			return
		}
	}
}

// segment is what one segment of a service run measured.
type segment struct {
	closed   bool
	traced   bool
	length   time.Duration
	samples  []*svcSample
	answered int // closed loop: the jobs answered within the segment
	// steal is the share of the machine's CPU time the host took away
	// during the segment.
	steal float64
}

// segments runs n segments of length: every closedEvery-th of them (0:
// none) closed loop, the others open loop at rate jobs per second. With
// traceEvery > 0 every other segment is traced: every traceEvery-th of its
// jobs asks for an execution trace. Interleaved, the closed and open loops,
// or the traced and untraced segments, sample the same spells of the
// machine's speed.
func (c *svcClient) segments(stream *jobStream, n int, length time.Duration, closedEvery int, rate float64, traceEvery int, p *probe) []segment {
	perSegment := max(1, int(math.Round(rate*length.Seconds())))
	segs := make([]segment, n)
	for k := range segs {
		s := &segs[k]
		s.closed = closedEvery > 0 && k%closedEvery == closedEvery-1
		s.traced = traceEvery > 0 && k%2 == 1
		s.length = length
		before := readCPUStat()
		if s.closed {
			s.samples, s.answered = c.closedLoop(stream, length)
		} else {
			jobs := make([]*svcJob, perSegment)
			for i := range jobs {
				jobs[i] = stream.next()
			}
			every := 0
			if s.traced {
				every = traceEvery
			}
			s.samples = c.openLoop(jobs, rate, every)
		}
		s.steal = readCPUStat().stealSince(before)
		p.sample()
	}
	return segs
}

// samplesOf returns the samples of the open-loop segments of segs, or of
// the closed-loop ones.
func samplesOf(segs []segment, closed bool) []*svcSample {
	var out []*svcSample
	for _, s := range segs {
		if s.closed == closed {
			out = append(out, s.samples...)
		}
	}
	return out
}

// quieter returns the open-loop segments of segs, or the closed-loop ones,
// during which the host took at most the median share of the machine's CPU
// time. On a virtual machine a segment the host preempted reads slow
// whatever the service does: over six runs the median latency of an
// open-loop segment followed its steal share with a correlation of 0.84.
func quieter(segs []segment, closed bool) []segment {
	var steals []float64
	for _, s := range segs {
		if s.closed == closed {
			steals = append(steals, s.steal)
		}
	}
	limit := median(steals)
	var out []segment
	for _, s := range segs {
		if s.closed == closed && s.steal <= limit {
			out = append(out, s)
		}
	}
	return out
}

// openMedians returns the median latency of the jobs keep selects in each
// of the quieter open-loop segments, and the number of jobs behind them.
func openMedians(segs []segment, keep func(*svcSample) bool) (meds []float64, n int) {
	for _, s := range quieter(segs, false) {
		var lats []float64
		for _, x := range s.samples {
			if keep(x) {
				lats = append(lats, x.latency())
			}
		}
		if len(lats) > 0 {
			meds, n = append(meds, median(lats)), n+len(lats)
		}
	}
	return meds, n
}

func anyJob(*svcSample) bool { return true }

func mediumJob(s *svcSample) bool { return s.job.Kind == "medium" }

// svcTimings adds the three timing metrics named by names, every time
// multiplied by scale. Each is the median, over the quieter segments, of
// one number per segment: the median open-loop latency; the tail, the
// median open-loop latency of the medium jobs, as an engine workload's tail
// is the median check time of its heaviest instance; and the closed-loop
// throughput, the jobs answered within the segment over its length. As
// with an engine workload's median pass, a few segments the machine slowed
// do not move them. The open-loop p99 was tried as the tail and dropped:
// the medium jobs and the jobs queued behind them set it, so a stall of
// the machine of a few tens of milliseconds moved it, and its spread over
// ten runs was 0.14 to 0.19.
func svcTimings(m map[string]metric, names timingNames, segs []segment, scale float64) {
	lat, n := openMedians(segs, anyJob)
	tail, nTail := openMedians(segs, mediumJob)
	var rates []float64
	for _, s := range quieter(segs, true) {
		rates = append(rates, float64(s.answered)/(s.length.Seconds()*scale))
	}
	m[names.latency] = num(median(lat)*scale, "ms").withN(n)
	m[names.tail] = num(median(tail)*scale, "ms").withN(nTail)
	m[names.throughput] = num(median(rates), "1/s").withN(len(rates))
}

// runService runs the service workload and reports its metrics.
func runService(o runOpts, rep *runReport) error {
	t0 := time.Now()
	mix, err := theMix()
	if err != nil {
		return err
	}
	stream := newJobStream(mix, o.seed)
	rep.note("gen_s %.3f (%d pairs, not gated)", time.Since(t0).Seconds(), len(mix.tinyEQ)+len(mix.tinyNEQ)+len(mix.medium))
	// The run's seconds are split into segments: every svcClosedEvery-th
	// closed loop and the others open loop, or, in a traced run, open loop
	// untraced and traced in turn.
	length := min(svcSegment, time.Duration(o.seconds*float64(time.Second))/svcClosedEvery)
	total := max(svcClosedEvery, int(math.Round(o.seconds/length.Seconds())))

	var setups, setupRefs []float64
	var tgt target
	refKernel() // faults in the reference buffer
	for i := 0; i < svcSetupStarts; i++ {
		setupRefs = append(setupRefs, refKernel())
		t, d, err := startTimed(o.startService)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if i < svcSetupStarts-1 {
			if err := t.stop(); err != nil {
				return err
			}
			continue
		}
		tgt = t
	}
	defer tgt.stop()
	c := newSvcClient(tgt.base)
	rep.Env.DeviceWorkers = svcJobWorkers
	// The open loop offers svcRate jobs per second at the reference speed:
	// the rate is scaled by the set-up's reference time, so the load keeps
	// its share of the machine when the machine runs slow.
	rate := svcRate * refScale(median(setupRefs))

	if o.trace {
		p := &probe{pid: tgt.pid}
		c.tr = trace.New(0)
		c.tr.Enable()
		segs := c.segments(stream, max(2, total), length, 0, rate, svcTraceEvery, p)
		c.tr.Disable()
		var base, traced []segment
		for _, s := range segs {
			if s.traced {
				traced = append(traced, s)
			} else {
				base = append(base, s)
			}
		}
		samples := samplesOf(traced, false)
		tally(rep, samplesOf(segs, false))
		rep.Metrics = svcLayers(samples, rep)
		rep.Metrics["trace.overhead_frac"] = num(p50(traced)/p50(base)-1, "frac").withN(len(samples))
		rep.Metrics["machine.ref_ms"] = num(median(p.refs), "ms").withN(len(p.refs))
		if o.traceOut != "" {
			return writeChrome(o.traceOut, c.tr)
		}
		return nil
	}

	p := &probe{pid: tgt.pid}
	segs := c.segments(stream, total, length, svcClosedEvery, rate, 0, p)
	if c.genErr != nil {
		rep.note("generator thread: %v", c.genErr)
	}
	samples, closed := samplesOf(segs, false), samplesOf(segs, true)
	tally(rep, samples)
	tally(rep, closed)

	lats := make([]float64, len(samples))
	good := 0
	for i, s := range samples {
		lats[i] = s.latency()
		if lats[i] <= ms(svcGoodputLimit) {
			good++
		}
	}
	m := rep.Metrics
	scale := addRef(m, setupRefs, p.refs)
	addSetup(m, setups, scale)
	rep.note("set-up times (s): %.4f", setups)
	svcTimings(m, rawTimings, segs, 1)
	svcTimings(m, normTimings, segs, scale)
	m["latency_p99_ms"] = tailMetric(lats, svcTailPct, "ms")
	m["peak_rss_mb"] = num(median(p.peaks), "MB").withN(len(p.peaks))
	m["pass_s"] = null("s")
	m["goodput_frac"] = num(float64(good)/float64(len(samples)), "frac").withN(len(samples))

	// A generator that cannot keep its schedule understates the load. Its
	// median lateness is held to 10% of the median latency; the p99 is not,
	// because on two cores the service's own bursts delay a few wake-ups
	// by a millisecond or two whatever the generator does.
	lags := make([]float64, len(samples))
	for i, s := range samples {
		lags[i] = ms(s.issued.Sub(s.due))
	}
	p99, _ := tailAt(lags, svcTailPct)
	rep.note("generator lag: median %.3f ms, p99 %.3f ms", median(lags), p99)
	if median(lags) > 0.1*median(lats) {
		rep.Valid = false
		rep.note("INVALID: median generator lag exceeds 10%% of latency_ms")
	}
	var answered []int
	var steals []float64
	for _, s := range segs {
		if s.closed {
			answered = append(answered, s.answered)
		}
		steals = append(steals, s.steal)
	}
	rep.note("segments of %v; open loop: %d jobs in %d segments at %.0f/s of reference time (%.0f/s as offered); closed loop: %d jobs from %d clients in %d segments, answered per segment %v",
		length, len(samples), total-len(answered), svcRate, rate, len(closed), svcClients, len(answered), answered)
	rep.note("steal share per segment: %.3f", steals)
	return nil
}

// p50 is the open-loop latency of segs as svcTimings takes it.
func p50(segs []segment) float64 {
	lat, _ := openMedians(segs, anyJob)
	return median(lat)
}

// tally counts attempted, failed and wrong jobs into the report.
func tally(rep *runReport, samples []*svcSample) {
	for _, s := range samples {
		rep.Attempted++
		if failed, wrong, why := s.verify(); failed {
			rep.Failed++
			if wrong {
				rep.Wrong++
			}
			rep.note("job %d (%s %s): %s", s.job.Idx, s.job.Kind, s.job.Pair, why)
		}
	}
}

// svcLayers derives the per-layer metrics of a traced open-loop phase: the
// service layers from each job's timestamps, the engine layers from the
// traced jobs' execution traces, and the rest by replaying the traced jobs
// in this process (addJobLayers).
func svcLayers(samples []*svcSample, rep *runReport) map[string]metric {
	var lag, rtt, submit, queue, run, engine, notify, hit, residual []float64
	hits, refused := 0, 0
	acc := newLayerAcc()
	var decode, key []float64
	dev := simsweep.NewDevice(svcJobWorkers)
	defer dev.Close()
	for _, s := range samples {
		lag = append(lag, ms(s.issued.Sub(s.due)))
		if s.refused() {
			refused++
			continue
		}
		if failed, _, _ := s.verify(); failed {
			continue
		}
		rtt = append(rtt, ms(s.resp.Sub(s.sent)))
		if s.jj.Cached {
			hits++
			hit = append(hit, s.latency())
			continue
		}
		created, started, finished, ok := s.serverTimes()
		if !ok {
			continue
		}
		sub, q, r, n := ms(created.Sub(s.sent)), ms(started.Sub(created)), ms(finished.Sub(started)), ms(s.done.Sub(finished))
		submit, queue, run, notify = append(submit, sub), append(queue, q), append(run, r), append(notify, n)
		engine = append(engine, s.jj.RuntimeMS)
		residual = append(residual, s.latency()-(ms(s.sent.Sub(s.due))+sub+q+r+n))
		if s.jj.Traced {
			if err := addJobLayers(s, finished.Sub(started), dev, acc, &decode, &key); err != nil {
				rep.note("job %d layers: %v", s.job.Idx, err)
			}
		}
	}
	m := acc.metrics()
	med := func(name string, xs []float64) { m[name] = num(median(xs), "ms").withN(len(xs)) }
	med("service.post_rtt_ms", rtt)
	med("service.submit_ms", submit)
	med("service.queue_ms", queue)
	m["service.queue_ms_p99"] = tailMetric(queue, 99, "ms")
	med("service.run_ms", run)
	med("service.engine_ms", engine)
	med("service.notify_ms", notify)
	med("service.hit_ms", hit)
	med("service.residual_ms", residual)
	med("service.decode_ms", decode)
	med("service.key_ms", key)
	m["service.cache_hit_frac"] = num(float64(hits)/float64(len(samples)), "frac").withN(len(samples))
	m["service.refused_frac"] = num(float64(refused)/float64(len(samples)), "frac").withN(len(samples))
	m["gen.lag_ms_p99"] = tailMetric(lag, 99, "ms")
	return m
}

// addJobLayers folds a traced job into acc: its run (started to finished)
// as the check's wall time, the engine's own runtime as the CheckMiter
// call, and the engine spans of its trace. The AIGER parse, miter build,
// request decode and key derivation are timed by calling the same public
// functions cecd runs on the job's exact inputs. The kernel launches are
// read from Device.Stats over a replay of the check on dev, a device as
// wide as the job's: cecd's job trace has no span for a launch that runs
// inline, and on a one-worker device every launch does.
func addJobLayers(s *svcSample, run time.Duration, dev *simsweep.Device, acc *layerAcc, decode, key *[]float64) error {
	if s.traceErr != nil {
		return s.traceErr
	}
	spans, err := chromeSpans(s.trace)
	if err != nil {
		return err
	}
	acc.addSpans(spans)
	acc.tile("simsweep.check_ms", s.jj.RuntimeMS)
	acc.addCheck(run, time.Duration(s.jj.SATTimeMS*1e6), s.jj.ReducedPercent)

	t0 := time.Now()
	a, errA := simsweep.ReadAIGER(bytes.NewReader(s.job.RawA))
	b, errB := simsweep.ReadAIGER(bytes.NewReader(s.job.RawB))
	acc.add("aiger.read_ms", ms(time.Since(t0)))
	if errA != nil || errB != nil {
		return fmt.Errorf("replay read: %v %v", errA, errB)
	}
	t0 = time.Now()
	m, err := simsweep.BuildMiter(a, b)
	if err != nil {
		return err
	}
	acc.tile("miter.build_ms", ms(time.Since(t0)))
	before := dev.Stats()
	r, err := simsweep.CheckMiter(m, simsweep.Options{Dev: dev})
	if err != nil {
		return err
	}
	if r.Outcome != s.job.Expect {
		return fmt.Errorf("replay verdict %v, want %v", r.Outcome, s.job.Expect)
	}
	acc.addKernels(before, dev.Stats())

	var body service.JobRequest
	if err := json.Unmarshal(s.job.Body, &body); err != nil {
		return err
	}
	t0 = time.Now()
	req, err := service.DecodeRequest(body)
	*decode = append(*decode, ms(time.Since(t0)))
	if err != nil {
		return err
	}
	t0 = time.Now()
	_, err = service.KeyOf(req)
	*key = append(*key, ms(time.Since(t0)))
	return err
}
