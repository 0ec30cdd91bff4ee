package service

import (
	"strings"
	"sync"
	"testing"
	"time"

	"simsweep"
	"simsweep/internal/aig"
	"simsweep/internal/gen"
	"simsweep/internal/opt"
)

// Shared test instances, built once: a pair the hybrid engine proves in
// milliseconds, and a pair whose SAT sweep runs for seconds (the "slow
// job" used by the cancellation, timeout and admission tests): 8-bit array
// and Booth multipliers, which share no internal structure, so the sweep's
// pairs are hard, while hybrid's P phase proves them in milliseconds.
var (
	buildOnce      sync.Once
	fastA, fastB   *aig.AIG
	slowA, slowB   *aig.AIG
	mismA, mismB   *aig.AIG
	buggyA, buggyB *aig.AIG
)

func pairs(t *testing.T) {
	t.Helper()
	buildOnce.Do(func() {
		mk := func(name string, scale int) (*aig.AIG, *aig.AIG) {
			g, err := gen.Benchmark(name, scale)
			if err != nil {
				t.Fatal(err)
			}
			return g, opt.Resyn2(g, nil)
		}
		fastA, fastB = mk("multiplier", 6)
		var err error
		if slowA, err = gen.Multiplier(8); err != nil {
			t.Fatal(err)
		}
		if slowB, err = gen.MultiplierBooth(8); err != nil {
			t.Fatal(err)
		}
		mismA, _ = mk("adder", 4)
		mismB, _ = mk("adder", 5)
		buggyA, buggyB = mk("multiplier", 6)
		buggyB = buggyB.Copy()
		buggyB.SetPO(3, buggyB.PO(3).Not())
	})
}

// variantPair returns the slow pair with PO i complemented on both sides:
// still equivalent (and still slow for the SAT engine), but structurally
// distinct per i, so the result cache cannot short-circuit it.
func variantPair(i int) (*aig.AIG, *aig.AIG) {
	a, b := slowA.Copy(), slowB.Copy()
	a.SetPO(i, a.PO(i).Not())
	b.SetPO(i, b.PO(i).Not())
	return a, b
}

func waitTerminal(t *testing.T, s *Service, id string, within time.Duration) Job {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		j, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State.Terminal() {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, j.State, within)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestJobLifecycleVerdicts(t *testing.T) {
	pairs(t)
	s := New(Config{MaxConcurrent: 2})
	defer s.Close()

	eq, err := s.Submit(Request{A: fastA, B: fastB})
	if err != nil {
		t.Fatal(err)
	}
	neq, err := s.Submit(Request{A: buggyA, B: buggyB})
	if err != nil {
		t.Fatal(err)
	}

	j := waitTerminal(t, s, eq.ID, 30*time.Second)
	if j.State != StateDone || j.Result == nil || j.Result.Outcome != simsweep.Equivalent {
		t.Fatalf("equivalent pair: state=%s result=%+v", j.State, j.Result)
	}
	if j.CacheHit {
		t.Fatal("first submission reported a cache hit")
	}
	if j.KernelLaunches == 0 {
		t.Fatal("job recorded no kernel launches")
	}
	if j.Started.Before(j.Created) || j.Finished.Before(j.Started) {
		t.Fatalf("timestamps out of order: %v %v %v", j.Created, j.Started, j.Finished)
	}

	j = waitTerminal(t, s, neq.ID, 30*time.Second)
	if j.State != StateDone || j.Result == nil || j.Result.Outcome != simsweep.NotEquivalent {
		t.Fatalf("buggy pair: state=%s", j.State)
	}
	if j.Result.CEX == nil {
		t.Fatal("NotEquivalent without a counter-example")
	}
}

func TestResultCacheHitAndSymmetry(t *testing.T) {
	pairs(t)
	s := New(Config{MaxConcurrent: 1})
	defer s.Close()

	first, err := s.Submit(Request{A: fastA, B: fastB})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, first.ID, 30*time.Second)

	again, err := s.Submit(Request{A: fastA, B: fastB})
	if err != nil {
		t.Fatal(err)
	}
	if again.State != StateDone || !again.CacheHit {
		t.Fatalf("resubmission not served from cache: state=%s hit=%v", again.State, again.CacheHit)
	}
	if again.Result.Outcome != simsweep.Equivalent {
		t.Fatalf("cached verdict = %v", again.Result.Outcome)
	}

	swapped, err := s.Submit(Request{A: fastB, B: fastA})
	if err != nil {
		t.Fatal(err)
	}
	if !swapped.CacheHit {
		t.Fatal("(B, A) resubmission missed the symmetric cache entry")
	}

	// The cache key ignores the engine: a SAT submission of a pair the
	// default engine decided is answered from the cache and runs nothing.
	other, err := s.Submit(Request{A: fastA, B: fastB, Engine: simsweep.EngineSAT})
	if err != nil {
		t.Fatal(err)
	}
	if other.State != StateDone || !other.CacheHit || other.Result.Outcome != simsweep.Equivalent {
		t.Fatalf("sat resubmission: state=%s hit=%v", other.State, other.CacheHit)
	}

	st := s.Stats()
	if st.CacheHits != 3 || st.CacheMisses != 1 {
		t.Fatalf("cache counters: hits=%d misses=%d", st.CacheHits, st.CacheMisses)
	}
}

func TestUndecidedRunsAreNotCached(t *testing.T) {
	pairs(t)
	s := New(Config{MaxConcurrent: 1})
	defer s.Close()

	// A run cancelled by its deadline must not poison the cache.
	j, err := s.Submit(Request{A: slowA, B: slowB, Engine: simsweep.EngineSAT, Timeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, s, j.ID, 60*time.Second)
	if got.State != StateTimeout {
		t.Fatalf("state = %s, want timeout", got.State)
	}
	again, err := s.Submit(Request{A: slowA, B: slowB, Engine: simsweep.EngineSAT, Timeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheHit {
		t.Fatal("timed-out (undecided) result was cached")
	}
	waitTerminal(t, s, again.ID, 60*time.Second)
}

func TestDeadlineTimesOutRunningJob(t *testing.T) {
	pairs(t)
	s := New(Config{MaxConcurrent: 1})
	defer s.Close()

	j, err := s.Submit(Request{A: slowA, B: slowB, Engine: simsweep.EngineSAT, Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, s, j.ID, 60*time.Second)
	if got.State != StateTimeout {
		t.Fatalf("state = %s, want timeout", got.State)
	}
	if got.Result == nil || got.Result.Outcome != simsweep.Undecided || !got.Result.Stopped {
		t.Fatalf("timed-out job result: %+v", got.Result)
	}

	// The runner and its device must remain usable afterwards.
	next, err := s.Submit(Request{A: fastA, B: fastB})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, s, next.ID, 30*time.Second); got.State != StateDone {
		t.Fatalf("job after timeout: state=%s", got.State)
	}
}

func TestCancelQueuedAndRunningJobs(t *testing.T) {
	pairs(t)
	s := New(Config{MaxConcurrent: 1})
	defer s.Close()

	running, err := s.Submit(Request{A: slowA, B: slowB, Engine: simsweep.EngineSAT})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(Request{A: fastA, B: fastB})
	if err != nil {
		t.Fatal(err)
	}

	// The queued job cancels instantly, without ever running.
	cj, err := s.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cj.State != StateCancelled {
		t.Fatalf("queued cancel: state=%s", cj.State)
	}
	if got := waitTerminal(t, s, queued.ID, 5*time.Second); got.State != StateCancelled || !got.Started.IsZero() {
		t.Fatalf("cancelled queued job ran: state=%s started=%v", got.State, got.Started)
	}

	// The running job stops cooperatively and promptly.
	if _, err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got := waitTerminal(t, s, running.ID, 30*time.Second)
	if got.State != StateCancelled {
		t.Fatalf("running cancel: state=%s", got.State)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}

	// Cancelling a finished job reports ErrFinished.
	if _, err := s.Cancel(running.ID); err != ErrFinished {
		t.Fatalf("cancel finished job: err=%v", err)
	}
	if _, err := s.Cancel("nope"); err != ErrNotFound {
		t.Fatalf("cancel unknown job: err=%v", err)
	}
}

func TestQueueFullRejectsSubmission(t *testing.T) {
	pairs(t)
	s := New(Config{MaxConcurrent: 1, QueueCap: 1})
	defer s.Close()

	// Runner busy with the slow job, queue holding one more: the third
	// submission must bounce with ErrQueueFull (admission control).
	first, err := s.Submit(Request{A: slowA, B: slowB, Engine: simsweep.EngineSAT})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the runner picked the first job up, so the queue slot is
	// genuinely occupied by the second.
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, _ := s.Get(first.ID)
		if j.State != StateQueued || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	va, vb := variantPair(0)
	if _, err := s.Submit(Request{A: va, B: vb, Engine: simsweep.EngineSAT}); err != nil {
		t.Fatal(err)
	}
	wa, wb := variantPair(1)
	if _, err := s.Submit(Request{A: wa, B: wb}); err != ErrQueueFull {
		t.Fatalf("overfull submission: err=%v, want ErrQueueFull", err)
	}
	if _, err := s.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}
}

func TestAdmissionNeverExceedsK(t *testing.T) {
	pairs(t)
	const k = 2
	s := New(Config{MaxConcurrent: k})
	defer s.Close()

	var ids []string
	for i := 0; i < 5; i++ {
		a, b := variantPair(i)
		j, err := s.Submit(Request{A: a, B: b})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	maxRunning := 0
	for {
		st := s.Stats()
		if st.Running > maxRunning {
			maxRunning = st.Running
		}
		done := true
		for _, id := range ids {
			j, _ := s.Get(id)
			if !j.State.Terminal() {
				done = false
			}
		}
		if done {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if maxRunning > k {
		t.Fatalf("observed %d running jobs, admission limit is %d", maxRunning, k)
	}
	for _, id := range ids {
		if j, _ := s.Get(id); j.State != StateDone || j.Result.Outcome != simsweep.Equivalent {
			t.Fatalf("job %s: state=%s", id, j.State)
		}
	}
}

func TestBadAndFailedRequests(t *testing.T) {
	pairs(t)
	s := New(Config{MaxConcurrent: 1})
	defer s.Close()

	if _, err := s.Submit(Request{}); err != ErrBadRequest {
		t.Fatalf("empty request: err=%v", err)
	}
	if _, err := s.Submit(Request{A: fastA}); err != ErrBadRequest {
		t.Fatalf("half a pair: err=%v", err)
	}
	if _, err := s.Submit(Request{A: fastA, B: fastB, Miter: fastA}); err != ErrBadRequest {
		t.Fatalf("pair and miter: err=%v", err)
	}

	// Mismatched interfaces surface as a failed job, not a panic.
	j, err := s.Submit(Request{A: mismA, B: mismB})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, s, j.ID, 30*time.Second)
	if got.State != StateFailed || got.Err == "" {
		t.Fatalf("mismatched pair: state=%s err=%q", got.State, got.Err)
	}
}

func TestMiterModeAndMetricsText(t *testing.T) {
	pairs(t)
	s := New(Config{MaxConcurrent: 1})
	defer s.Close()

	m, err := simsweep.BuildMiter(fastA, fastB)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(Request{Miter: m})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, s, j.ID, 30*time.Second); got.State != StateDone || got.Result.Outcome != simsweep.Equivalent {
		t.Fatalf("miter job: state=%s", got.State)
	}

	var b strings.Builder
	writeMetrics(&b, s.Stats())
	out := b.String()
	for _, want := range []string{
		"cecd_queue_depth 0",
		"cecd_running_jobs 0",
		"cecd_jobs_total{state=\"done\"} 1",
		"cecd_cache_misses_total 1",
		"cecd_latency_seconds{quantile=\"0.5\"}",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

func TestRingEvictsOldestFinishedJobs(t *testing.T) {
	pairs(t)
	s := New(Config{MaxConcurrent: 1, RingSize: 2, CacheSize: 1})
	defer s.Close()

	var last string
	for i := 0; i < 4; i++ {
		a, b := variantPair(i)
		j, err := s.Submit(Request{A: a, B: b})
		if err != nil {
			t.Fatal(err)
		}
		last = j.ID
		waitTerminal(t, s, j.ID, 30*time.Second)
	}
	if got := s.Jobs(); len(got) != 2 {
		t.Fatalf("ring retained %d jobs, want 2", len(got))
	}
	if _, err := s.Get("j1"); err != ErrNotFound {
		t.Fatalf("oldest job still retained: err=%v", err)
	}
	if _, err := s.Get(last); err != nil {
		t.Fatalf("newest job evicted: %v", err)
	}
}

func TestLRUCacheEvictionAndSymmetricKeys(t *testing.T) {
	pairs(t)
	c := newLRU(2)
	k1, _ := KeyOf(Request{A: fastA, B: fastB})
	k1s, _ := KeyOf(Request{A: fastB, B: fastA})
	if k1 != k1s {
		t.Fatal("(A,B) and (B,A) keys differ")
	}
	k2, _ := KeyOf(Request{A: slowA, B: slowB})
	k3, _ := KeyOf(Request{Miter: fastA})
	if k1 == k2 || k2 == k3 || k1 == k3 {
		t.Fatal("distinct requests collided")
	}
	// A miter over the same graph must not collide with a pair entry.
	kp, _ := KeyOf(Request{A: fastA, B: fastA})
	if kp == k3 {
		t.Fatal("pair (A,A) collided with miter A")
	}

	res := simsweep.Result{Outcome: simsweep.Equivalent}
	c.put(k1, res)
	c.put(k2, res)
	if _, ok := c.get(k1); !ok { // refresh k1 so k2 is the LRU entry
		t.Fatal("k1 missing")
	}
	c.put(k3, res)
	if _, ok := c.get(k2); ok {
		t.Fatal("least-recently-used entry survived eviction")
	}
	if _, ok := c.get(k1); !ok {
		t.Fatal("recently used entry evicted")
	}
	if c.len() != 2 {
		t.Fatalf("cache len = %d", c.len())
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	pairs(t)
	s := New(Config{MaxConcurrent: 1})
	s.Close()
	if _, err := s.Submit(Request{A: fastA, B: fastB}); err != ErrClosed {
		t.Fatalf("submit after close: err=%v", err)
	}
	s.Close() // idempotent
}

// TestConcurrentIdenticalSubmitsCoalesce is the single-flight contract:
// many goroutines submitting the same fingerprint key while no verdict is
// cached yet must trigger exactly one execution — one leader runs, every
// duplicate either attaches to it (Coalesced) or hits the cache after it
// settles, and all of them report the same verdict as cache hits.
func TestConcurrentIdenticalSubmitsCoalesce(t *testing.T) {
	pairs(t)
	s := New(Config{MaxConcurrent: 2, TotalWorkers: 2, QueueCap: 64})
	defer s.Close()

	const submitters = 16
	ids := make([]string, submitters)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			j, err := s.Submit(Request{A: fastA, B: fastB})
			if err != nil {
				t.Errorf("submitter %d: %v", i, err)
				return
			}
			ids[i] = j.ID
		}(i)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	leaders := 0
	for i, id := range ids {
		j := waitTerminal(t, s, id, 30*time.Second)
		if j.State != StateDone {
			t.Fatalf("job %s finished %s (%s)", id, j.State, j.Err)
		}
		if j.Result == nil || j.Result.Outcome != simsweep.Equivalent {
			t.Fatalf("job %s: wrong verdict %+v", id, j.Result)
		}
		if !j.CacheHit {
			leaders++
		}
		_ = i
	}
	if leaders != 1 {
		t.Fatalf("%d executions for %d identical submissions, want exactly 1", leaders, submitters)
	}
	st := s.Stats()
	if st.CacheMisses != 1 {
		t.Fatalf("cache misses = %d, want 1 (single execution)", st.CacheMisses)
	}
	if st.Coalesced+st.CacheHits != submitters-1 {
		t.Fatalf("coalesced(%d)+hits(%d) = %d, want %d duplicates answered without running",
			st.Coalesced, st.CacheHits, st.Coalesced+st.CacheHits, submitters-1)
	}

	// A post-settlement resubmission is a plain cache hit.
	j, err := s.Submit(Request{A: fastB, B: fastA}) // swapped: same key
	if err != nil {
		t.Fatal(err)
	}
	if !j.CacheHit || j.State != StateDone {
		t.Fatalf("resubmission: cacheHit=%v state=%s", j.CacheHit, j.State)
	}
}

// TestFollowerPromotedWhenLeaderCancelled: duplicates of a cancelled leader
// must not inherit the cancellation — the first live follower is promoted
// and the check still runs to a verdict.
func TestFollowerPromotedWhenLeaderCancelled(t *testing.T) {
	pairs(t)
	// One runner kept busy so the leader stays queued long enough to cancel.
	s := New(Config{MaxConcurrent: 1, TotalWorkers: 1, QueueCap: 64})
	defer s.Close()

	blockA, blockB := variantPair(0)
	blocker, err := s.Submit(Request{A: blockA, B: blockB, Engine: simsweep.EngineSAT})
	if err != nil {
		t.Fatal(err)
	}
	leader, err := s.Submit(Request{A: fastA, B: fastB})
	if err != nil {
		t.Fatal(err)
	}
	follower, err := s.Submit(Request{A: fastA, B: fastB})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(leader.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	if j := waitTerminal(t, s, leader.ID, 30*time.Second); j.State != StateCancelled {
		t.Fatalf("leader state = %s, want cancelled", j.State)
	}
	j := waitTerminal(t, s, follower.ID, 30*time.Second)
	if j.State != StateDone || j.Result == nil || j.Result.Outcome != simsweep.Equivalent {
		t.Fatalf("promoted follower: state=%s result=%+v", j.State, j.Result)
	}
}
