package main

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"simsweep"
	"simsweep/internal/aig"
	"simsweep/internal/trace"
)

// An engine workload runs closed loop in a child process: one check at a
// time on one simsweep.Device with nproc workers, an untimed warm-up check,
// then timed passes over the instance set. The parent generates the base
// pairs and hands them to the child on stdin with the seed; the child reads
// back a "ready" line once the warm-up check is done, then one JSON result
// line.
//
// Every pass checks a fresh variant of each pair: both sides under one PI
// permutation drawn from the seed and the pass, with a simulation seed drawn
// the same way. A variant does the same function and the same amount of
// work up to the engine's randomness, so each pass samples that randomness
// anew and a run's medians average over it instead of freezing one draw
// per seed.

// engineJob is the child's whole input.
type engineJob struct {
	Instances []instance
	Seed      int64
	Seconds   float64
	Trace     bool
	SetupOnly bool
	TraceOut  string
}

// checkSample is one timed check: 2× ReadAIGER + BuildMiter + CheckMiter.
type checkSample struct {
	Instance int
	Seconds  float64
}

// engineResult is the child's output.
type engineResult struct {
	Samples   []checkSample // untraced checks
	PassS     []float64     // untraced passes
	TracedS   []float64     // traced passes
	PeakMB    []float64     // peak resident set of each untraced pass
	RefMS     []float64     // reference kernel time after each pass
	Attempted int
	Failed    int
	Wrong     int
	Errors    []string
	Layers    map[string]metric
	Workers   int
}

// checkLimit is the per-check budget: a check still undecided after it is
// stopped and counted as failed.
const checkLimit = 60 * time.Second

// ledgerTrack is the trace track of the benchmark's own spans, clear of the
// engine's control track and the device worker tracks.
const ledgerTrack int32 = 1000

// traceCapacity is the event capacity of the tracer of one traced pass.
const traceCapacity = 1 << 18

// checker runs checks on one device and keeps the verdict tallies.
type checker struct {
	dev   *simsweep.Device
	base  []instance
	pairs [][2]*aig.AIG // base pairs, parsed once
	seed  int64
	res   *engineResult
}

// passInputs builds the inputs of one pass, each pair with both sides
// under one PI permutation, and the pass's simulation seed.
func (c *checker) passInputs(pass int) ([]instance, int64) {
	rng := rand.New(rand.NewSource(c.seed<<20 + int64(pass)))
	ins := make([]instance, len(c.base))
	for i, p := range c.pairs {
		a, b := permuted(p[0], p[1], rng)
		ins[i] = c.base[i]
		ins[i].A, ins[i].B = encode(a), encode(b)
	}
	return ins, rng.Int63()
}

// check runs one instance end to end as a user would: parse both circuits,
// build the miter, check it. The verdict is compared with the known answer
// and a counter-example must replay on both circuits through aig.Eval.
func (c *checker) check(in instance, seed int64, tr *simsweep.Tracer) (time.Duration, simsweep.Result) {
	buf := tr.Buf(ledgerTrack)
	start := time.Now()
	sp := buf.Begin(ledgerCat, "ledger.check")
	rs := buf.Begin(ledgerCat, "ledger.read")
	a, errA := simsweep.ReadAIGER(bytes.NewReader(in.A))
	b, errB := simsweep.ReadAIGER(bytes.NewReader(in.B))
	rs.End()
	var r simsweep.Result
	err := errA
	if err == nil {
		err = errB
	}
	if err == nil {
		ms := buf.Begin(ledgerCat, "ledger.miter")
		var m *simsweep.AIG
		m, err = simsweep.BuildMiter(a, b)
		ms.End()
		if err == nil {
			stop := make(chan struct{})
			timer := time.AfterFunc(checkLimit, func() { close(stop) })
			es := buf.Begin(ledgerCat, "ledger.engine")
			r, err = simsweep.CheckMiter(m, simsweep.Options{Dev: c.dev, Seed: seed, Trace: tr, Stop: stop})
			es.End()
			timer.Stop()
		}
	}
	sp.End()
	wall := time.Since(start)

	c.res.Attempted++
	switch {
	case err != nil:
		c.res.Failed++
		c.res.Errors = append(c.res.Errors, fmt.Sprintf("%s: %v", in.Name, err))
	case r.Outcome == simsweep.Undecided:
		c.res.Failed++
		c.res.Errors = append(c.res.Errors, in.Name+": undecided")
	case r.Outcome != in.Expect:
		c.res.Failed++
		c.res.Wrong++
		c.res.Errors = append(c.res.Errors, fmt.Sprintf("%s: WRONG verdict %v, want %v", in.Name, r.Outcome, in.Expect))
	case r.Outcome == simsweep.NotEquivalent && !differs(a, b, r.CEX):
		c.res.Failed++
		c.res.Wrong++
		c.res.Errors = append(c.res.Errors, in.Name+": counter-example does not replay")
	}
	return wall, r
}

// warmUpInstance is the smallest instance of the set: the warm-up check
// runs it unpermuted with a fixed simulation seed, so set-up does the same
// work for every seed.
func warmUpInstance(insts []instance) int {
	best := 0
	for i, in := range insts {
		if len(in.A)+len(in.B) < len(insts[best].A)+len(insts[best].B) {
			best = i
		}
	}
	return best
}

// runChild is the engine child process: it reads an engineJob from stdin,
// sets up, reports ready, runs the timed passes and prints the result.
func runChild(stdin io.Reader, stdout io.Writer) error {
	var job engineJob
	if err := gob.NewDecoder(stdin).Decode(&job); err != nil {
		return fmt.Errorf("read job: %w", err)
	}
	if len(job.Instances) == 0 {
		return fmt.Errorf("job has no instances")
	}
	res := &engineResult{Workers: runtime.NumCPU()}
	c := &checker{base: job.Instances, seed: job.Seed, res: res}
	for _, in := range job.Instances {
		a, errA := simsweep.ReadAIGER(bytes.NewReader(in.A))
		b, errB := simsweep.ReadAIGER(bytes.NewReader(in.B))
		if errA != nil || errB != nil {
			return fmt.Errorf("%s: %v %v", in.Name, errA, errB)
		}
		c.pairs = append(c.pairs, [2]*aig.AIG{a, b})
	}
	c.dev = simsweep.NewDevice(res.Workers)
	defer c.dev.Close()

	c.check(job.Instances[warmUpInstance(job.Instances)], 1, nil)
	if res.Failed > 0 {
		return fmt.Errorf("warm-up check failed: %v", res.Errors)
	}
	*res = engineResult{Workers: res.Workers}
	if _, err := fmt.Fprintln(stdout, "ready"); err != nil {
		return err
	}
	if job.SetupOnly {
		return nil
	}

	// Passes fill the run; a pass is not started when the last one would
	// overrun the deadline. In a traced run untraced and traced passes
	// alternate, at least one of each, so that both sample the same spells
	// of the machine's speed and trace.overhead_frac compares like with like.
	start := time.Now()
	refKernel() // faults in the reference buffer
	resetPeak(os.Getpid())
	var acc *layerAcc
	if job.Trace {
		acc = newLayerAcc()
	}
	last := 0.0
	for pass := 0; ; pass++ {
		traced := job.Trace && pass%2 == 1
		done := len(res.PassS) > 0 && (!job.Trace || len(res.TracedS) > 0)
		if done && time.Since(start).Seconds()+last > job.Seconds {
			break
		}
		if traced {
			dt, err := c.tracedPass(job, pass, acc)
			if err != nil {
				return err
			}
			last = dt.Seconds()
			res.TracedS = append(res.TracedS, last)
		} else {
			ins, simSeed := c.passInputs(pass)
			t0 := time.Now()
			for i, in := range ins {
				wall, _ := c.check(in, simSeed, nil)
				res.Samples = append(res.Samples, checkSample{Instance: i, Seconds: wall.Seconds()})
			}
			last = time.Since(t0).Seconds()
			res.PassS = append(res.PassS, last)
			if mb, err := peakMB(os.Getpid()); err == nil {
				res.PeakMB = append(res.PeakMB, mb)
				resetPeak(os.Getpid())
			}
		}
		res.RefMS = append(res.RefMS, refKernel())
	}
	if job.Trace {
		res.Layers = acc.metrics()
	}
	return json.NewEncoder(stdout).Encode(res)
}

// tracedPass runs one pass with a fresh tracer passed as Options.Trace, so
// the engine's own spans land next to the ledger's, and folds the spans and
// the device's kernel statistics into acc. The first traced pass is written
// to job.TraceOut as Chrome JSON when set.
func (c *checker) tracedPass(job engineJob, pass int, acc *layerAcc) (time.Duration, error) {
	ins, simSeed := c.passInputs(pass)
	tr := trace.New(traceCapacity)
	tr.SetTrackName(ledgerTrack, "ledger")
	tr.Enable()
	before := c.dev.Stats()
	t0 := time.Now()
	for _, in := range ins {
		wall, r := c.check(in, simSeed, tr)
		acc.addCheck(wall, r.SATTime, r.ReducedPercent)
	}
	dt := time.Since(t0)
	tr.Disable()
	acc.addKernels(before, c.dev.Stats())
	quiesce(c.dev)
	acc.addSpans(spansOf(tr.Events()))
	acc.dropped += tr.Dropped()
	if job.TraceOut != "" && len(c.res.TracedS) == 0 {
		if err := writeChrome(job.TraceOut, tr); err != nil {
			return 0, err
		}
	}
	return dt, nil
}

// quiesce returns once every worker of dev has finished the kernel tasks
// it took part in. A worker records the end of its part of a traced launch
// after the launch has already returned to the caller, so the tracer may
// only be read after this. It launches a small kernel whose first items
// wait until the caller and every worker each hold one: a worker can only
// join once it is done with its previous tasks.
func quiesce(dev *simsweep.Device) {
	parties := int32(dev.Workers() + 1)
	if parties <= 2 {
		return // at most one worker: kernels run on the caller
	}
	var arrived atomic.Int32
	dev.Launch("ledger.quiesce", 4*int(parties), func(int) {
		arrived.Add(1)
		for arrived.Load() < parties {
			runtime.Gosched()
		}
	})
}

// writeChrome writes a tracer as Chrome trace_event JSON.
func writeChrome(path string, tr *simsweep.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := simsweep.WriteChromeTrace(f, tr); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}

// childTimeout bounds a child beyond its run length: generous for a slow
// machine, short enough that a hung check cannot outlast the benchmark's
// own time limit.
const childTimeout = 90 * time.Second

// spawnResult is what one child process run measured from outside.
type spawnResult struct {
	setup time.Duration // exec until the ready line
	res   engineResult
}

// spawnChild runs one engine child and measures its set-up time: exec,
// input transfer, device and warm-up check.
func spawnChild(job engineJob) (spawnResult, error) {
	var out spawnResult
	self, err := os.Executable()
	if err != nil {
		return out, err
	}
	cmd := exec.Command(self, childArg)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return out, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return out, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return out, err
	}
	timer := time.AfterFunc(time.Duration(job.Seconds*float64(time.Second))+childTimeout, func() { cmd.Process.Kill() })
	defer timer.Stop()

	encErr := gob.NewEncoder(stdin).Encode(job)
	stdin.Close()
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	var lines []string
	for sc.Scan() {
		if len(lines) == 0 {
			out.setup = time.Since(start)
		}
		lines = append(lines, sc.Text())
	}
	waitErr := cmd.Wait()
	switch {
	case encErr != nil:
		return out, fmt.Errorf("send job to child: %w", encErr)
	case waitErr != nil:
		return out, fmt.Errorf("engine child: %w", waitErr)
	case len(lines) == 0 || lines[0] != "ready":
		return out, fmt.Errorf("engine child never became ready")
	}
	if job.SetupOnly {
		return out, nil
	}
	if len(lines) != 2 {
		return out, fmt.Errorf("engine child printed %d lines, want 2", len(lines))
	}
	if err := json.Unmarshal([]byte(lines[1]), &out.res); err != nil {
		return out, fmt.Errorf("engine child result: %w", err)
	}
	return out, nil
}

// setupSpawns is the number of child launches an untraced engine run times
// set-up over; the last one also runs the passes.
const setupSpawns = 15

// runEngine runs an engine workload and reports its metrics.
func runEngine(w workload, o runOpts, rep *runReport) error {
	t0 := time.Now()
	insts, err := w.instances()
	if err != nil {
		return err
	}
	rep.note("gen_s %.3f (%d instances, not gated)", time.Since(t0).Seconds(), len(insts))
	job := engineJob{Instances: insts, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, TraceOut: o.traceOut}

	var setups, setupRefs []float64
	if !o.trace {
		refKernel() // faults in the reference buffer
		for i := 0; i < setupSpawns-1; i++ {
			sj := job
			sj.SetupOnly = true
			setupRefs = append(setupRefs, refKernel())
			s, err := spawnChild(sj)
			if err != nil {
				return err
			}
			setups = append(setups, s.setup.Seconds())
		}
		setupRefs = append(setupRefs, refKernel())
	}
	s, err := spawnChild(job)
	if err != nil {
		return err
	}
	setups = append(setups, s.setup.Seconds())
	r := s.res
	rep.Env.DeviceWorkers = r.Workers
	rep.Attempted, rep.Failed, rep.Wrong = r.Attempted, r.Failed, r.Wrong
	for _, e := range r.Errors {
		rep.note("%s", e)
	}

	if o.trace {
		rep.Metrics = r.Layers
		rep.Metrics["trace.overhead_frac"] = num(median(r.TracedS)/median(r.PassS)-1, "frac").withN(len(r.TracedS))
		rep.Metrics["machine.ref_ms"] = num(median(r.RefMS), "ms").withN(len(r.RefMS))
		return nil
	}

	m := rep.Metrics
	scale := addRef(m, setupRefs, r.RefMS)
	addSetup(m, setups, scale)
	rep.note("set-up times (s): %.4f", setups)
	meds := r.timings(m, rawTimings, len(insts), 1)
	r.timings(m, normTimings, len(insts), scale)
	m["peak_rss_mb"] = num(median(r.PeakMB), "MB").withN(len(r.PeakMB))
	m["pass_s"] = num(median(r.PassS), "s").withN(len(r.PassS))
	m["goodput_frac"] = null("frac")
	m["latency_p99_ms"] = null("ms")
	rep.instanceMedians(insts, meds)
	return nil
}

// timings adds the three timing metrics named by names from the untraced
// checks and passes, each time multiplied by scale. The latency is the
// geometric mean of the per-instance median check times, so each instance
// counts once however long it takes. The tail is the same mean over the
// slower half of the instances (rounded up): what the workload's heavier
// checks cost. The throughput is the instance count over the median pass
// time. Two tails were tried and dropped (README, "Calibration"): a
// percentile over all checks fell inside the spread of the slowest
// instance's checks, and the slowest instance's median switched between
// instances of about the same cost; both moved by a tenth to a fifth
// between seeds. It returns the per-instance medians.
func (r *engineResult) timings(m map[string]metric, names timingNames, nInst int, scale float64) []float64 {
	byInst := make([][]float64, nInst)
	for _, cs := range r.Samples {
		byInst[cs.Instance] = append(byInst[cs.Instance], cs.Seconds*1000*scale)
	}
	meds := make([]float64, nInst)
	order := make([]int, nInst)
	for i, xs := range byInst {
		meds[i], order[i] = median(xs), i
	}
	sort.Slice(order, func(a, b int) bool { return meds[order[a]] < meds[order[b]] })
	var slow []float64
	nSlow := 0
	for _, i := range order[nInst/2:] {
		slow = append(slow, meds[i])
		nSlow += len(byInst[i])
	}
	m[names.latency] = num(geomean(meds), "ms").withN(len(r.Samples))
	m[names.tail] = num(geomean(slow), "ms").withN(nSlow)
	m[names.throughput] = num(float64(nInst)/(median(r.PassS)*scale), "1/s").withN(len(r.PassS))
	return meds
}

// instanceMedians records the per-instance median check times as notes,
// slowest first, for the human-readable report.
func (rep *runReport) instanceMedians(insts []instance, meds []float64) {
	order := make([]int, len(insts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return meds[order[a]] > meds[order[b]] })
	for _, i := range order {
		rep.note("check %-28s median %9.3f ms", insts[i].Name, meds[i])
	}
}
