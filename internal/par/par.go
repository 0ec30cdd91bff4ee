// Package par provides the parallel execution substrate of the CEC engine.
//
// The original system dispatches its algorithms as CUDA kernels over flat
// index spaces on a GPU. This package is the CPU substitution: a Device
// executes the same flat index spaces over a pool of goroutines, honouring
// the same barriers between launches (a Launch returns only when every index
// has been processed, exactly like a kernel launch followed by a device
// synchronisation). Per-kernel statistics are recorded so that benchmarks
// can report launch counts and per-kernel time, mirroring a CUDA profile.
//
// The pool is persistent: worker goroutines are created once, on the first
// parallel launch, and parked between kernels. A launch enqueues a single
// task descriptor; workers (and the launching goroutine itself, which always
// participates) claim contiguous index chunks from the task through a
// lock-free atomic ticket, so the steady-state dispatch cost is one queue
// append, a few wake-ups and one channel receive — not w goroutine spawns
// and a WaitGroup as in a naive implementation. Because the launcher drains
// chunks itself, a kernel body may issue a nested Launch on the same Device
// without deadlocking even when every pooled worker is busy.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"simsweep/internal/fault"
	"simsweep/internal/trace"
)

// KernelPanicError is returned from Launch/LaunchChunked when a kernel body
// panicked on any participating goroutine. The panic is recovered inside the
// worker, remaining chunks of the launch are drained without executing, and
// the pool stays fully usable for subsequent launches — a panicking kernel
// costs one failed launch, not the process.
type KernelPanicError struct {
	// Kernel is the name of the launch whose body panicked.
	Kernel string
	// Value is the value the kernel panicked with.
	Value interface{}
	// Stack is the stack trace captured at the recovery point.
	Stack []byte
}

// Error implements the error interface.
func (e *KernelPanicError) Error() string {
	return fmt.Sprintf("par: kernel %q panicked: %v", e.Kernel, e.Value)
}

// Unwrap exposes a panic value that was itself an error (an injected
// *fault.InjectedFault, say) to errors.Is/As.
func (e *KernelPanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Stopped reports whether the cooperative cancellation channel stop has been
// closed, without blocking. A nil channel never stops. Every engine polls its
// Stop option through it between units of work.
func Stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// Device executes flat index spaces in parallel. The zero value is not
// usable; create one with NewDevice. A Device is safe for concurrent use,
// although the engine launches kernels from a single control goroutine,
// matching the single-stream execution model of the paper.
//
// Worker goroutines are started lazily on the first parallel launch and
// live until Close is called; an unreachable Device releases its workers
// through a finalizer, so short-lived devices (tests, portfolio members)
// need no explicit cleanup.
type Device struct {
	workers int
	pool    *pool

	// tracer, when set and enabled, receives per-worker task spans and
	// worker-occupancy samples; observer, when set, is called after every
	// launch. Both are atomic so launches never take a lock to find out
	// that observability is off.
	tracer   atomic.Pointer[trace.Tracer]
	observer atomic.Pointer[func(name string, items int, d time.Duration)]

	// faults, when set, is consulted once per executed chunk for the
	// par.worker.panic hook; the atomic keeps arming/disarming lock-free,
	// like the tracer.
	faults atomic.Pointer[fault.Injector]

	mu    sync.Mutex
	stats map[string]*KernelStats
}

// KernelStats aggregates the executions of one named kernel.
type KernelStats struct {
	Launches int           // number of Launch calls
	Items    int64         // total number of indices processed
	Time     time.Duration // wall-clock time spent inside Launch
	Panics   int           // launches that failed with a KernelPanicError
}

// NewDevice returns a Device with the given degree of parallelism.
// workers <= 0 selects runtime.NumCPU().
func NewDevice(workers int) *Device {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	d := &Device{workers: workers, stats: make(map[string]*KernelStats)}
	if workers > 1 {
		d.pool = newPool(workers)
		// Workers reference only the inner pool, never the Device, so an
		// unreachable Device is collectable; the finalizer parks the pool.
		runtime.SetFinalizer(d, func(d *Device) { d.pool.close() })
	}
	return d
}

// Workers reports the degree of parallelism of the device.
func (d *Device) Workers() int { return d.workers }

// SetTracer attaches (or, with nil, detaches) a trace recorder. While the
// tracer is enabled, every launch records one span per participating
// worker (the cross-window occupancy picture of the paper's kernel
// profiles) plus worker-busy counter samples. Tracks are named "control"
// (the launching goroutine) and "worker 1".."worker W". Detaching is safe
// between launches; the engines attach a per-job tracer before a check
// and detach it after.
func (d *Device) SetTracer(t *trace.Tracer) {
	if t != nil {
		t.SetTrackName(trace.ControlTrack, "control")
		for i := 1; i <= d.workers; i++ {
			t.SetTrackName(int32(i), fmt.Sprintf("worker %d", i))
		}
	}
	d.tracer.Store(t)
}

// SetObserver installs a callback invoked after every kernel launch with
// the kernel name, the number of indices dispatched and the launch's
// wall-clock time. The service layer feeds its kernel-launch-size
// histogram from it. A nil observer (the default) costs one atomic load
// per launch.
func (d *Device) SetObserver(fn func(name string, items int, d time.Duration)) {
	if fn == nil {
		d.observer.Store(nil)
		return
	}
	d.observer.Store(&fn)
}

// SetFaults arms (or, with nil, disarms) a fault injector on the device.
// While armed, every executed kernel chunk consults the par.worker.panic
// hook; a hit panics inside the worker and surfaces as a KernelPanicError
// from the launch. The engines arm the per-job injector before a check and
// disarm it after, exactly like SetTracer.
func (d *Device) SetFaults(in *fault.Injector) {
	d.faults.Store(in)
}

// Close releases the worker goroutines. It is optional — a garbage-collected
// Device closes itself — and safe to call more than once; launches after
// Close run on the calling goroutine only.
func (d *Device) Close() {
	if d.pool != nil {
		runtime.SetFinalizer(d, nil)
		d.pool.close()
	}
}

// Launch executes fn for every index in [0, n), in parallel, and returns
// when all indices have been processed. The name keys the kernel statistics.
// Indices are distributed in contiguous chunks to keep memory access
// patterns coalesced-like (neighbouring indices touch neighbouring data),
// which is the CPU analogue of the coalescing argument in the paper.
//
// A panic in fn is recovered on the goroutine that hit it and returned as a
// *KernelPanicError; the launch still synchronises (every remaining chunk is
// drained, without executing) and the pool stays usable. Results computed by
// the launch are then suspect and must be discarded by the caller.
func (d *Device) Launch(name string, n int, fn func(i int)) error {
	start := time.Now()
	err := d.parallelRange(name, n, func(_ *Flight, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
	d.record(name, n, time.Since(start), err != nil)
	return err
}

// LaunchChunked is like Launch but hands each worker a contiguous range
// [lo, hi) instead of a single index, avoiding per-index closure overhead in
// hot kernels (the word-level dimension of parallelism). Panic recovery
// follows the Launch contract.
func (d *Device) LaunchChunked(name string, n int, fn func(lo, hi int)) error {
	start := time.Now()
	err := d.parallelRange(name, n, func(_ *Flight, lo, hi int) { fn(lo, hi) })
	d.record(name, n, time.Since(start), err != nil)
	return err
}

// LaunchWave is LaunchChunked for wavefront kernels: bodies whose indices
// carry dependencies on lower indices of the same launch and therefore
// synchronise across chunks (spinning on per-item done flags). Two launch
// properties make such waits safe. First, chunks are claimed in ascending
// index order, so when the flat index space is topologically sorted the
// goroutine holding the lowest in-flight chunk never has anything to wait
// for, and the launch always makes progress. Second, once any chunk panics
// the remaining chunks are drained without executing — the items they would
// have completed never complete — so every spin loop must poll
// Flight.Failed and bail out when it reports true, or the launch would
// deadlock exactly when a sibling chunk failed. Panic recovery and the
// KernelPanicError contract otherwise follow Launch.
func (d *Device) LaunchWave(name string, n int, fn func(fl *Flight, lo, hi int)) error {
	start := time.Now()
	err := d.parallelRange(name, n, fn)
	d.record(name, n, time.Since(start), err != nil)
	return err
}

// Flight identifies one kernel launch in flight; LaunchWave passes it to
// every chunk of the body. It exists so cross-chunk spin waits can observe a
// sibling chunk's failure instead of waiting forever on work a drained chunk
// will never produce.
type Flight struct {
	t *task
}

// Failed reports whether any chunk of this launch has panicked (after which
// the remaining chunks are drained without executing). A kernel body that
// waits on work from other chunks must poll Failed inside the wait loop and
// abandon the chunk when it returns true; the launch then synchronises and
// returns the recovered *KernelPanicError. Failed on a nil Flight (a
// serial, single-chunk launch, where no sibling chunks exist) reports false.
func (fl *Flight) Failed() bool {
	return fl != nil && fl.t.err.Load() != nil
}

// Strata groups a leveled index space into launch batches: sizes[i] is the
// item count of level i, and consecutive levels are fused into one batch
// until it holds at least minBatch items (the final batch may be smaller).
// The returned [lo, hi) ranges partition the flat level-ordered item space,
// in order. Batching levels trades one kernel launch per level for one per
// stratum — a wavefront body resolves the intra-stratum dependencies — and
// the launch's own chunking slices oversized levels along the item
// dimension as usual. minBatch <= 1 keeps every non-empty level separate,
// reproducing per-level dispatch.
func Strata(sizes []int, minBatch int) [][2]int {
	var out [][2]int
	lo, n := 0, 0
	for _, s := range sizes {
		n += s
		if n-lo >= minBatch && n > lo {
			out = append(out, [2]int{lo, n})
			lo = n
		}
	}
	if n > lo {
		out = append(out, [2]int{lo, n})
	}
	return out
}

func (d *Device) record(name string, n int, dt time.Duration, panicked bool) {
	d.mu.Lock()
	ks := d.stats[name]
	if ks == nil {
		ks = &KernelStats{}
		d.stats[name] = ks
	}
	ks.Launches++
	ks.Items += int64(n)
	ks.Time += dt
	if panicked {
		ks.Panics++
	}
	d.mu.Unlock()
	if obs := d.observer.Load(); obs != nil {
		(*obs)(name, n, dt)
	}
}

// parallelRange distributes [0, n) over the pool in contiguous chunks. The
// chunk size is floored at n/(w·chunksPerWorker) so uneven per-index cost
// still balances through dynamic claiming, and the number of woken workers
// is capped at the number of chunks actually available, so a tiny index
// space on a wide device neither degrades to per-index atomic traffic nor
// wakes workers that would find nothing to do.
func (d *Device) parallelRange(name string, n int, fn func(fl *Flight, lo, hi int)) error {
	if n <= 0 {
		return nil
	}
	w := d.workers
	flt := d.faults.Load()
	if w <= 1 || n == 1 || d.pool == nil {
		return errOrNil(execGuarded(name, flt, nil, 0, n, fn))
	}
	const chunksPerWorker = 4
	chunk := n / (w * chunksPerWorker)
	if chunk < 1 {
		chunk = 1
	}
	nchunks := (n + chunk - 1) / chunk
	if nchunks <= 1 {
		return errOrNil(execGuarded(name, flt, nil, 0, n, fn))
	}
	t := &task{fn: fn, name: name, faults: flt, n: int64(n), chunk: int64(chunk), remaining: int64(n), done: make(chan struct{})}
	t.fl = &Flight{t: t}
	if tr := d.tracer.Load(); tr.Enabled() {
		t.tr = tr
	}
	// The launcher claims chunks too, so at most nchunks-1 helpers are
	// useful; submit caps the wake-ups at the pool size.
	d.pool.submit(t, nchunks-1)
	t.run(d.pool, trace.ControlTrack)
	if atomic.LoadInt64(&t.remaining) != 0 {
		<-t.done
	}
	return errOrNil(t.err.Load())
}

// errOrNil converts a typed-nil *KernelPanicError into an untyped nil error
// so callers can compare the launch result against nil directly.
func errOrNil(e *KernelPanicError) error {
	if e == nil {
		return nil
	}
	return e
}

// execGuarded runs one chunk of a kernel body under panic recovery,
// consulting the par.worker.panic fault hook first. It returns the recovered
// panic as a *KernelPanicError, or nil when the chunk completed. fl is nil
// on serial single-chunk launches.
func execGuarded(name string, flt *fault.Injector, fl *Flight, lo, hi int, fn func(fl *Flight, lo, hi int)) (err *KernelPanicError) {
	defer func() {
		if r := recover(); r != nil {
			err = &KernelPanicError{Kernel: name, Value: r, Stack: debug.Stack()}
		}
	}()
	flt.Panic(fault.HookWorkerPanic)
	fn(fl, lo, hi)
	return nil
}

// task is one kernel launch in flight: a flat index space carved into
// chunks that are claimed lock-free through the next ticket.
type task struct {
	fn        func(fl *Flight, lo, hi int)
	fl        *Flight // the launch handle handed to every parallel chunk
	name      string
	n         int64
	chunk     int64
	next      int64 // atomic ticket: prefix of claimed indices
	remaining int64 // atomic count of indices not yet executed
	dequeued  int32 // atomic flag: task removed from the pool queue
	done      chan struct{}

	// err records the first kernel panic recovered on any goroutine; once
	// set, later chunks are drained (claimed and counted) without running
	// the body, so the launch synchronises quickly instead of piling up
	// further panics on known-poisoned state.
	err atomic.Pointer[KernelPanicError]

	// faults rides in from the device at launch time (nil when disarmed).
	faults *fault.Injector

	// tr is set at launch time only while tracing is enabled; workers read
	// it to record their participation in the kernel.
	tr *trace.Tracer
}

// run executes the task on the given track: the plain chunk-claiming loop
// when tracing is off, or the same loop bracketed by one per-worker span
// and worker-occupancy counter samples when a tracer rode in on the task.
func (t *task) run(p *pool, track int32) {
	if t.tr == nil {
		t.runChunks(p)
		return
	}
	buf := t.tr.Buf(track)
	buf.Counter("workers_busy", int64(atomic.AddInt32(&p.busy, 1)))
	sp := buf.Begin(trace.CatKernel, t.name)
	items := t.runChunks(p)
	sp.Arg("items", items)
	sp.End()
	buf.Counter("workers_busy", int64(atomic.AddInt32(&p.busy, -1)))
}

// runChunks claims and executes chunks until the task is exhausted and
// returns the number of indices this goroutine executed. Whoever observes
// exhaustion removes the task from the queue; whoever completes the final
// index closes done.
func (t *task) runChunks(p *pool) int64 {
	items := int64(0)
	for {
		lo := atomic.AddInt64(&t.next, t.chunk) - t.chunk
		if lo >= t.n {
			t.dequeue(p)
			return items
		}
		hi := lo + t.chunk
		if hi > t.n {
			hi = t.n
		}
		if t.err.Load() == nil {
			if err := execGuarded(t.name, t.faults, t.fl, int(lo), int(hi), t.fn); err != nil {
				t.err.CompareAndSwap(nil, err)
			}
		}
		items += hi - lo
		if atomic.AddInt64(&t.remaining, lo-hi) == 0 {
			t.dequeue(p)
			close(t.done)
			return items
		}
	}
}

func (t *task) dequeue(p *pool) {
	if !atomic.CompareAndSwapInt32(&t.dequeued, 0, 1) {
		return
	}
	p.mu.Lock()
	for i, q := range p.queue {
		if q == t {
			p.queue = append(p.queue[:i], p.queue[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
}

// pool is the persistent worker set. It is split from Device so that parked
// workers keep only the pool alive, letting the finalizer on Device fire.
type pool struct {
	workers int
	busy    int32 // atomic: goroutines inside a traced task (occupancy)

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*task // tasks with unclaimed chunks, oldest first
	started bool
	closed  bool
}

func newPool(workers int) *pool {
	p := &pool{workers: workers}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// submit enqueues a task and wakes up to wake workers (capped at the pool
// size), spawning the workers on first use.
func (p *pool) submit(t *task, wake int) {
	p.mu.Lock()
	if !p.started && !p.closed {
		p.started = true
		for i := 0; i < p.workers; i++ {
			go p.worker(int32(i + 1))
		}
	}
	p.queue = append(p.queue, t)
	if wake >= p.workers {
		p.cond.Broadcast()
	} else {
		for i := 0; i < wake; i++ {
			p.cond.Signal()
		}
	}
	p.mu.Unlock()
}

// worker is one pooled goroutine; track is its stable trace-track id
// (1..W; the launching goroutine records on the control track).
func (p *pool) worker(track int32) {
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 { // closed and drained
			p.mu.Unlock()
			return
		}
		t := p.queue[0]
		p.mu.Unlock()
		t.run(p, track)
	}
}

func (p *pool) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Stats returns a copy of the per-kernel statistics accumulated so far.
func (d *Device) Stats() map[string]KernelStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]KernelStats, len(d.stats))
	for name, ks := range d.stats {
		out[name] = *ks
	}
	return out
}

// ResetStats clears the accumulated kernel statistics.
func (d *Device) ResetStats() {
	d.mu.Lock()
	d.stats = make(map[string]*KernelStats)
	d.mu.Unlock()
}

// Profile renders the kernel statistics as a small table sorted by
// decreasing total time, suitable for logs.
func (d *Device) Profile() string {
	stats := d.Stats()
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return stats[names[i]].Time > stats[names[j]].Time })
	var b strings.Builder
	fmt.Fprintf(&b, "%-32s %10s %14s %12s\n", "kernel", "launches", "items", "time")
	for _, name := range names {
		ks := stats[name]
		fmt.Fprintf(&b, "%-32s %10d %14d %12s\n", name, ks.Launches, ks.Items, ks.Time.Round(time.Microsecond))
	}
	return b.String()
}
