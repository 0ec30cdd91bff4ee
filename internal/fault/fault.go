// Package fault is a deterministic, seed-driven fault-injection registry.
//
// Production sweeping must assume that kernels panic, rounds stall and
// backends exhaust their resources mid-run; the engine's graceful-degradation
// machinery (panic recovery in par.Device, per-phase watchdogs in core,
// runner restart in the service layer) therefore needs a way to provoke those
// failures on demand, repeatably, in tests and soak runs. An Injector holds a
// set of armed hooks — well-known points in the engine, named like
// "par.worker.panic" — each with a firing rule driven by a seeded RNG and
// per-hook atomic visit counters. Code under test asks Fire(hook) at the hook
// point; the call is nil-safe and a disabled registry costs exactly one nil
// check, so shipping the hook points in production code is free.
//
// A hook's firing rule is written in the spec grammar accepted by Parse:
//
//	spec  := entry (';' entry)*
//	entry := hook (':' param (',' param)*)?
//	param := 'p=' float        fire with this probability per visit
//	       | 'at=' n          fire exactly on the n-th visit (1-based)
//	       | 'every=' n       fire on every n-th visit
//	       | 'limit=' n       stop after n fires (0 = unlimited)
//	       | 'delay=' dur     stall duration for delay-style hooks
//
// For example "par.worker.panic:at=1;sim.round.stall:p=0.1,delay=5ms" panics
// the first executed kernel chunk and stalls each simulation round with
// probability 0.1. An entry with no params fires on every visit. All
// randomness comes from a per-hook splitmix64 stream derived from the seed
// given to Parse, so a spec+seed pair provokes the same set of faults on
// every run.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// The hook points wired into the engine. Injecting an unknown hook name is a
// Parse error, so typos in a -faults spec fail fast instead of silently
// never firing.
const (
	// HookWorkerPanic panics inside a par.Device kernel chunk; the pool
	// recovers it into a KernelPanicError returned from the launch.
	HookWorkerPanic = "par.worker.panic"
	// HookSimStall stalls an exhaustive-simulation round by the hook's
	// delay, provoking the core engine's per-phase watchdog.
	HookSimStall = "sim.round.stall"
	// HookSATOOM simulates a resource blow-up in the SAT sweeping backend
	// by panicking before a pair's SAT call; satsweep recovers it into an
	// Undecided result with the fault recorded.
	HookSATOOM = "satsweep.pair.oom"
	// HookRunnerCrash crashes a service runner between jobs; the runner
	// recovers, re-queues the job once with backoff, then fails it.
	HookRunnerCrash = "service.runner.crash"
	// HookClusterKill kills a cluster worker node. On a worker's heartbeat
	// agent it invokes the agent's kill function (cecd -worker exits as if
	// SIGKILLed); on a coordinator it sabotages the dispatch target, so the
	// coordinator declares the node dead and requeues the jobs it held.
	HookClusterKill = "cluster.worker.kill"
)

// Hooks returns the catalogue of known hook names, sorted.
func Hooks() []string {
	return []string{HookClusterKill, HookWorkerPanic, HookSATOOM, HookRunnerCrash, HookSimStall}
}

// defaultStall is the delay applied by stall-style hooks when the spec does
// not set one explicitly.
const defaultStall = 50 * time.Millisecond

// hook is one armed hook point. Firing rules are immutable after Parse; the
// visit/fired counters and the RNG state are atomics so Fire is safe from
// any number of worker goroutines without a lock.
type hook struct {
	prob  float64       // probability per visit (used when at and every are 0)
	at    uint64        // fire exactly on this visit (1-based)
	every uint64        // fire on every n-th visit
	limit uint64        // cap on fires (0 = unlimited)
	delay time.Duration // stall duration for delay-style hooks

	visits atomic.Uint64
	fired  atomic.Uint64
	rng    atomic.Uint64 // splitmix64 state
}

// fire applies the hook's rule to the next visit.
func (h *hook) fire() bool {
	n := h.visits.Add(1)
	var hit bool
	switch {
	case h.at > 0:
		hit = n == h.at
	case h.every > 0:
		hit = n%h.every == 0
	default:
		hit = h.prob >= 1 || (h.prob > 0 && h.rand() < h.prob)
	}
	if !hit {
		return false
	}
	fired := h.fired.Add(1)
	if h.limit > 0 && fired > h.limit {
		h.fired.Add(^uint64(0)) // undo: over the cap, not a real fire
		return false
	}
	return true
}

// rand draws the next uniform float64 in [0, 1) from the hook's splitmix64
// stream. A single atomic add advances the stream, so concurrent visitors
// draw distinct values from the same deterministic sequence.
func (h *hook) rand() float64 {
	x := h.rng.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// Injector is an armed set of fault hooks. The zero value and the nil
// pointer are both valid, permanently-disabled injectors; every method is
// nil-safe so hook points never need a guard at the call site. An Injector
// is safe for concurrent use and is typically shared by every layer of one
// engine run (device, simulator, SAT sweeper, service runner).
type Injector struct {
	hooks map[string]*hook
	spec  string
	seed  int64
}

// Parse compiles a fault spec (see the package comment for the grammar)
// into an Injector whose random hooks draw from streams seeded by seed.
// An empty spec yields a valid injector with no armed hooks. Unknown hook
// names and malformed params are errors.
func Parse(spec string, seed int64) (*Injector, error) {
	known := make(map[string]bool, 4)
	for _, h := range Hooks() {
		known[h] = true
	}
	in := &Injector{hooks: make(map[string]*hook), spec: spec, seed: seed}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, params, _ := strings.Cut(entry, ":")
		name = strings.TrimSpace(name)
		if !known[name] {
			return nil, fmt.Errorf("fault: unknown hook %q (known: %s)", name, strings.Join(Hooks(), ", "))
		}
		if in.hooks[name] != nil {
			return nil, fmt.Errorf("fault: hook %q armed twice", name)
		}
		h := &hook{prob: 1, delay: defaultStall}
		// Each hook gets its own stream so arming one hook never perturbs
		// the draw sequence of another.
		h.rng.Store(uint64(seed) ^ hashName(name))
		for _, p := range strings.Split(params, ",") {
			p = strings.TrimSpace(p)
			if p == "" {
				continue
			}
			key, val, ok := strings.Cut(p, "=")
			if !ok {
				return nil, fmt.Errorf("fault: hook %q: param %q is not key=value", name, p)
			}
			if err := h.set(key, val); err != nil {
				return nil, fmt.Errorf("fault: hook %q: %v", name, err)
			}
		}
		in.hooks[name] = h
	}
	return in, nil
}

// MustParse is Parse for specs known valid at compile time; it panics on
// error and is intended for tests and examples.
func MustParse(spec string, seed int64) *Injector {
	in, err := Parse(spec, seed)
	if err != nil {
		panic(err)
	}
	return in
}

// set applies one key=value param to the hook's firing rule.
func (h *hook) set(key, val string) error {
	switch key {
	case "p":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f < 0 || f > 1 {
			return fmt.Errorf("p=%s: want a probability in [0, 1]", val)
		}
		h.prob = f
	case "at":
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil || n == 0 {
			return fmt.Errorf("at=%s: want a positive visit number", val)
		}
		h.at = n
	case "every":
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil || n == 0 {
			return fmt.Errorf("every=%s: want a positive period", val)
		}
		h.every = n
	case "limit":
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return fmt.Errorf("limit=%s: want a fire cap", val)
		}
		h.limit = n
	case "delay":
		d, err := time.ParseDuration(val)
		if err != nil || d < 0 {
			return fmt.Errorf("delay=%s: want a non-negative duration", val)
		}
		h.delay = d
	default:
		return fmt.Errorf("unknown param %q (want p, at, every, limit or delay)", key)
	}
	return nil
}

// hashName folds a hook name into a 64-bit stream-separation constant (FNV-1a).
func hashName(name string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// Fire reports whether the named hook fires on this visit. On a nil
// injector, or for a hook the spec did not arm, it returns false after a
// single pointer check — the zero-cost disabled path that lets hook points
// live permanently in hot kernels.
func (in *Injector) Fire(name string) bool {
	if in == nil {
		return false
	}
	h := in.hooks[name]
	if h == nil {
		return false
	}
	return h.fire()
}

// Delay returns the stall duration configured for the named hook (the
// spec's delay param, or a 50ms default). It returns 0 on a nil injector or
// an unarmed hook.
func (in *Injector) Delay(name string) time.Duration {
	if in == nil {
		return 0
	}
	h := in.hooks[name]
	if h == nil {
		return 0
	}
	return h.delay
}

// Counts returns the number of times each armed hook actually fired, keyed
// by hook name. Hooks that never fired are included with a zero count so
// metrics can expose the full armed set. A nil injector returns nil.
func (in *Injector) Counts() map[string]uint64 {
	if in == nil {
		return nil
	}
	out := make(map[string]uint64, len(in.hooks))
	for name, h := range in.hooks {
		out[name] = h.fired.Load()
	}
	return out
}

// Visits returns the number of times each armed hook was consulted, keyed
// by hook name. A nil injector returns nil.
func (in *Injector) Visits() map[string]uint64 {
	if in == nil {
		return nil
	}
	out := make(map[string]uint64, len(in.hooks))
	for name, h := range in.hooks {
		out[name] = h.visits.Load()
	}
	return out
}

// Armed reports whether the named hook is armed in this injector
// (regardless of whether it has fired yet).
func (in *Injector) Armed(name string) bool {
	return in != nil && in.hooks[name] != nil
}

// String returns the spec the injector was parsed from, with the armed
// hooks listed in sorted order when the original spec is unavailable.
func (in *Injector) String() string {
	if in == nil {
		return ""
	}
	if in.spec != "" {
		return in.spec
	}
	names := make([]string, 0, len(in.hooks))
	for name := range in.hooks {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ";")
}

// InjectedFault is the value an injected panic carries, so recovery sites
// (and humans reading a fault chain) can tell a provoked fault from a real
// bug. It implements error.
type InjectedFault struct {
	// Hook is the name of the hook that fired.
	Hook string
}

// Error implements the error interface.
func (f *InjectedFault) Error() string {
	return fmt.Sprintf("injected fault: %s", f.Hook)
}

// Panic fires the named hook and, when it hits, panics with an
// *InjectedFault. It is the one-liner used by panic-style hook points.
func (in *Injector) Panic(name string) {
	if in.Fire(name) {
		panic(&InjectedFault{Hook: name})
	}
}

// Stall fires the named hook and, when it hits, sleeps for the hook's
// configured delay. It is the one-liner used by stall-style hook points.
func (in *Injector) Stall(name string) {
	if in.Fire(name) {
		time.Sleep(in.Delay(name))
	}
}
