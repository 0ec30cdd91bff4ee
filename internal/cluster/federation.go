package cluster

import (
	"container/list"
	"fmt"
	"sync"
	"time"

	"simsweep"
	"simsweep/internal/miter"
	"simsweep/internal/service"
)

// Verdict is the federation wire form of a decided check result: enough to
// answer a future submission of the same key without re-running anything,
// and nothing else. Degraded results never become Verdicts — the
// at-most-once-verdict guarantee only covers results the engines stand
// behind unconditionally.
type Verdict struct {
	Verdict        string  `json:"verdict"`
	CEX            []int   `json:"cex,omitempty"`
	EngineUsed     string  `json:"engine_used,omitempty"`
	RuntimeMS      float64 `json:"runtime_ms,omitempty"`
	SATTimeMS      float64 `json:"sat_time_ms,omitempty"`
	ReducedPercent float64 `json:"reduced_percent,omitempty"`
	// Node names the worker that originally decided the verdict.
	Node string `json:"node,omitempty"`
}

// Decided reports whether the verdict string names a decided outcome.
func (v Verdict) Decided() bool {
	o, ok := miter.ParseOutcome(v.Verdict)
	return ok && o != simsweep.Undecided
}

// Result converts the wire verdict back into an engine result. ok is false
// when the verdict string is unknown or undecided.
func (v Verdict) Result() (simsweep.Result, bool) {
	o, ok := miter.ParseOutcome(v.Verdict)
	if !ok || o == simsweep.Undecided {
		return simsweep.Result{}, false
	}
	res := simsweep.Result{
		Outcome:        o,
		EngineUsed:     v.EngineUsed,
		Runtime:        time.Duration(v.RuntimeMS * float64(time.Millisecond)),
		SATTime:        time.Duration(v.SATTimeMS * float64(time.Millisecond)),
		ReducedPercent: v.ReducedPercent,
	}
	if o == simsweep.NotEquivalent && v.CEX != nil {
		res.CEX = make([]bool, len(v.CEX))
		for i, b := range v.CEX {
			res.CEX[i] = b != 0
		}
	}
	return res, true
}

// verdictOfResult packages a decided, non-degraded result for the wire.
func verdictOfResult(res simsweep.Result, node string) Verdict {
	v := Verdict{
		Verdict:        res.Outcome.String(),
		EngineUsed:     res.EngineUsed,
		RuntimeMS:      float64(res.Runtime) / float64(time.Millisecond),
		SATTimeMS:      float64(res.SATTime) / float64(time.Millisecond),
		ReducedPercent: res.ReducedPercent,
		Node:           node,
	}
	if res.Outcome == simsweep.NotEquivalent && res.CEX != nil {
		v.CEX = make([]int, len(res.CEX))
		for i, b := range res.CEX {
			if b {
				v.CEX[i] = 1
			}
		}
	}
	return v
}

// verdictOfJobJSON lifts a worker's terminal job record into a wire
// verdict. ok is false unless the job finished "done" with a decided,
// non-degraded verdict — the only records safe to federate.
func verdictOfJobJSON(j service.JobJSON, node string) (Verdict, bool) {
	if service.State(j.State) != service.StateDone || j.Degraded {
		return Verdict{}, false
	}
	v := Verdict{
		Verdict:        j.Verdict,
		CEX:            j.CEX,
		EngineUsed:     j.EngineUsed,
		RuntimeMS:      j.RuntimeMS,
		SATTimeMS:      j.SATTimeMS,
		ReducedPercent: j.ReducedPercent,
		Node:           node,
	}
	if !v.Decided() {
		return Verdict{}, false
	}
	return v, true
}

// parseKey inverts service.Key.String(): "p:%016x:%016x" / "m:...".
func parseKey(s string) (service.Key, error) {
	var k service.Key
	var mode rune
	if _, err := fmt.Sscanf(s, "%c:%16x:%16x", &mode, &k.Lo, &k.Hi); err != nil {
		return service.Key{}, fmt.Errorf("cluster: bad key %q: %w", s, err)
	}
	if mode != 'p' && mode != 'm' {
		return service.Key{}, fmt.Errorf("cluster: bad key mode %q", s)
	}
	k.Mode = byte(mode)
	return k, nil
}

// fedCache is the coordinator's federated verdict index: an LRU over
// decided, non-degraded verdicts keyed by semantic job identity. A verdict
// decided anywhere in the cluster lands here (via settle or an explicit
// PUT from a worker's RemoteCache) and is then a hit everywhere — for
// submissions to the coordinator and for workers' Lookup calls alike.
// Self-locking: read on every submission, written off the dispatch path.
type fedCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recent; values are *fedEntry
	byKey map[service.Key]*list.Element
	hits  uint64
	puts  uint64
}

type fedEntry struct {
	key service.Key
	v   Verdict
	// wire is the terminal job record pre-encoded for the submit fast
	// path. A decided verdict never changes, so the bytes are rendered
	// once (lazily, on the first federation hit) and served verbatim for
	// every replay after that.
	wire []byte
}

func newFedCache(capacity int) *fedCache {
	return &fedCache{cap: capacity, order: list.New(), byKey: make(map[service.Key]*list.Element)}
}

func (f *fedCache) get(key service.Key) (Verdict, []byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	el, ok := f.byKey[key]
	if !ok {
		return Verdict{}, nil, false
	}
	f.order.MoveToFront(el)
	f.hits++
	e := el.Value.(*fedEntry)
	return e.v, e.wire, true
}

// attachWire stores the pre-encoded fast-path response for a key that is
// already decided. Last write wins, which is harmless: every render of a
// decided key is equivalent.
func (f *fedCache) attachWire(key service.Key, wire []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if el, ok := f.byKey[key]; ok {
		el.Value.(*fedEntry).wire = wire
	}
}

// put stores a verdict; undecided ones are rejected so a sloppy publisher
// cannot poison the index. First write wins: a key already decided keeps
// its original verdict (the at-most-once guarantee extends to the index).
func (f *fedCache) put(key service.Key, v Verdict) {
	if !v.Decided() {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if el, ok := f.byKey[key]; ok {
		f.order.MoveToFront(el)
		return
	}
	f.puts++
	f.byKey[key] = f.order.PushFront(&fedEntry{key: key, v: v})
	for f.order.Len() > f.cap {
		last := f.order.Back()
		f.order.Remove(last)
		delete(f.byKey, last.Value.(*fedEntry).key)
	}
}

func (f *fedCache) len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.order.Len()
}

func (f *fedCache) stats() (hits, puts uint64, entries int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hits, f.puts, f.order.Len()
}
