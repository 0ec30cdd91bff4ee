package cluster

import (
	"container/list"

	"simsweep"
	"simsweep/internal/miter"
	"simsweep/internal/service"
)

// verdictIndex is the coordinator's verdict index: an LRU over the trimmed
// worker records of settled jobs with a decided, non-degraded verdict,
// keyed by semantic job identity. A CEC verdict is a property of the two
// circuits, not of the node that computed it, so a repeat submission of an
// indexed key is answered here without dispatching. Settlement is the only
// way in. Not self-locking: the Coordinator serialises access under its own
// mutex.
type verdictIndex struct {
	cap   int
	order *list.List // front = most recent; values are *indexEntry
	byKey map[service.Key]*list.Element
	puts  uint64
}

type indexEntry struct {
	key service.Key
	// rec is the deciding worker's record trimmed to the verdict, the
	// counter-example and the headline numbers, with Node naming the
	// worker.
	rec service.JobJSON
	// wire is the terminal job record pre-encoded for the submit fast
	// path. A decided verdict never changes, so the bytes are rendered
	// once (lazily, on the first hit) and served verbatim for every replay
	// after that.
	wire []byte
}

func newVerdictIndex(capacity int) *verdictIndex {
	return &verdictIndex{cap: capacity, order: list.New(), byKey: make(map[service.Key]*list.Element)}
}

// indexable reports whether a worker's terminal record may answer for its
// key: it finished "done" with a decided verdict and survived no faults.
// A degraded verdict is returned to its own caller only.
func indexable(jj service.JobJSON) bool {
	o, ok := miter.ParseOutcome(jj.Verdict)
	return ok && o != simsweep.Undecided && service.State(jj.State) == service.StateDone && !jj.Degraded
}

func (x *verdictIndex) get(key service.Key) (*indexEntry, bool) {
	el, ok := x.byKey[key]
	if !ok {
		return nil, false
	}
	x.order.MoveToFront(el)
	return el.Value.(*indexEntry), true
}

// put indexes the terminal record jj that node returned for key, when it is
// indexable. First write wins: a key already decided keeps its original
// verdict, so a later conflicting claim cannot flip it.
func (x *verdictIndex) put(key service.Key, jj service.JobJSON, node string) {
	if !indexable(jj) {
		return
	}
	if el, ok := x.byKey[key]; ok {
		x.order.MoveToFront(el)
		return
	}
	x.puts++
	rec := service.JobJSON{
		Verdict:        jj.Verdict,
		CEX:            jj.CEX,
		EngineUsed:     jj.EngineUsed,
		RuntimeMS:      jj.RuntimeMS,
		SATTimeMS:      jj.SATTimeMS,
		ReducedPercent: jj.ReducedPercent,
		Node:           node,
	}
	x.byKey[key] = x.order.PushFront(&indexEntry{key: key, rec: rec})
	for x.order.Len() > x.cap {
		last := x.order.Back()
		x.order.Remove(last)
		delete(x.byKey, last.Value.(*indexEntry).key)
	}
}
