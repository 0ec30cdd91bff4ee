package service

import (
	"container/list"

	"simsweep"
)

// Key identifies a check semantically: the canonical structural
// fingerprints of the two circuits of a pair (order-normalised, so (B, A)
// resubmissions hit the (A, B) entry), or the fingerprint of a miter. The
// engine, seed and limits are deliberately excluded: only decided verdicts
// are cached, and a decided verdict is a property of the circuits alone.
// The cluster coordinator's verdict index uses the same key.
type Key struct {
	// Mode is 'p' for a pair and 'm' for a miter.
	Mode byte
	// Lo and Hi are the order-normalised fingerprints (equal in miter mode).
	Lo, Hi uint64
}

// KeyOf validates the request shape and derives its cache key.
func KeyOf(req Request) (Key, error) {
	switch {
	case req.Miter != nil && req.A == nil && req.B == nil:
		fp := req.Miter.Fingerprint()
		return Key{Mode: 'm', Lo: fp, Hi: fp}, nil
	case req.Miter == nil && req.A != nil && req.B != nil:
		fa, fb := req.A.Fingerprint(), req.B.Fingerprint()
		if fa > fb {
			fa, fb = fb, fa
		}
		return Key{Mode: 'p', Lo: fa, Hi: fb}, nil
	default:
		return Key{}, ErrBadRequest
	}
}

// lru is a plain LRU map over cached results. It is not self-locking; the
// Service serialises access under its own mutex.
type lru struct {
	cap   int
	order *list.List // front = most recent; values are *lruEntry
	byKey map[Key]*list.Element
}

type lruEntry struct {
	key Key
	res simsweep.Result
}

func newLRU(capacity int) *lru {
	return &lru{cap: capacity, order: list.New(), byKey: make(map[Key]*list.Element)}
}

func (c *lru) get(key Key) (simsweep.Result, bool) {
	el, ok := c.byKey[key]
	if !ok {
		return simsweep.Result{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).res, true
}

// put inserts a trimmed copy of the result: the verdict, counter-example
// and headline numbers are retained, the bulky artifacts (reduced miter,
// journal, pattern bank, phase records) are dropped so the cache footprint
// stays proportional to CacheSize, not to miter sizes.
func (c *lru) put(key Key, res simsweep.Result) {
	trimmed := TrimResult(res)
	if el, ok := c.byKey[key]; ok {
		el.Value.(*lruEntry).res = trimmed
		c.order.MoveToFront(el)
		return
	}
	c.byKey[key] = c.order.PushFront(&lruEntry{key: key, res: trimmed})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.byKey, last.Value.(*lruEntry).key)
	}
}

func (c *lru) len() int { return c.order.Len() }

// TrimResult strips a result down to the fields worth caching: the
// verdict, counter-example and headline numbers survive; bulky artifacts
// (reduced miter, journal, pattern bank, phase records) are dropped.
func TrimResult(res simsweep.Result) simsweep.Result {
	return simsweep.Result{
		Outcome:        res.Outcome,
		CEX:            res.CEX,
		Runtime:        res.Runtime,
		EngineUsed:     res.EngineUsed,
		ReducedPercent: res.ReducedPercent,
		SATTime:        res.SATTime,
	}
}
