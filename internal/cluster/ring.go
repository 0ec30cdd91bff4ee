package cluster

import (
	"sort"
)

// hashRing is a consistent-hash ring over worker node IDs. Each node owns
// `replicas` virtual points; a key is owned by the first point clockwise
// from its hash. Adding or removing one node moves only the keys adjacent
// to its points (~1/n of the space), so a membership change re-shards a
// minimal slice of the in-flight work — the property the requeue-on-death
// path leans on to keep re-dispatch churn proportional to the dead node's
// share, not the cluster's.
//
// The ring is not self-locking; the Coordinator serialises access under
// its own mutex.
type hashRing struct {
	replicas int
	points   []ringPoint // sorted by hash
	nodes    map[string]bool
}

type ringPoint struct {
	hash uint64
	node string
}

func newRing(replicas int) *hashRing {
	return &hashRing{replicas: replicas, nodes: make(map[string]bool)}
}

// Add inserts a node's virtual points. Adding a present node is a no-op.
func (r *hashRing) Add(node string) {
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{hash: pointHash(node, i), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a node's virtual points. Removing an absent node is a
// no-op.
func (r *hashRing) Remove(node string) {
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Owner returns the node owning the hash, or "" on an empty ring.
func (r *hashRing) Owner(h uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the first point clockwise past the top of the space
	}
	return r.points[i].node
}

// Len returns the number of member nodes.
func (r *hashRing) Len() int { return len(r.nodes) }

// Nodes returns the member node IDs, sorted.
func (r *hashRing) Nodes() []string {
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// pointHash spreads a node's i-th virtual point over the 64-bit ring:
// FNV-1a over the node name, stream-separated by the replica index, then a
// splitmix64 finaliser so consecutive replicas land far apart.
func pointHash(node string, i int) uint64 {
	h := uint64(1469598103934665603)
	for k := 0; k < len(node); k++ {
		h ^= uint64(node[k])
		h *= 1099511628211
	}
	h ^= uint64(i) * 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
