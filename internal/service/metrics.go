package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Histogram bucket bounds (upper bounds, seconds or items).
var (
	phaseBuckets  = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}
	launchBuckets = []float64{64, 256, 1024, 4096, 1 << 14, 1 << 16, 1 << 18, 1 << 20}
	queueBuckets  = []float64{0.001, 0.01, 0.1, 0.5, 1, 5, 30}
)

// histogram is a minimal self-synchronising Prometheus histogram:
// cumulative bucket counts over fixed upper bounds plus sum and count.
type histogram struct {
	mu     sync.Mutex
	bounds []float64 // sorted upper bounds; +Inf is implicit
	counts []uint64  // len(bounds)+1, non-cumulative per bucket
	sum    float64
	total  uint64
}

func newHistogram(bounds ...float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// write renders the histogram in the Prometheus text format. labels is the
// literal label set inside the braces ("" for none, `kind="P"` etc.).
func (h *histogram) write(w io.Writer, name, labels string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	sep := ""
	if labels != "" {
		sep = ","
	}
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, formatBound(b), cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
		fmt.Fprintf(w, "%s_count %d\n", name, h.total)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, h.sum)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.total)
	}
}

func formatBound(b float64) string {
	return fmt.Sprintf("%g", b)
}

// writeHistograms renders the service's duration and size histograms.
func (s *Service) writeHistograms(w io.Writer) {
	fmt.Fprintf(w, "# HELP cecd_phase_duration_seconds Duration of executed engine phases by kind (P/G/L).\n")
	fmt.Fprintf(w, "# TYPE cecd_phase_duration_seconds histogram\n")
	kinds := make([]string, 0, len(s.phaseHists))
	for k := range s.phaseHists {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		s.phaseHists[k].write(w, "cecd_phase_duration_seconds", fmt.Sprintf("kind=%q", k))
	}
	fmt.Fprintf(w, "# HELP cecd_kernel_launch_items Index-space size of parallel kernel launches.\n")
	fmt.Fprintf(w, "# TYPE cecd_kernel_launch_items histogram\n")
	s.launchHist.write(w, "cecd_kernel_launch_items", "")
	fmt.Fprintf(w, "# HELP cecd_queue_wait_seconds Time jobs spent queued before a runner picked them up.\n")
	fmt.Fprintf(w, "# TYPE cecd_queue_wait_seconds histogram\n")
	s.queueHist.write(w, "cecd_queue_wait_seconds", "")
}

// writeMetrics renders the counters in the Prometheus text exposition
// format (plain counters and gauges; no client library needed).
func writeMetrics(w io.Writer, st Stats) {
	fmt.Fprintf(w, "# HELP cecd_queue_depth Jobs waiting for a runner slot.\n")
	fmt.Fprintf(w, "# TYPE cecd_queue_depth gauge\n")
	fmt.Fprintf(w, "cecd_queue_depth %d\n", st.QueueDepth)
	fmt.Fprintf(w, "# HELP cecd_running_jobs Jobs currently executing (at most cecd_max_concurrent).\n")
	fmt.Fprintf(w, "# TYPE cecd_running_jobs gauge\n")
	fmt.Fprintf(w, "cecd_running_jobs %d\n", st.Running)
	fmt.Fprintf(w, "# TYPE cecd_max_concurrent gauge\n")
	fmt.Fprintf(w, "cecd_max_concurrent %d\n", st.Concurrent)
	fmt.Fprintf(w, "# TYPE cecd_workers gauge\n")
	fmt.Fprintf(w, "cecd_workers %d\n", st.Workers)
	fmt.Fprintf(w, "# TYPE cecd_cache_hits_total counter\n")
	fmt.Fprintf(w, "cecd_cache_hits_total %d\n", st.CacheHits)
	fmt.Fprintf(w, "# TYPE cecd_cache_misses_total counter\n")
	fmt.Fprintf(w, "cecd_cache_misses_total %d\n", st.CacheMisses)
	fmt.Fprintf(w, "# TYPE cecd_cache_entries gauge\n")
	fmt.Fprintf(w, "cecd_cache_entries %d\n", st.CacheSize)
	fmt.Fprintf(w, "# TYPE cecd_queue_cap gauge\n")
	fmt.Fprintf(w, "cecd_queue_cap %d\n", st.QueueCap)
	fmt.Fprintf(w, "# HELP cecd_coalesced_total Submissions coalesced onto an identical in-flight job (single-flight).\n")
	fmt.Fprintf(w, "# TYPE cecd_coalesced_total counter\n")
	fmt.Fprintf(w, "cecd_coalesced_total %d\n", st.Coalesced)

	fmt.Fprintf(w, "# HELP cecd_jobs_total Finished jobs by terminal state.\n")
	fmt.Fprintf(w, "# TYPE cecd_jobs_total counter\n")
	states := make([]string, 0, len(st.ByOutcome))
	for s := range st.ByOutcome {
		states = append(states, string(s))
	}
	sort.Strings(states)
	for _, s := range states {
		fmt.Fprintf(w, "cecd_jobs_total{state=%q} %d\n", s, st.ByOutcome[State(s)])
	}

	fmt.Fprintf(w, "# HELP cecd_latency_seconds End-to-end latency of completed (uncached) jobs.\n")
	fmt.Fprintf(w, "# TYPE cecd_latency_seconds summary\n")
	fmt.Fprintf(w, "cecd_latency_seconds{quantile=\"0.5\"} %g\n", st.P50.Seconds())
	fmt.Fprintf(w, "cecd_latency_seconds{quantile=\"0.99\"} %g\n", st.P99.Seconds())

	fmt.Fprintf(w, "# HELP cecd_runner_crashes_total Recovered runner panics (injected or real).\n")
	fmt.Fprintf(w, "# TYPE cecd_runner_crashes_total counter\n")
	fmt.Fprintf(w, "cecd_runner_crashes_total %d\n", st.RunnerCrashes)
	fmt.Fprintf(w, "# HELP cecd_requeues_total Jobs given a second attempt after a runner crash.\n")
	fmt.Fprintf(w, "# TYPE cecd_requeues_total counter\n")
	fmt.Fprintf(w, "cecd_requeues_total %d\n", st.Requeues)
	fmt.Fprintf(w, "# HELP cecd_degraded_total Jobs whose result survived internal faults (Result.Degraded).\n")
	fmt.Fprintf(w, "# TYPE cecd_degraded_total counter\n")
	fmt.Fprintf(w, "cecd_degraded_total %d\n", st.Degraded)
	if st.FaultsByHook != nil {
		fmt.Fprintf(w, "# HELP cecd_faults_total Fires of each armed fault-injection hook.\n")
		fmt.Fprintf(w, "# TYPE cecd_faults_total counter\n")
		hooks := make([]string, 0, len(st.FaultsByHook))
		for h := range st.FaultsByHook {
			hooks = append(hooks, h)
		}
		sort.Strings(hooks)
		for _, h := range hooks {
			fmt.Fprintf(w, "cecd_faults_total{hook=%q} %d\n", h, st.FaultsByHook[h])
		}
	}
}
