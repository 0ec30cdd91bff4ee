package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"

	"simsweep/internal/service"
)

// NewHandler exposes a coordinator over HTTP. The /v1/jobs surface is
// wire-compatible with a single-node cecd — clients cannot tell a
// coordinator from a daemon, except that records carry a "node" field —
// plus the cluster control plane:
//
//	POST /v1/cluster/heartbeat  worker registration / liveness / load
//	GET  /v1/cluster/workers    registered workers and their load
//	GET  /readyz                503 until at least one worker is live
//	GET  /metrics               cecd_cluster_* counters and gauges
//
// Job traces are not forwarded: GET /v1/jobs/{id}/trace returns 404.
func NewHandler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		raw, err := readBody(w, r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		j, wire, status := c.Submit(raw)
		if status >= 400 {
			writeError(w, status, errors.New(j.Error))
			return
		}
		if wire != nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			w.Write(wire)
			return
		}
		writeJSON(w, status, j)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Jobs())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, err := c.Get(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, j)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, errors.New("cluster: traces are not forwarded by the coordinator"))
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, err := c.Cancel(r.PathValue("id"))
		switch {
		case errors.Is(err, service.ErrNotFound):
			writeError(w, http.StatusNotFound, err)
		case errors.Is(err, service.ErrFinished):
			writeJSON(w, http.StatusConflict, j)
		default:
			writeJSON(w, http.StatusOK, j)
		}
	})

	mux.HandleFunc("POST /v1/cluster/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var hb heartbeatWire
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&hb); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		n, err := c.Heartbeat(hb)
		if err != nil {
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		writeJSON(w, http.StatusOK, heartbeatReply{Workers: n})
	})
	mux.HandleFunc("GET /v1/cluster/workers", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Stats().Workers)
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !c.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "no live workers")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeClusterMetrics(w, c.Stats())
	})
	return mux
}

// writeClusterMetrics renders the coordinator's counters in the Prometheus
// text exposition format, matching the hand-rolled single-node style.
func writeClusterMetrics(w io.Writer, st Stats) {
	fmt.Fprintf(w, "# HELP cecd_cluster_workers Live workers.\n")
	fmt.Fprintf(w, "# TYPE cecd_cluster_workers gauge\n")
	fmt.Fprintf(w, "cecd_cluster_workers %d\n", len(st.Workers))
	fmt.Fprintf(w, "# HELP cecd_cluster_pending_jobs Jobs in the coordinator's queue, waiting for a worker's dispatcher.\n")
	fmt.Fprintf(w, "# TYPE cecd_cluster_pending_jobs gauge\n")
	fmt.Fprintf(w, "cecd_cluster_pending_jobs %d\n", st.Pending)
	fmt.Fprintf(w, "# TYPE cecd_cluster_submitted_total counter\n")
	fmt.Fprintf(w, "cecd_cluster_submitted_total %d\n", st.Submitted)
	fmt.Fprintf(w, "# HELP cecd_cluster_fed_hits_total Submissions settled from the verdict index.\n")
	fmt.Fprintf(w, "# TYPE cecd_cluster_fed_hits_total counter\n")
	fmt.Fprintf(w, "cecd_cluster_fed_hits_total %d\n", st.FedHits)
	fmt.Fprintf(w, "# TYPE cecd_cluster_fed_index_puts_total counter\n")
	fmt.Fprintf(w, "cecd_cluster_fed_index_puts_total %d\n", st.FedIndexPuts)
	fmt.Fprintf(w, "# TYPE cecd_cluster_fed_entries gauge\n")
	fmt.Fprintf(w, "cecd_cluster_fed_entries %d\n", st.FedIndexEntries)
	fmt.Fprintf(w, "# HELP cecd_cluster_coalesced_total Submissions coalesced onto an identical in-flight job.\n")
	fmt.Fprintf(w, "# TYPE cecd_cluster_coalesced_total counter\n")
	fmt.Fprintf(w, "cecd_cluster_coalesced_total %d\n", st.Coalesced)
	fmt.Fprintf(w, "# TYPE cecd_cluster_dispatches_total counter\n")
	fmt.Fprintf(w, "cecd_cluster_dispatches_total %d\n", st.Dispatches)
	fmt.Fprintf(w, "# HELP cecd_cluster_requeues_total Jobs put back at the head of the queue after their worker died.\n")
	fmt.Fprintf(w, "# TYPE cecd_cluster_requeues_total counter\n")
	fmt.Fprintf(w, "cecd_cluster_requeues_total %d\n", st.Requeues)
	fmt.Fprintf(w, "# HELP cecd_cluster_worker_deaths_total Workers declared dead (timeout, transport failure or sabotage).\n")
	fmt.Fprintf(w, "# TYPE cecd_cluster_worker_deaths_total counter\n")
	fmt.Fprintf(w, "cecd_cluster_worker_deaths_total %d\n", st.Deaths)
	fmt.Fprintf(w, "# HELP cecd_cluster_duplicate_verdicts_total Late verdicts dropped by at-most-once settlement.\n")
	fmt.Fprintf(w, "# TYPE cecd_cluster_duplicate_verdicts_total counter\n")
	fmt.Fprintf(w, "cecd_cluster_duplicate_verdicts_total %d\n", st.Duplicates)

	fmt.Fprintf(w, "# HELP cecd_cluster_jobs_total Finished cluster jobs by terminal state.\n")
	fmt.Fprintf(w, "# TYPE cecd_cluster_jobs_total counter\n")
	states := make([]string, 0, len(st.ByState))
	for s := range st.ByState {
		states = append(states, string(s))
	}
	sort.Strings(states)
	for _, s := range states {
		fmt.Fprintf(w, "cecd_cluster_jobs_total{state=%q} %d\n", s, st.ByState[service.State(s)])
	}
}

const maxBodyBytes = 256 << 20

// readBody slurps a request body, sized straight from Content-Length when
// the client declares one — the submit path runs tens of thousands of
// times a second and io.ReadAll's incremental growth shows up there.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if n := r.ContentLength; n >= 0 && n < maxBodyBytes {
		raw := make([]byte, int(n))
		if _, err := io.ReadFull(r.Body, raw); err != nil {
			return nil, err
		}
		return raw, nil
	}
	return io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Compact on purpose: the submit fast path serves tens of thousands of
	// verdict-index hits per second, and indentation is measurable there.
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
