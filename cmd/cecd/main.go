// Command cecd serves the CEC engines as a long-running HTTP daemon:
// submitted jobs enter a bounded queue, a scheduler runs K of them
// concurrently — each on its own parallel device, with the total worker
// count bounded so the machine is never oversubscribed — and an LRU cache
// keyed by canonical structural fingerprints answers resubmitted (or
// argument-swapped) pairs instantly.
//
// API:
//
//	POST   /v1/jobs            {"a": <b64 AIGER>, "b": <b64 AIGER>} or
//	                           {"miter": ...} plus optional "engine", "seed",
//	                           "conflict_limit", "timeout_ms", "trace" (or
//	                           ?trace=1); responds 202 (200 on a cache hit),
//	                           429 when the queue is full
//	GET    /v1/jobs            recent jobs, newest first
//	GET    /v1/jobs/{id}       status, verdict, counter-example, per-job stats
//	GET    /v1/jobs/{id}/trace Chrome trace_event JSON of a traced job
//	                           (load in Perfetto or chrome://tracing)
//	DELETE /v1/jobs/{id}       cancel a queued or running job
//	GET    /healthz            liveness
//	GET    /readyz             readiness (503 while the queue is saturated,
//	                           or on a coordinator with no live workers)
//	GET    /metrics            text-format counters and histograms (queue
//	                           depth, cache hits, phase durations, kernel
//	                           launch sizes, queue wait)
//
// With -pprof, the net/http/pprof profiling handlers are additionally
// served under /debug/pprof/.
//
// # Cluster mode
//
// The same binary scales out. A coordinator serves the identical job API
// but executes nothing itself — it dispatches submissions from one queue
// to whichever registered worker has a free slot, and answers repeats from
// its index of settled verdicts:
//
//	cecd -coordinator -addr :8350
//
// Workers are ordinary daemons that additionally register with the
// coordinator:
//
//	cecd -worker -join http://host:8350 -addr :8351 -node-id w1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"simsweep"
	"simsweep/internal/cluster"
	"simsweep/internal/service"
)

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", "localhost:8351", "listen address")
	jobs := flag.Int("jobs", 2, "jobs running concurrently (K)")
	workers := flag.Int("workers", 0, "total simulation workers shared by the K jobs (0: GOMAXPROCS)")
	queueCap := flag.Int("queue", 64, "submission queue capacity (admission control)")
	cacheSize := flag.Int("cache", 256, "result cache entries")
	ringSize := flag.Int("ring", 256, "finished jobs retained for GET")
	defTimeout := flag.Duration("timeout", 0, "default per-job execution deadline (0: none)")
	maxTimeout := flag.Duration("max-timeout", 0, "cap on client-requested deadlines (0: uncapped)")
	quiet := flag.Bool("q", false, "suppress per-job log lines")
	withPprof := flag.Bool("pprof", false, "serve net/http/pprof handlers under /debug/pprof/")
	faults := flag.String("faults", "", "inject faults into the service and every job: 'hook:p=...;...' (see cec -faults); fires show up as cecd_faults_total on /metrics")
	faultSeed := flag.Int64("fault-seed", 1, "seed for probabilistic fault hooks")
	phaseBudget := flag.Duration("phase-budget", 0, "wall-clock watchdog per simulation phase of every job (0: off)")
	coordinator := flag.Bool("coordinator", false, "run as a cluster coordinator: serve the job API, execute nothing, dispatch to joined workers")
	worker := flag.Bool("worker", false, "run as a cluster worker: a normal daemon that also registers with -join")
	join := flag.String("join", "", "coordinator base URL a -worker registers with (e.g. http://host:8350)")
	nodeID := flag.String("node-id", "", "stable cluster identity of this worker (default host-pid)")
	advertise := flag.String("advertise", "", "URL the coordinator dials this worker back on (default http://<addr>)")
	heartbeat := flag.Duration("heartbeat", 500*time.Millisecond, "worker heartbeat period")
	workerTimeout := flag.Duration("worker-timeout", 2*time.Second, "coordinator declares a worker dead after this much heartbeat silence")
	flag.Parse()

	if *coordinator && *worker {
		fmt.Fprintln(os.Stderr, "cecd: -coordinator and -worker are mutually exclusive")
		return 1
	}
	if *worker && *join == "" {
		fmt.Fprintln(os.Stderr, "cecd: -worker requires -join")
		return 1
	}

	var injector *simsweep.FaultInjector
	if *faults != "" {
		in, ferr := simsweep.ParseFaults(*faults, *faultSeed)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "cecd:", ferr)
			return 1
		}
		injector = in
		fmt.Fprintf(os.Stderr, "cecd: fault injection armed: %s (seed %d)\n", in, *faultSeed)
	}
	var logw io.Writer = os.Stderr
	if *quiet {
		logw = nil
	}

	if *coordinator {
		co := cluster.New(cluster.Config{
			HeartbeatTimeout: *workerTimeout,
			Faults:           injector,
			Log:              logw,
		})
		defer co.Close()
		return serve(*addr, cluster.NewHandler(co), *withPprof,
			"coordinator ", "workers join via /v1/cluster/heartbeat")
	}

	svc := service.New(service.Config{
		MaxConcurrent:  *jobs,
		TotalWorkers:   *workers,
		QueueCap:       *queueCap,
		CacheSize:      *cacheSize,
		RingSize:       *ringSize,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		Log:            logw,
		Faults:         injector,
		PhaseBudget:    *phaseBudget,
	})
	defer svc.Close()

	if *worker {
		id := *nodeID
		if id == "" {
			host, _ := os.Hostname()
			id = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		adv := *advertise
		if adv == "" {
			adv = "http://" + *addr
		}
		agent, aerr := cluster.StartAgent(cluster.AgentConfig{
			ID:          id,
			Advertise:   adv,
			Coordinator: *join,
			Interval:    *heartbeat,
			Service:     svc,
			Faults:      injector,
			// cluster.worker.kill sabotages the whole process, exactly
			// like a crash: no flush, no goodbye, exit code 137.
			Kill: func() {
				fmt.Fprintln(os.Stderr, "cecd: cluster.worker.kill fired, dying")
				os.Exit(137)
			},
			Log: logw,
		})
		if aerr != nil {
			fmt.Fprintln(os.Stderr, "cecd:", aerr)
			return 1
		}
		defer agent.Stop()
		fmt.Fprintf(os.Stderr, "cecd: worker %s joining %s (advertising %s)\n", id, *join, adv)
	}

	return serve(*addr, service.NewHandler(svc), *withPprof, "", fmt.Sprintf("K=%d jobs", *jobs))
}

// serve runs handler on addr until SIGINT or SIGTERM, then shuts down
// gracefully. With withPprof it also serves the net/http/pprof handlers
// under /debug/pprof/. role prefixes the start and stop lines on stderr
// ("coordinator " or ""), and note follows the address.
func serve(addr string, handler http.Handler, withPprof bool, role, note string) int {
	if withPprof {
		outer := http.NewServeMux()
		outer.Handle("/", handler)
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = outer
	}
	srv := &http.Server{Addr: addr, Handler: handler}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	go func() {
		<-ctx.Done()
		shutdownCtx, done := context.WithTimeout(context.Background(), 5*time.Second)
		defer done()
		srv.Shutdown(shutdownCtx)
	}()

	fmt.Fprintf(os.Stderr, "cecd: %slistening on http://%s (%s)\n", role, addr, note)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "cecd:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "cecd: %sshut down\n", role)
	return 0
}
