package difftest

// The cluster backend: a whole coordinator/worker deployment folded into
// one Backend. Every check travels the full distributed path — HTTP submit
// to an in-process coordinator, dispatch from its queue to an in-process
// worker daemon over loopback HTTP, settlement into the coordinator's
// verdict index on the way back — so the differential harness cross-checks
// the cluster against the local engines and the truth-table oracle on
// every generated miter.
//
// The rig can sabotage itself: every KillEvery checks it crashes one
// worker zombie-style (listener torn down, heartbeats stop, no goodbye —
// the service keeps running so in-flight work looks exactly like a hung
// node) and spawns a replacement with a fresh identity. Verdicts must
// survive the churn unchanged; a disagreement or lost job surfaces as an
// ordinary differential failure.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"simsweep/internal/aig"
	"simsweep/internal/cluster"
	"simsweep/internal/miter"
	"simsweep/internal/service"
)

// ClusterRigConfig configures StartClusterRig.
type ClusterRigConfig struct {
	// Nodes is the number of worker daemons (default 3).
	Nodes int
	// KillEvery crashes-and-revives one worker every this many checks
	// (0: no sabotage).
	KillEvery int
	// Timeout bounds one check end to end (default 2 minutes).
	Timeout time.Duration
}

type rigWorker struct {
	id    string
	svc   *service.Service
	ln    net.Listener
	srv   *http.Server
	agent *cluster.Agent
}

// ClusterRig is a live in-process cluster. Close it when done.
type ClusterRig struct {
	cfg  ClusterRigConfig
	co   *cluster.Coordinator
	ln   net.Listener
	srv  *http.Server
	base string
	hc   *http.Client

	mu      sync.Mutex
	workers []*rigWorker
	nextID  int
	checks  int
	kills   int
}

// StartClusterRig boots a coordinator and cfg.Nodes worker daemons on
// loopback and waits until every worker has joined.
func StartClusterRig(cfg ClusterRigConfig) (*ClusterRig, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 3
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Minute
	}
	r := &ClusterRig{
		cfg: cfg,
		co: cluster.New(cluster.Config{
			// Tight liveness so a sabotaged worker's jobs requeue within a
			// few checks rather than a few seconds.
			HeartbeatTimeout: 600 * time.Millisecond,
		}),
		hc: &http.Client{Timeout: 10 * time.Second},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.co.Close()
		return nil, err
	}
	r.ln = ln
	r.srv = &http.Server{Handler: cluster.NewHandler(r.co)}
	go r.srv.Serve(ln)
	r.base = "http://" + ln.Addr().String()

	for i := 0; i < cfg.Nodes; i++ {
		if err := r.spawnWorker(); err != nil {
			r.Close()
			return nil, err
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(r.co.Stats().Workers) < cfg.Nodes {
		if time.Now().After(deadline) {
			r.Close()
			return nil, fmt.Errorf("difftest: cluster rig: workers did not join")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return r, nil
}

// spawnWorker starts one worker daemon: a real service instance behind a
// loopback HTTP listener, heartbeating into the coordinator.
func (r *ClusterRig) spawnWorker() error {
	r.mu.Lock()
	r.nextID++
	id := fmt.Sprintf("rig%d", r.nextID)
	r.mu.Unlock()

	svc := service.New(service.Config{
		MaxConcurrent: 1,
		TotalWorkers:  1,
		QueueCap:      64,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return err
	}
	srv := &http.Server{Handler: service.NewHandler(svc)}
	go srv.Serve(ln)
	agent, err := cluster.StartAgent(cluster.AgentConfig{
		ID:          id,
		Advertise:   "http://" + ln.Addr().String(),
		Coordinator: r.base,
		Interval:    100 * time.Millisecond,
		Service:     svc,
	})
	if err != nil {
		srv.Close()
		svc.Close()
		return err
	}
	w := &rigWorker{id: id, svc: svc, ln: ln, srv: srv, agent: agent}
	r.mu.Lock()
	r.workers = append(r.workers, w)
	r.mu.Unlock()
	return nil
}

// sabotage crashes the oldest worker zombie-style and spawns a fresh
// replacement. The victim's service is shut down asynchronously — exactly
// like a SIGKILLed process, nothing it was running reports back.
func (r *ClusterRig) sabotage() error {
	r.mu.Lock()
	if len(r.workers) == 0 {
		r.mu.Unlock()
		return nil
	}
	victim := r.workers[0]
	r.workers = r.workers[1:]
	r.kills++
	r.mu.Unlock()

	victim.agent.Stop()
	victim.srv.Close()
	victim.ln.Close()
	go victim.svc.Close()
	return r.spawnWorker()
}

// Kills reports how many workers the rig has crashed so far.
func (r *ClusterRig) Kills() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.kills
}

// Close tears the whole rig down.
func (r *ClusterRig) Close() {
	r.mu.Lock()
	workers := r.workers
	r.workers = nil
	r.mu.Unlock()
	for _, w := range workers {
		w.agent.Stop()
		w.srv.Close()
		w.ln.Close()
		w.svc.Close()
	}
	if r.srv != nil {
		r.srv.Close()
	}
	if r.ln != nil {
		r.ln.Close()
	}
	r.co.Close()
}

// Backend wraps the rig as a differential backend. The cluster runs the
// complete hybrid flow on every dispatched job, so it must decide every
// small miter — even while the rig is killing workers under it.
func (r *ClusterRig) Backend() Backend {
	return Backend{
		Name:       "cluster",
		Complete:   true,
		Degradable: r.cfg.KillEvery > 0,
		Check:      r.check,
	}
}

func (r *ClusterRig) check(m *aig.AIG) BackendResult {
	r.mu.Lock()
	r.checks++
	kill := r.cfg.KillEvery > 0 && r.checks%r.cfg.KillEvery == 0
	r.mu.Unlock()
	if kill {
		if err := r.sabotage(); err != nil {
			return BackendResult{}
		}
	}

	jr, err := service.EncodeRequest(service.Request{Miter: m})
	if err != nil {
		return BackendResult{}
	}
	raw, err := json.Marshal(jr)
	if err != nil {
		return BackendResult{}
	}
	resp, err := r.hc.Post(r.base+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		return BackendResult{}
	}
	var j service.JobJSON
	derr := json.NewDecoder(resp.Body).Decode(&j)
	resp.Body.Close()
	if derr != nil || resp.StatusCode >= 400 {
		return BackendResult{}
	}

	deadline := time.Now().Add(r.cfg.Timeout)
	for !service.State(j.State).Terminal() {
		if time.Now().After(deadline) {
			return BackendResult{}
		}
		time.Sleep(time.Millisecond)
		resp, err := r.hc.Get(r.base + "/v1/jobs/" + j.ID)
		if err != nil {
			return BackendResult{}
		}
		derr := json.NewDecoder(resp.Body).Decode(&j)
		resp.Body.Close()
		if derr != nil || resp.StatusCode != 200 {
			return BackendResult{}
		}
	}
	if service.State(j.State) != service.StateDone {
		return BackendResult{Degraded: j.Degraded}
	}

	out := BackendResult{Degraded: j.Degraded}
	out.Verdict, _ = miter.ParseOutcome(j.Verdict)
	if out.Verdict == miter.NotEquivalent {
		out.CEX = make([]bool, len(j.CEX))
		for i, v := range j.CEX {
			out.CEX[i] = v != 0
		}
	}
	return out
}
