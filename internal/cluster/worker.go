package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"simsweep/internal/fault"
	"simsweep/internal/service"
)

// AgentConfig configures a worker's heartbeat agent.
type AgentConfig struct {
	// ID is the worker's cluster identity.
	ID string
	// Advertise is the URL the coordinator should dial back,
	// e.g. "http://127.0.0.1:8081".
	Advertise string
	// Coordinator is the coordinator's base URL.
	Coordinator string
	// Interval between heartbeats (default 500ms; the coordinator's
	// HeartbeatTimeout must comfortably exceed it).
	Interval time.Duration
	// Service, when set, is snapshotted into each heartbeat so the
	// coordinator's /v1/cluster/workers shows real load.
	Service *service.Service
	// Faults optionally arms cluster.worker.kill on the worker side: when
	// the hook fires on a heartbeat tick, Kill runs and the agent stops —
	// the sabotaged node simply goes silent, exactly like a crash.
	Faults *fault.Injector
	// Kill implements the sabotage (cecd installs os.Exit; tests install
	// a listener close). Nil means the agent just stops beating.
	Kill func()
	// Log receives one-line events (nil = silent).
	Log io.Writer
}

// Agent pushes heartbeats from a worker to its coordinator. Start with
// StartAgent, stop with Stop.
type Agent struct {
	cfg  AgentConfig
	hc   *http.Client
	stop chan struct{}
	done chan struct{}
}

// StartAgent begins heartbeating immediately (one beat is sent before it
// returns control flow to the ticker, so a freshly started worker joins
// within one round trip, not one interval).
func StartAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.ID == "" || cfg.Advertise == "" || cfg.Coordinator == "" {
		return nil, fmt.Errorf("cluster: agent needs ID, Advertise and Coordinator")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	cfg.Coordinator = strings.TrimRight(cfg.Coordinator, "/")
	a := &Agent{
		cfg: cfg,
		hc: &http.Client{
			Timeout: 5 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 2,
				IdleConnTimeout:     30 * time.Second,
			},
		},
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go a.loop()
	return a, nil
}

// Stop halts heartbeating and waits for the loop to exit. The coordinator
// notices the silence after its liveness timeout. Idempotent-safe for a
// single caller.
func (a *Agent) Stop() {
	close(a.stop)
	<-a.done
}

func (a *Agent) loop() {
	defer close(a.done)
	a.beat()
	t := time.NewTicker(a.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-t.C:
		}
		if a.cfg.Faults.Fire(fault.HookClusterKill) {
			a.logf("cluster: fault hook %s fired, killing worker %s", fault.HookClusterKill, a.cfg.ID)
			if a.cfg.Kill != nil {
				a.cfg.Kill()
			}
			return
		}
		a.beat()
	}
}

// beat pushes one heartbeat. Failures are logged and swallowed: a worker
// outliving its coordinator keeps serving local requests.
func (a *Agent) beat() {
	hb := heartbeatWire{ID: a.cfg.ID, URL: a.cfg.Advertise, Ready: true}
	if s := a.cfg.Service; s != nil {
		hb.Running = s.Stats().Running
		hb.Ready = s.Ready()
	}
	body, err := json.Marshal(hb)
	if err != nil {
		return
	}
	resp, err := a.hc.Post(a.cfg.Coordinator+"/v1/cluster/heartbeat", "application/json", bytes.NewReader(body))
	if err != nil {
		a.logf("cluster: heartbeat to %s failed: %v", a.cfg.Coordinator, err)
		return
	}
	drain(resp)
}

func (a *Agent) logf(format string, args ...interface{}) {
	if a.cfg.Log == nil {
		return
	}
	fmt.Fprintf(a.cfg.Log, format+"\n", args...)
}
