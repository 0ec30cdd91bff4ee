package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"simsweep"
	"simsweep/internal/service"
)

// nodeClient is the coordinator's handle on one worker daemon: plain HTTP
// against the worker's ordinary cecd API with keep-alive connections and a
// per-call timeout. Every method is safe for concurrent use.
type nodeClient struct {
	base string
	hc   *http.Client
}

func newNodeClient(base string) *nodeClient {
	return &nodeClient{
		base: strings.TrimRight(base, "/"),
		hc: &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 16,
				IdleConnTimeout:     30 * time.Second,
			},
		},
	}
}

// submit forwards a raw JobRequest body to the worker. It returns the
// worker's job record and HTTP status; err covers transport failures only,
// so a 4xx/5xx decodes into status with a zero record.
func (nc *nodeClient) submit(body []byte) (service.JobJSON, int, error) {
	resp, err := nc.hc.Post(nc.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return service.JobJSON{}, 0, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return service.JobJSON{}, resp.StatusCode, nil
	}
	var j service.JobJSON
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		return service.JobJSON{}, resp.StatusCode, err
	}
	return j, resp.StatusCode, nil
}

// get fetches the worker-local job record.
func (nc *nodeClient) get(id string) (service.JobJSON, error) {
	resp, err := nc.hc.Get(nc.base + "/v1/jobs/" + url.PathEscape(id))
	if err != nil {
		return service.JobJSON{}, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return service.JobJSON{}, fmt.Errorf("cluster: worker job fetch: HTTP %d", resp.StatusCode)
	}
	var j service.JobJSON
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		return service.JobJSON{}, err
	}
	return j, nil
}

// cancel asks the worker to cancel its local job. Best-effort.
func (nc *nodeClient) cancel(id string) error {
	req, err := http.NewRequest(http.MethodDelete, nc.base+"/v1/jobs/"+url.PathEscape(id), nil)
	if err != nil {
		return err
	}
	resp, err := nc.hc.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return nil
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
}

// FederatedCache is the worker-side view of the coordinator's verdict
// index, implementing service.RemoteCache: a worker's local cache miss
// consults the federation before spending engine time, and every decided,
// non-degraded verdict a worker produces is published back so the rest of
// the cluster never re-proves it. All methods are best-effort — a dead
// coordinator degrades a worker to ordinary single-node behaviour, never
// to an error.
type FederatedCache struct {
	base string
	hc   *http.Client
	// Node labels published verdicts with their origin.
	Node string
}

var _ service.RemoteCache = (*FederatedCache)(nil)

// NewFederatedCache points a worker at a coordinator base URL
// (e.g. "http://127.0.0.1:9090").
func NewFederatedCache(coordinator, node string) *FederatedCache {
	return &FederatedCache{
		base: strings.TrimRight(coordinator, "/"),
		Node: node,
		hc: &http.Client{
			Timeout: 5 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 8,
				IdleConnTimeout:     30 * time.Second,
			},
		},
	}
}

// Lookup asks the federation for a decided verdict.
func (fc *FederatedCache) Lookup(key service.Key) (simsweep.Result, bool) {
	resp, err := fc.hc.Get(fc.base + "/v1/cluster/cache?key=" + url.QueryEscape(key.String()))
	if err != nil {
		return simsweep.Result{}, false
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return simsweep.Result{}, false
	}
	var v Verdict
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return simsweep.Result{}, false
	}
	return v.Result()
}

// Publish offers a decided verdict to the federation. The service layer
// already filters out undecided and degraded results; the coordinator
// re-validates on receipt regardless.
func (fc *FederatedCache) Publish(key service.Key, res simsweep.Result) {
	body, err := json.Marshal(cachePut{Key: key.String(), Verdict: verdictOfResult(res, fc.Node)})
	if err != nil {
		return
	}
	req, err := http.NewRequest(http.MethodPut, fc.base+"/v1/cluster/cache", bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := fc.hc.Do(req)
	if err != nil {
		return
	}
	drain(resp)
}

// cachePut is the body of PUT /v1/cluster/cache.
type cachePut struct {
	Key     string  `json:"key"`
	Verdict Verdict `json:"verdict"`
}

// heartbeatWire is the body of POST /v1/cluster/heartbeat: the worker's
// identity plus a load snapshot the coordinator folds into steal decisions
// and metrics.
type heartbeatWire struct {
	ID           string `json:"id"`
	URL          string `json:"url"`
	QueueDepth   int    `json:"queue_depth"`
	QueueCap     int    `json:"queue_cap"`
	Running      int    `json:"running"`
	Concurrent   int    `json:"concurrent"`
	CacheEntries int    `json:"cache_entries"`
	Ready        bool   `json:"ready"`
}

// heartbeatReply acknowledges a heartbeat with a cluster snapshot.
type heartbeatReply struct {
	Workers int `json:"workers"`
}
