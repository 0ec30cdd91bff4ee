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

// heartbeatWire is the body of POST /v1/cluster/heartbeat: the worker's
// identity plus the load that /v1/cluster/workers shows.
type heartbeatWire struct {
	ID      string `json:"id"`
	URL     string `json:"url"`
	Running int    `json:"running"`
	Ready   bool   `json:"ready"`
}

// heartbeatReply acknowledges a heartbeat with a cluster snapshot.
type heartbeatReply struct {
	Workers int `json:"workers"`
}
