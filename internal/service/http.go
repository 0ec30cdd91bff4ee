package service

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"simsweep"
	"simsweep/internal/aig"
	"simsweep/internal/aiger"
)

// JobRequest is the JSON body of POST /v1/jobs. Circuits are AIGER files
// (ASCII "aag" or binary "aig"), base64-encoded. Either a and b (a pair
// with matching interfaces) or miter must be present.
type JobRequest struct {
	A     string `json:"a,omitempty"`
	B     string `json:"b,omitempty"`
	Miter string `json:"miter,omitempty"`

	Engine        string `json:"engine,omitempty"` // a simsweep.Engines name; "" selects the default
	Seed          int64  `json:"seed,omitempty"`
	ConflictLimit int64  `json:"conflict_limit,omitempty"`
	TimeoutMS     int64  `json:"timeout_ms,omitempty"`
	// Trace requests an execution trace (also settable as ?trace=1);
	// fetch it from GET /v1/jobs/{id}/trace once the job finishes.
	Trace bool `json:"trace,omitempty"`
}

// JobJSON is the wire representation of a job.
type JobJSON struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Engine  string `json:"engine"`
	Cached  bool   `json:"cached"`
	Traced  bool   `json:"traced,omitempty"`
	Error   string `json:"error,omitempty"`
	Timeout string `json:"timeout,omitempty"`

	Verdict        string  `json:"verdict,omitempty"`
	CEX            []int   `json:"cex,omitempty"`
	EngineUsed     string  `json:"engine_used,omitempty"`
	RuntimeMS      float64 `json:"runtime_ms,omitempty"`
	SATTimeMS      float64 `json:"sat_time_ms,omitempty"`
	ReducedPercent float64 `json:"reduced_percent,omitempty"`
	PhasesRun      int     `json:"phases_run,omitempty"`
	KernelLaunches int     `json:"kernel_launches,omitempty"`
	// Degraded marks a verdict that survived internal faults. The cluster
	// coordinator reads it off the wire: degraded verdicts are returned to
	// the client but never enter its verdict index.
	Degraded bool `json:"degraded,omitempty"`
	// Node names the worker that executed the job; set by the cluster
	// coordinator, empty on a single-node daemon.
	Node string `json:"node,omitempty"`

	Created  string `json:"created,omitempty"`
	Started  string `json:"started,omitempty"`
	Finished string `json:"finished,omitempty"`
}

func jobJSON(j Job) JobJSON {
	out := JobJSON{
		ID:             j.ID,
		State:          string(j.State),
		Engine:         engineName(j.Engine),
		Cached:         j.CacheHit,
		Traced:         j.Traced,
		Error:          j.Err,
		KernelLaunches: j.KernelLaunches,
		Created:        timeJSON(j.Created),
		Started:        timeJSON(j.Started),
		Finished:       timeJSON(j.Finished),
	}
	if j.Timeout > 0 {
		out.Timeout = j.Timeout.String()
	}
	if r := j.Result; r != nil {
		out.Verdict = r.Outcome.String()
		out.EngineUsed = r.EngineUsed
		out.RuntimeMS = float64(r.Runtime) / float64(time.Millisecond)
		out.SATTimeMS = float64(r.SATTime) / float64(time.Millisecond)
		out.ReducedPercent = r.ReducedPercent
		out.PhasesRun = len(r.SimPhases)
		out.Degraded = r.Degraded
		if r.Outcome == simsweep.NotEquivalent && r.CEX != nil {
			out.CEX = make([]int, len(r.CEX))
			for i, v := range r.CEX {
				if v {
					out.CEX[i] = 1
				}
			}
		}
	}
	return out
}

func timeJSON(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// NewHandler exposes the service over HTTP:
//
//	POST   /v1/jobs            submit a check (202; 200 on an instant cache
//	                           hit); ?trace=1 records an execution trace
//	GET    /v1/jobs            list retained jobs, newest first
//	GET    /v1/jobs/{id}       job status, verdict, counter-example
//	GET    /v1/jobs/{id}/trace Chrome trace_event JSON of a traced job
//	DELETE /v1/jobs/{id}       cancel a queued or running job
//	GET    /healthz            liveness
//	GET    /readyz             readiness (503 while the queue is saturated)
//	GET    /metrics            text-format counters and histograms
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		s.handleSubmit(w, r)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		jobs := s.Jobs()
		out := make([]JobJSON, len(jobs))
		for i, j := range jobs {
			out[i] = jobJSON(j)
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, err := s.Get(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, jobJSON(j))
	})
	mux.HandleFunc("GET /v1/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		data, err := s.Trace(id)
		if err != nil {
			// Distinguish "job still running / untraced" from "no job".
			if j, jerr := s.Get(id); jerr == nil {
				if !j.State.Terminal() {
					writeError(w, http.StatusConflict, errors.New("service: job not finished"))
					return
				}
				writeError(w, http.StatusNotFound, errors.New("service: job recorded no trace"))
				return
			}
			writeError(w, http.StatusNotFound, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, err := s.Cancel(r.PathValue("id"))
		switch {
		case errors.Is(err, ErrNotFound):
			writeError(w, http.StatusNotFound, err)
		case errors.Is(err, ErrFinished):
			writeJSON(w, http.StatusConflict, jobJSON(j))
		default:
			writeJSON(w, http.StatusOK, jobJSON(j))
		}
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "queue saturated")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeMetrics(w, s.Stats())
		s.writeHistograms(w)
	})
	return mux
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var body JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 256<<20))
	if err := dec.Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad JSON: %w", err))
		return
	}
	req, err := DecodeRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req.Trace = req.Trace || r.URL.Query().Get("trace") == "1"

	j, err := s.Submit(req)
	switch {
	case errors.Is(err, ErrBadRequest):
		writeError(w, http.StatusBadRequest, err)
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	case j.State.Terminal(): // instant cache hit
		writeJSON(w, http.StatusOK, jobJSON(j))
	default:
		writeJSON(w, http.StatusAccepted, jobJSON(j))
	}
}

// DecodeRequest imports a wire-format job body into an executable Request:
// the engine name is resolved against the engine table (simsweep.Engines;
// "" selects the default) and the base64 AIGER payloads are parsed into
// circuits. It is the import half of the cluster's job forwarding — the
// coordinator and every worker accept exactly the same bodies.
func DecodeRequest(body JobRequest) (Request, error) {
	e, ok := simsweep.LookupEngine(simsweep.Engine(body.Engine))
	if !ok {
		return Request{}, fmt.Errorf("unknown engine %q", body.Engine)
	}
	req := Request{
		Engine:        e.Name,
		Seed:          body.Seed,
		ConflictLimit: body.ConflictLimit,
		Timeout:       time.Duration(body.TimeoutMS) * time.Millisecond,
		Trace:         body.Trace,
	}
	var err error
	if body.Miter != "" {
		if req.Miter, err = decodeAIGER("miter", body.Miter); err != nil {
			return Request{}, err
		}
	}
	if body.A != "" || body.B != "" {
		if req.A, err = decodeAIGER("a", body.A); err != nil {
			return Request{}, err
		}
		if req.B, err = decodeAIGER("b", body.B); err != nil {
			return Request{}, err
		}
	}
	return req, nil
}

// EncodeRequest exports a Request back into the wire format accepted by
// POST /v1/jobs: circuits are serialised as base64 binary AIGER. It is the
// export half of the cluster's job forwarding; DecodeRequest inverts it.
func EncodeRequest(req Request) (JobRequest, error) {
	body := JobRequest{
		Engine:        string(req.Engine),
		Seed:          req.Seed,
		ConflictLimit: req.ConflictLimit,
		TimeoutMS:     int64(req.Timeout / time.Millisecond),
		Trace:         req.Trace,
	}
	encode := func(g *aig.AIG) (string, error) {
		var buf bytes.Buffer
		if err := aiger.Write(&buf, g, true); err != nil {
			return "", err
		}
		return base64.StdEncoding.EncodeToString(buf.Bytes()), nil
	}
	var err error
	switch {
	case req.Miter != nil && req.A == nil && req.B == nil:
		if body.Miter, err = encode(req.Miter); err != nil {
			return JobRequest{}, err
		}
	case req.Miter == nil && req.A != nil && req.B != nil:
		if body.A, err = encode(req.A); err != nil {
			return JobRequest{}, err
		}
		if body.B, err = encode(req.B); err != nil {
			return JobRequest{}, err
		}
	default:
		return JobRequest{}, ErrBadRequest
	}
	return body, nil
}

func decodeAIGER(field, b64 string) (*aig.AIG, error) {
	if b64 == "" {
		return nil, fmt.Errorf("field %q missing", field)
	}
	raw, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return nil, fmt.Errorf("field %q: bad base64: %w", field, err)
	}
	g, err := aiger.Read(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("field %q: bad AIGER: %w", field, err)
	}
	return g, nil
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
