package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
)

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// instances generates an engine workload's base pairs (the engine
	// child permutes them from the seed); nil for the service workload.
	instances func() ([]instance, error)
}

// engineWorkload makes an engine workload over fams, EQ or NEQ.
func engineWorkload(name string, fams []family, neq bool) workload {
	return workload{name, func() ([]instance, error) {
		if neq {
			return neqInstances(fams)
		}
		return eqInstances(fams)
	}}
}

// workloads lists the benchmark's workloads; README.md gives the reason
// for each.
var workloads = []workload{
	engineWorkload("datapath", datapathFamilies, false),
	engineWorkload("control", controlFamilies, false),
	engineWorkload("bughunt", bughuntFamilies, true),
	{name: "service"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runOpts configures one run of one workload.
type runOpts struct {
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	// startService launches the service under test (a cecd process; the
	// tests substitute an in-process handler).
	startService func() (target, error)
}

// gatedMetrics are the end-to-end metrics every workload reports and
// BENCHMARK.json bounds, with their units and direction. The _norm_ ones
// are latency_ms, latency_tail_ms and throughput_per_s at the reference
// machine speed (ref.go).
var gatedMetrics = []struct{ Name, Unit, Better string }{
	{"setup_s", "s", "lower"},
	{"latency_norm_ms", "ms", "lower"},
	{"latency_tail_norm_ms", "ms", "lower"},
	{"throughput_norm_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// timingNames names a workload's three timing metrics: its latency, its
// tail latency and its throughput.
type timingNames struct{ latency, tail, throughput string }

// rawTimings are the timing metrics as measured; normTimings are the same
// at the reference speed (ref.go), where every time is scaled by
// refScale of the reference time measured next to it.
var (
	rawTimings  = timingNames{"latency_ms", "latency_tail_ms", "throughput_per_s"}
	normTimings = timingNames{"latency_norm_ms", "latency_tail_norm_ms", "throughput_norm_per_s"}
)

// addRef adds machine.ref_ms, the median of every reference time a run
// measured, and returns the factor that brings the run's times to the
// reference speed (ref.go).
func addRef(m map[string]metric, refSets ...[]float64) float64 {
	var refs []float64
	for _, rs := range refSets {
		refs = append(refs, rs...)
	}
	ref := median(refs)
	m["machine.ref_ms"] = num(ref, "ms").withN(len(refs))
	return refScale(ref)
}

// addSetup adds setup_raw_s, the median set-up time as measured, and
// setup_s, the same multiplied by scale to the reference speed.
func addSetup(m map[string]metric, setups []float64, scale float64) {
	raw := median(setups)
	m["setup_raw_s"] = num(raw, "s").withN(len(setups))
	m["setup_s"] = num(raw*scale, "s").withN(len(setups))
}

// env records the machine and build a run measured on. DeviceWorkers is
// set by each run (on the service, the workers of each job's device); a set
// of runs omits it.
type env struct {
	NProc         int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	DeviceWorkers int    `json:"device_workers,omitempty"`
	GoVersion     string `json:"go_version"`
}

func currentEnv() env {
	return env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

// runReport is the full record of one run of one workload: the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced one.
type runReport struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Wrong     int               `json:"wrong"`
	Valid     bool              `json:"valid"`
	Env       env               `json:"env"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`
}

func (rep *runReport) note(format string, args ...interface{}) {
	rep.Notes = append(rep.Notes, fmt.Sprintf(format, args...))
}

// run executes one run of workload w.
func run(w workload, o runOpts) (*runReport, error) {
	rep := &runReport{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		Valid: true, Env: currentEnv(), Metrics: make(map[string]metric),
	}
	var err error
	if w.instances == nil {
		err = runService(o, rep)
	} else {
		err = runEngine(w, o, rep)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if !o.trace {
		rep.Metrics["fail_frac"] = num(float64(rep.Failed)/float64(rep.Attempted), "frac").withN(rep.Attempted)
	}
	return rep, nil
}

// printReport writes a run's metrics, one per line with its unit, then its
// notes.
func printReport(w io.Writer, rep *runReport) {
	kind := "untraced"
	if rep.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "ledger: %s seed %d, %gs %s; nproc %d, GOMAXPROCS %d, device workers %d, %s\n",
		rep.Workload, rep.Seed, rep.Seconds, kind, rep.Env.NProc, rep.Env.GOMAXPROCS, rep.Env.DeviceWorkers, rep.Env.GoVersion)
	fmt.Fprintf(w, "  attempted %d, failed %d, wrong %d, valid %v\n", rep.Attempted, rep.Failed, rep.Wrong, rep.Valid)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %s\n", n, rep.Metrics[n])
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// String renders a metric as "value unit (n=…, p…)" or "null unit".
func (m metric) String() string {
	s := "null"
	if m.Value != nil {
		s = fmt.Sprintf("%.6g", *m.Value)
	}
	s += " " + m.Unit
	switch {
	case m.N > 0 && m.Pct > 0:
		s += fmt.Sprintf(" (p%g, n=%d)", m.Pct, m.N)
	case m.N > 0:
		s += fmt.Sprintf(" (n=%d)", m.N)
	}
	return s
}

// resultLine is the one-line JSON summary that closes a single run's
// output: whether every verdict was right, how many operations were
// attempted and failed, and the gated metrics (end-to-end for an untraced
// run, per-layer for a traced one) as value and unit.
func resultLine(rep *runReport) ([]byte, error) {
	type vu struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	var names []string
	if rep.Traced {
		for _, m := range perLayerMetrics {
			names = append(names, m.Name)
		}
	} else {
		for _, m := range gatedMetrics {
			names = append(names, m.Name)
		}
	}
	metrics := make(map[string]vu, len(names))
	for _, n := range names {
		m := rep.Metrics[n]
		metrics[n] = vu{Value: m.Value, Unit: m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{rep.Wrong == 0, rep.Attempted, rep.Failed, metrics})
}
