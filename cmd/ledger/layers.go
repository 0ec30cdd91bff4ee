package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"simsweep/internal/par"
	"simsweep/internal/sat"
	"simsweep/internal/trace"
)

// span is one completed trace span in the form both trace sources reduce
// to: the in-process tracer of an engine workload, and the Chrome JSON a
// cecd job trace is served as.
type span struct {
	Name, Cat string
	MS        float64
	Args      map[string]int64
}

// ledgerCat is the category of the benchmark's own spans around each call
// into the system (ledger.read, ledger.miter, ledger.engine, ledger.check,
// ledger.submit, ledger.poll).
const ledgerCat = "ledger"

// spansOf converts the span events of an in-process tracer.
func spansOf(events []trace.Event) []span {
	out := make([]span, 0, len(events))
	for _, e := range events {
		if e.Kind != trace.KindSpan {
			continue
		}
		s := span{Name: e.Name, Cat: e.Cat, MS: float64(e.Dur) / 1e6}
		if e.NArg > 0 {
			s.Args = make(map[string]int64, e.NArg)
			for _, a := range e.Args[:e.NArg] {
				s.Args[a.Key] = a.Val
			}
		}
		out = append(out, s)
	}
	return out
}

// chromeSpans parses the complete ("X") events of a Chrome trace_event
// document, the format GET /v1/jobs/{id}/trace serves.
func chromeSpans(data []byte) ([]span, error) {
	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Cat  string                 `json:"cat"`
			Ph   string                 `json:"ph"`
			Dur  float64                `json:"dur"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("parse job trace: %w", err)
	}
	var out []span
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		s := span{Name: e.Name, Cat: e.Cat, MS: e.Dur / 1e3}
		if len(e.Args) > 0 {
			s.Args = make(map[string]int64, len(e.Args))
			for k, v := range e.Args {
				if f, ok := v.(float64); ok {
					s.Args[k] = int64(f)
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// kernelMetric maps a device kernel name to its per-layer metric prefix
// ("exhaustive.window" -> "par.exhaustive_window").
func kernelMetric(kernel string) string {
	return "par." + strings.ReplaceAll(kernel, ".", "_")
}

// layerAcc accumulates per-layer work over the traced checks of one run.
// Sums are divided by the check count at the end, so every count and time
// is reported per check (per executed job on the service).
type layerAcc struct {
	checks int
	sum    map[string]float64
	// satCalls/satUseful give sat.useful_frac. accountedMS sums the layers
	// that tile a check without overlap (tile), for simsweep.residual_frac.
	// coreMS is the core engine's run inside the CheckMiter call, of which
	// the P/G/L phases are a part.
	satCalls, satUseful float64
	accountedMS, coreMS float64
	dropped             int64
}

func newLayerAcc() *layerAcc { return &layerAcc{sum: make(map[string]float64)} }

func (a *layerAcc) add(name string, v float64) { a.sum[name] += v }

// tile adds ms to the layer name, one of those that tile a check without
// overlap: the AIGER parse (engine workloads only: cecd parses a job when it
// is submitted, before its run), the miter build and the CheckMiter call
// (simsweep.check_ms), which holds the core engine's run and the SAT sweep.
func (a *layerAcc) tile(name string, ms float64) {
	a.add(name, ms)
	a.accountedMS += ms
}

// addSpans folds the spans of traced checks into the accumulator. Kernel
// spans are left out: a launch that runs inline records none, so kernel
// launches are read from Device.Stats (addKernels).
func (a *layerAcc) addSpans(spans []span) {
	for _, s := range spans {
		switch s.Cat {
		case trace.CatPhase:
			a.add("core."+strings.ToLower(s.Name)+"_ms", s.MS)
			a.add("core.pairs_checked", float64(s.Args["checked"]))
		case trace.CatEngine:
			if s.Name == "core.check" {
				a.add("core.words_simulated", float64(s.Args["words_simulated"]))
				a.coreMS += s.MS
			}
		case trace.CatCuts:
			a.add("cuts.nodes", float64(s.Args["nodes"]))
			a.add("cuts.pairs", float64(s.Args["pairs"]))
		case trace.CatSAT:
			a.add("sat.calls", 1)
			a.add("sat.conflicts", float64(s.Args["conflicts"]))
			a.satCalls++
			if sat.Status(s.Args["status"]) != sat.Unknown {
				a.satUseful++
			}
		case ledgerCat:
			switch s.Name {
			case "ledger.read":
				a.tile("aiger.read_ms", s.MS)
			case "ledger.miter":
				a.tile("miter.build_ms", s.MS)
			case "ledger.engine":
				a.tile("simsweep.check_ms", s.MS)
			}
		}
	}
}

// addKernels folds a Device.Stats difference into the accumulator.
func (a *layerAcc) addKernels(before, after map[string]par.KernelStats) {
	for name, ks := range after {
		b := before[name]
		p := kernelMetric(name)
		a.add(p+".launches", float64(ks.Launches-b.Launches))
		a.add(p+".items", float64(ks.Items-b.Items))
		a.add(p+".ms", float64(ks.Time-b.Time)/1e6)
	}
}

// addCheck closes one traced check: its wall time (for the residual), the
// SAT sweeping time and the miter reduction the engine reported.
func (a *layerAcc) addCheck(wall, satTime time.Duration, reducedPct float64) {
	a.checks++
	a.add("check.wall_ms", float64(wall)/1e6)
	a.add("satsweep.ms", float64(satTime)/1e6)
	a.add("core.reduced_pct", reducedPct)
}

// metricSpec names a metric and its unit.
type metricSpec struct{ Name, Unit string }

// checkLayers are the per-check means every workload reports: the layers
// of one check, from parsing to SAT, which the service's engine runs too.
// core.other_ms is the core engine's run outside its P/G/L phases, and
// simsweep.other_ms the CheckMiter call outside the core engine's run and
// the SAT sweep. Kernel metrics are listed for the three kernels the
// default path launches.
var checkLayers = []metricSpec{
	{"check.wall_ms", "ms"},
	{"aiger.read_ms", "ms"},
	{"miter.build_ms", "ms"},
	{"core.p_ms", "ms"},
	{"core.g_ms", "ms"},
	{"core.l_ms", "ms"},
	{"core.other_ms", "ms"},
	{"simsweep.other_ms", "ms"},
	{"satsweep.ms", "ms"},
	{"core.words_simulated", "count"},
	{"core.pairs_checked", "count"},
	{"core.reduced_pct", "%"},
	{"cuts.nodes", "count"},
	{"cuts.pairs", "count"},
	{"sat.calls", "count"},
	{"sat.conflicts", "count"},
	{"par.exhaustive_window.launches", "count"},
	{"par.exhaustive_window.items", "count"},
	{"par.exhaustive_window.ms", "ms"},
	{"par.cuts_strata.launches", "count"},
	{"par.cuts_strata.items", "count"},
	{"par.cuts_strata.ms", "ms"},
	{"par.partial_level.launches", "count"},
	{"par.partial_level.items", "count"},
	{"par.partial_level.ms", "ms"},
}

// serviceUnreached names the times of the layers no service job reaches:
// exhaustive simulation decides every job of the mix, so none runs partial
// simulation, the cut kernel or the SAT sweep. Their counts stay in the list.
var serviceUnreached = map[string]bool{"satsweep.ms": true, "par.cuts_strata.ms": true, "par.partial_level.ms": true}

// perLayerMetrics are the per-layer metrics of every traced run's result
// line, in the order BENCHMARK.json lists them: the check layers, the
// residual no layer accounts for, the tracing overhead and the run's
// reference kernel time. The times of the layers no service job reaches
// (serviceUnreached) are left to the full report: they read 0 on every
// service run.
var perLayerMetrics = func() []metricSpec {
	var out []metricSpec
	for _, m := range checkLayers {
		if !serviceUnreached[m.Name] {
			out = append(out, m)
		}
	}
	return append(out,
		metricSpec{"simsweep.residual_frac", "frac"},
		metricSpec{"trace.overhead_frac", "frac"},
		metricSpec{"machine.ref_ms", "ms"},
	)
}()

// metrics renders the accumulated layers into named metrics: per-check
// means, plus sat.useful_frac (null without SAT calls) and
// simsweep.residual_frac, the share of check wall time no layer accounts
// for.
func (a *layerAcc) metrics() map[string]metric {
	out := make(map[string]metric)
	if a.checks == 0 {
		return out
	}
	n := float64(a.checks)
	a.sum["core.other_ms"] = a.coreMS - a.sum["core.p_ms"] - a.sum["core.g_ms"] - a.sum["core.l_ms"]
	a.sum["simsweep.other_ms"] = a.sum["simsweep.check_ms"] - a.coreMS - a.sum["satsweep.ms"]
	for _, m := range checkLayers {
		out[m.Name] = num(a.sum[m.Name]/n, m.Unit).withN(a.checks)
	}
	wall := a.sum["check.wall_ms"]
	out["simsweep.residual_frac"] = num((wall-a.accountedMS)/wall, "frac").withN(a.checks)
	if a.satCalls > 0 {
		out["sat.useful_frac"] = num(a.satUseful/a.satCalls, "frac").withN(int(a.satCalls))
	} else {
		out["sat.useful_frac"] = null("frac")
	}
	if a.dropped > 0 {
		out["trace.dropped"] = num(float64(a.dropped), "count")
	}
	return out
}

// metric is one reported number with its unit. Value is nil (JSON null)
// when the metric was not measured or does not apply to the workload. N is
// the sample count behind a median, mean or percentile, and Pct the
// percentile a tail was taken at.
type metric struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
	N     int      `json:"n,omitempty"`
	Pct   float64  `json:"pct,omitempty"`
}

// num returns a measured metric; NaN and infinities become null.
func num(v float64, unit string) metric {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return null(unit)
	}
	return metric{Value: &v, Unit: unit}
}

// null returns an unmeasured metric.
func null(unit string) metric { return metric{Unit: unit} }

func (m metric) withN(n int) metric { m.N = n; return m }

func (m metric) withPct(p float64) metric { m.Pct = p; return m }

// tailMetric reports the p-th percentile of xs with its sample count; it
// is null when fewer than ten samples lie beyond it.
func tailMetric(xs []float64, p float64, unit string) metric {
	v, _ := tailAt(xs, p)
	return num(v, unit).withN(len(xs)).withPct(p)
}
