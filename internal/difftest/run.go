package difftest

import (
	"fmt"
	"io"
	"math/rand"

	"simsweep/internal/aig"
	"simsweep/internal/miter"
	"simsweep/internal/par"
)

// Options configures a differential run.
type Options struct {
	// Seed is the master seed: it alone determines every generated case,
	// every log byte and every corpus file of the run.
	Seed int64
	// N is the number of cases to generate and cross-check.
	N int
	// Workers bounds each backend's parallel device (0: all CPUs).
	Workers int
	// MaxPIs bounds miter width (0: OracleMaxPIs, keeping the truth-table
	// oracle applicable to every case).
	MaxPIs int
	// Metamorphic additionally re-checks every decided case under PI
	// permutation, re-strashing and resyn2 (roughly 4× the work).
	Metamorphic bool
	// Shrink minimises every failing miter before reporting it.
	Shrink bool
	// ShrinkChecks bounds predicate evaluations per shrink (0: 2000).
	ShrinkChecks int
	// CorpusDir, when non-empty, receives every shrunk reproducer as an
	// ASCII AIGER file with a deterministic name.
	CorpusDir string
	// FaultSpec, when non-empty, arms deterministic fault injection inside
	// every engine backend (grammar of simsweep.ParseFaults; the oracle
	// stays clean) and relaxes only the completeness contract: a complete
	// backend may answer a degraded Undecided. Agreement, ground truth and
	// counter-example replay stay fully enforced, turning the sweep into a
	// never-wrong-under-chaos soak. Injection draws are seeded, but with
	// parallel workers the scheduling decides which unit of work a
	// probabilistic fault lands on, so fault-armed logs are reproducible in
	// shape, not byte-for-byte. Ignored when Backends is set.
	FaultSpec string
	// Backends overrides the roster (nil: DefaultBackends). Tests inject
	// deliberately broken backends here to exercise the harness itself.
	Backends []Backend
}

// RunFailure is one failure of a run, with its shrunk reproducer.
type RunFailure struct {
	CaseIndex int
	CaseSeed  int64
	CaseKind  string
	Failure
	// Shrunk is the minimised failing miter (nil when shrinking was off).
	Shrunk *aig.AIG
	// CorpusPath is where the reproducer was written ("" when corpus
	// writing was off).
	CorpusPath string
}

// Summary aggregates a run.
type Summary struct {
	Cases     int
	EQ        int
	NEQ       int
	Undecided int
	// ChecksRun counts individual backend checks, metamorphic included.
	ChecksRun int
	Failures  []RunFailure
	// Agreement is the fraction of cases that passed every cross-check —
	// the headline "backend agreement rate".
	Agreement float64
	// Timings is the per-backend timing table, most expensive first.
	Timings []BackendTiming
}

// Run executes a differential fuzzing sweep: N seeded cases, every backend
// cross-checked on each, failures shrunk and written to the corpus. The
// log receives one line per case plus one per failure; the bytes written
// are a pure function of Options (timings are returned in the Summary, not
// logged), which is the determinism contract the seed protocol relies on.
func Run(o Options, log io.Writer) (Summary, error) {
	if log == nil {
		log = io.Discard
	}
	if o.N <= 0 {
		o.N = 100
	}
	if o.MaxPIs <= 0 {
		o.MaxPIs = OracleMaxPIs
	}
	dev := par.NewDevice(o.Workers)
	defer dev.Close()
	backends := o.Backends
	if backends == nil {
		var err error
		backends, err = DefaultBackendsWithFaults(o.Workers, o.Seed, o.FaultSpec)
		if err != nil {
			return Summary{}, err
		}
	}

	var s Summary
	timings := make(map[string]*BackendTiming)
	failedCases := 0
	for i := 0; i < o.N; i++ {
		c, err := GenerateCase(dev, o.Seed, i, o.MaxPIs)
		if err != nil {
			if c.Miter == nil {
				return s, fmt.Errorf("case %04d: %w", i, err)
			}
			// A generated case that contradicts its own construction
			// (e.g. resyn2 broke equivalence) is itself a failure.
			fmt.Fprintf(log, "case %04d kind=%s GENERATE-FAIL %v\n", i, c.Kind, err)
			s.Failures = append(s.Failures, RunFailure{
				CaseIndex: i, CaseSeed: c.Seed, CaseKind: c.Kind,
				Failure: Failure{Kind: "generate", Detail: err.Error(), Miter: c.Miter},
			})
			failedCases++
			s.Cases++
			continue
		}
		s.Cases++

		rep := CrossCheck(dev, backends, c)
		collectTimings(timings, rep)
		s.ChecksRun += len(rep.Results)
		reports := []CaseReport{rep}
		if o.Metamorphic {
			rng := rand.New(rand.NewSource(c.Seed ^ 0x6d6574616d6f7270)) // "metamorp"
			for _, mrep := range MetamorphicCheck(dev, backends, c, rep, rng) {
				collectTimings(timings, mrep)
				s.ChecksRun += len(mrep.Results)
				reports = append(reports, mrep)
			}
		}

		switch rep.Verdict {
		case miter.Equivalent:
			s.EQ++
		case miter.NotEquivalent:
			s.NEQ++
		default:
			s.Undecided++
		}

		var failures []RunFailure
		for _, r := range reports {
			for _, f := range r.Failures {
				failures = append(failures, RunFailure{
					CaseIndex: i, CaseSeed: c.Seed, CaseKind: r.Case.Kind, Failure: f,
				})
			}
		}
		status := "ok"
		if len(failures) > 0 {
			status = "FAIL"
			failedCases++
		}
		fmt.Fprintf(log, "case %04d seed=%d kind=%s pi=%d and=%d verdict=%s backends=%s %s\n",
			i, c.Seed, c.Kind, c.Miter.NumPIs(), c.Miter.NumAnds(), token(rep.Verdict), rep.summarize(), status)

		for fi := range failures {
			f := &failures[fi]
			fmt.Fprintf(log, "  FAIL %s", f.Kind)
			if f.Backend != "" {
				fmt.Fprintf(log, "[%s]", f.Backend)
			}
			fmt.Fprintf(log, " kind=%s: %s\n", f.CaseKind, f.Detail)
			if o.Shrink {
				f.Shrunk = shrinkFailure(dev, backends, f.Miter, o.ShrinkChecks)
				fmt.Fprintf(log, "  shrunk reproducer: pi=%d and=%d po=%d\n",
					f.Shrunk.NumPIs(), f.Shrunk.NumAnds(), f.Shrunk.NumPOs())
				if o.CorpusDir != "" {
					name := CorpusFileName(f.Kind, f.CaseKind, f.Shrunk)
					path, werr := WriteCorpusFile(o.CorpusDir, name, f.Shrunk)
					if werr != nil {
						return s, fmt.Errorf("writing corpus file: %w", werr)
					}
					f.CorpusPath = path
					fmt.Fprintf(log, "  corpus: %s\n", name)
				}
			}
			s.Failures = append(s.Failures, *f)
		}
	}
	if s.Cases > 0 {
		s.Agreement = float64(s.Cases-failedCases) / float64(s.Cases)
	}
	s.Timings = sortedTimings(timings)
	fmt.Fprintf(log, "%d cases: %d EQ, %d NEQ, %d undecided; %d failures; agreement %.4f\n",
		s.Cases, s.EQ, s.NEQ, s.Undecided, len(s.Failures), s.Agreement)
	return s, nil
}

// shrinkFailure minimises a failing miter against the roster: the
// predicate re-runs the full cross-check (as a pure differential case —
// no ground truth survives transformation) and holds while any violation
// remains.
func shrinkFailure(dev *par.Device, backends []Backend, m *aig.AIG, maxChecks int) *aig.AIG {
	pred := func(g *aig.AIG) bool {
		if g.NumPOs() == 0 {
			return false
		}
		rep := CrossCheck(dev, backends, Case{Kind: "shrink", Miter: g})
		return len(rep.Failures) > 0
	}
	if !pred(m) {
		// The failure does not reproduce on a bare re-check (e.g. a
		// ground-truth violation whose witness the shrinker cannot carry):
		// return the original miter untouched.
		return m
	}
	return Shrink(m, pred, maxChecks)
}
