package difftest

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"simsweep/internal/aig"
	"simsweep/internal/miter"
	"simsweep/internal/opt"
	"simsweep/internal/par"
)

// Failure is one violation found while cross-checking a miter.
type Failure struct {
	// Kind classifies the violation: "disagreement", "ground-truth",
	// "missing-cex", "invalid-cex", "incomplete" or "metamorphic-<t>".
	Kind string
	// Backend names the offender ("" when the failure is collective).
	Backend string
	// Detail is a human-readable description.
	Detail string
	// Miter is the circuit that exhibits the failure — for metamorphic
	// failures the transformed miter, otherwise the case miter. Shrinking
	// starts from it.
	Miter *aig.AIG
}

// NamedResult pairs a backend name with its answer on one miter.
type NamedResult struct {
	Name string
	BackendResult
	Skipped bool // backend not applicable (oracle over wide miters)
}

// CaseReport is the outcome of cross-checking one case.
type CaseReport struct {
	Case    Case
	Results []NamedResult
	// Verdict is the consensus among decided backends (Undecided when no
	// backend decided — itself reported as a failure when a complete
	// backend is in the roster).
	Verdict  miter.Outcome
	Failures []Failure
}

// summarize renders the per-backend verdicts deterministically
// (roster order) for the log line. Answers that survived internal faults
// are suffixed "~" so a chaos soak's log shows where injection bit.
func (r *CaseReport) summarize() string {
	parts := make([]string, 0, len(r.Results))
	for _, nr := range r.Results {
		if nr.Skipped {
			continue
		}
		s := nr.Name + ":" + token(nr.Verdict)
		if nr.Degraded {
			s += "~"
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, ",")
}

// CrossCheck runs every applicable backend of the roster on the case's
// miter and validates the differential contract:
//
//   - all decided backends agree on the verdict,
//   - backends marked Complete decide,
//   - every NotEquivalent answer carries a counter-example that replays
//     to a non-zero miter output,
//   - the consensus matches the generator's ground truth when one exists.
//
// It does not apply metamorphic transforms; see MetamorphicCheck.
func CrossCheck(dev *par.Device, backends []Backend, c Case) CaseReport {
	rep := CaseReport{Case: c}
	for i := range backends {
		b := &backends[i]
		if !b.Applicable(c.Miter) {
			rep.Results = append(rep.Results, NamedResult{Name: b.Name, Skipped: true})
			continue
		}
		start := time.Now()
		res := b.Check(c.Miter)
		res.Runtime = time.Since(start)
		rep.Results = append(rep.Results, NamedResult{Name: b.Name, BackendResult: res})
	}

	// Verdict consensus across decided backends.
	for _, nr := range rep.Results {
		if nr.Skipped || nr.Verdict == miter.Undecided {
			// A degraded Undecided from a Degradable backend is the engine's
			// graceful-degradation path doing its job (injected faults made it
			// withdraw work), not a completeness violation.
			b := backendByName(backends, nr.Name)
			if !nr.Skipped && b.Complete && !(b.Degradable && nr.Degraded) {
				rep.fail("incomplete", nr.Name, "complete backend returned undecided", c.Miter)
			}
			continue
		}
		if rep.Verdict == miter.Undecided {
			rep.Verdict = nr.Verdict
		} else if nr.Verdict != rep.Verdict {
			rep.fail("disagreement", nr.Name,
				fmt.Sprintf("verdict %s against consensus %s (%s)", token(nr.Verdict), token(rep.Verdict), rep.summarize()), c.Miter)
		}
	}

	// Counter-example contract: every NEQ must come with a valid cex.
	for _, nr := range rep.Results {
		if nr.Skipped || nr.Verdict != miter.NotEquivalent {
			continue
		}
		switch {
		case len(nr.CEX) == 0 && c.Miter.NumPIs() > 0:
			rep.fail("missing-cex", nr.Name, "NEQ verdict without a counter-example", c.Miter)
		case !CEXDistinguishes(dev, c.Miter, nr.CEX):
			rep.fail("invalid-cex", nr.Name,
				fmt.Sprintf("counter-example %v does not drive any miter output to 1", nr.CEX), c.Miter)
		}
	}

	// Ground truth from generation time.
	if c.Expected != miter.Undecided && rep.Verdict != miter.Undecided && rep.Verdict != c.Expected {
		rep.fail("ground-truth", "",
			fmt.Sprintf("consensus %s but generator established %s (%s)", token(rep.Verdict), token(c.Expected), rep.summarize()), c.Miter)
	}
	if c.Expected == miter.NotEquivalent && len(c.Witness) > 0 && !CEXDistinguishes(dev, c.Miter, c.Witness) {
		rep.fail("ground-truth", "", "generator witness no longer distinguishes the miter", c.Miter)
	}
	return rep
}

func (r *CaseReport) fail(kind, backend, detail string, m *aig.AIG) {
	r.Failures = append(r.Failures, Failure{Kind: kind, Backend: backend, Detail: detail, Miter: m})
}

func backendByName(backends []Backend, name string) *Backend {
	for i := range backends {
		if backends[i].Name == name {
			return &backends[i]
		}
	}
	return &Backend{}
}

// metamorphicTransforms builds the three verdict-preserving transforms of
// a case, with ground truth carried along: a seeded PI permutation (the
// witness permutes with it), a structural re-hash (rebuild through the
// strash table, dropping unreachable logic), and a resyn2 restructuring.
func metamorphicTransforms(dev *par.Device, c Case, rng *rand.Rand) []Case {
	perm := rand.New(rand.NewSource(rng.Int63())).Perm(c.Miter.NumPIs())
	permuted := PermutePIs(c.Miter, perm)
	var permutedWitness []bool
	if c.Witness != nil {
		permutedWitness = make([]bool, len(c.Witness))
		for i, p := range perm {
			// New input i plays old input p's role.
			permutedWitness[i] = c.Witness[p]
		}
	}
	strashed, _ := miter.Clean(c.Miter)
	resyn := opt.Resyn2(c.Miter, dev)
	mk := func(suffix string, m *aig.AIG, witness []bool) Case {
		return Case{
			Index:    c.Index,
			Seed:     c.Seed,
			Kind:     c.Kind + "+" + suffix,
			Miter:    m,
			Expected: c.Expected,
			Witness:  witness,
		}
	}
	return []Case{
		mk("permute", permuted, permutedWitness),
		mk("strash", strashed, c.Witness),
		mk("resyn2", resyn, c.Witness),
	}
}

// MetamorphicCheck applies the verdict-preserving transforms to a checked
// case and re-runs the full roster on each: a verdict that changes under
// PI permutation, re-strashing or resyn2 is reported as a
// "metamorphic-<transform>" failure against the original consensus.
func MetamorphicCheck(dev *par.Device, backends []Backend, c Case, base CaseReport, rng *rand.Rand) []CaseReport {
	if base.Verdict == miter.Undecided {
		return nil // nothing to preserve
	}
	var reports []CaseReport
	for _, tc := range metamorphicTransforms(dev, c, rng) {
		rep := CrossCheck(dev, backends, tc)
		if rep.Verdict != miter.Undecided && rep.Verdict != base.Verdict {
			suffix := tc.Kind[strings.LastIndex(tc.Kind, "+")+1:]
			rep.fail("metamorphic-"+suffix, "",
				fmt.Sprintf("verdict %s after %s, %s before", token(rep.Verdict), suffix, token(base.Verdict)), tc.Miter)
		}
		reports = append(reports, rep)
	}
	return reports
}

// BackendTiming aggregates one backend's runtime over a whole run.
type BackendTiming struct {
	Name    string
	Checks  int
	Decided int
	Total   time.Duration
}

// collectTimings folds per-case results into the per-backend table,
// keyed and later emitted in roster order.
func collectTimings(acc map[string]*BackendTiming, rep CaseReport) {
	for _, nr := range rep.Results {
		if nr.Skipped {
			continue
		}
		t := acc[nr.Name]
		if t == nil {
			t = &BackendTiming{Name: nr.Name}
			acc[nr.Name] = t
		}
		t.Checks++
		if nr.Verdict != miter.Undecided {
			t.Decided++
		}
		t.Total += nr.Runtime
	}
}

// sortedTimings renders the timing table in descending total-time order.
func sortedTimings(acc map[string]*BackendTiming) []BackendTiming {
	out := make([]BackendTiming, 0, len(acc))
	for _, t := range acc {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}
