// Package bench is the experiment harness regenerating the paper's
// evaluation artifacts: Table II (per-benchmark runtime comparison of the
// SAT sweeping baseline, the portfolio "commercial" checker and the
// simulation engine + SAT hybrid), Figure 6 (phase runtime breakdown of
// the simulation engine) and Figure 7 (SAT time on the intermediate miters
// of the P / PG / PGL flow prefixes, normalised to standalone SAT).
//
// The benchmark instances are width-scaled regenerations of the paper's
// families (see internal/gen); absolute runtimes are CPU-sized, but the
// comparison columns are computed identically to the paper's.
package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"simsweep/internal/aig"
	"simsweep/internal/bdd"
	"simsweep/internal/core"
	"simsweep/internal/gen"
	"simsweep/internal/miter"
	"simsweep/internal/opt"
	"simsweep/internal/par"
	"simsweep/internal/portfolio"
	"simsweep/internal/satsweep"
)

// Case describes one experiment instance: a benchmark family, its scale
// and the number of doubling enlargements (the paper's "_nxd" suffix).
type Case struct {
	Name      string
	Scale     int
	Doublings int
}

// String names the case as "<family>-<scale>[xN]".
func (c Case) String() string {
	if c.Doublings == 0 {
		return c.Name
	}
	return fmt.Sprintf("%s_%dxd", c.Name, c.Doublings)
}

// Suite returns the nine Table II families at CPU-sized scales. size 0 or
// 1 selects the quick suite; 2 roughly quadruples the instances.
func Suite(size int) []Case {
	if size < 1 {
		size = 1
	}
	d := size - 1 // extra doublings
	return []Case{
		{Name: "hyp", Scale: 5 + size, Doublings: 1 + d},
		{Name: "log2", Scale: 8 + 2*size, Doublings: 1 + d},
		{Name: "multiplier", Scale: 6 + 2*size, Doublings: 1 + d},
		{Name: "sqrt", Scale: 8 + 4*size, Doublings: 1 + d},
		{Name: "square", Scale: 6 + 2*size, Doublings: 1 + d},
		{Name: "voter", Scale: 3 + size, Doublings: 1 + d},
		{Name: "sin", Scale: 8 + 2*size, Doublings: 1 + d},
		{Name: "ac97_ctrl", Scale: 3 + size, Doublings: 1 + d},
		{Name: "vga_lcd", Scale: 3 + size, Doublings: 1 + d},
	}
}

// Instance is a materialised experiment: the original and optimized
// circuits and their miter.
type Instance struct {
	Case  Case
	Orig  *aig.AIG
	Opt   *aig.AIG
	Miter *aig.AIG
}

// Build materialises a case: generate, enlarge by doubling, optimize with
// the resyn2-style script and build the miter — the exact construction of
// the paper's benchmarks.
func Build(c Case, dev *par.Device) (*Instance, error) {
	g, err := gen.Benchmark(c.Name, c.Scale)
	if err != nil {
		return nil, err
	}
	g = aig.DoubleN(g, c.Doublings)
	o := opt.Resyn2(g, dev)
	m, err := miter.Build(g, o)
	if err != nil {
		return nil, err
	}
	m.Name = c.String()
	return &Instance{Case: c, Orig: g, Opt: o, Miter: m}, nil
}

// Options configures the harness.
type Options struct {
	Workers       int
	Seed          int64
	ConflictLimit int64 // SAT conflict limit of the hybrid's backend
	// SimConfig overrides the engine configuration (nil: defaults).
	SimConfig *core.Config
	// Dev, when non-nil, is the shared parallel device every engine run
	// dispatches on, so one kernel profile accumulates across the whole
	// harness run (the kernel profile benchtab writes with -benchjson).
	// When nil, each run gets a fresh device with Workers workers.
	Dev *par.Device
}

func (o Options) dev() *par.Device {
	if o.Dev != nil {
		return o.Dev
	}
	return par.NewDevice(o.Workers)
}

func (o Options) simConfig(dev *par.Device) core.Config {
	cfg := core.DefaultConfig()
	if o.SimConfig != nil {
		cfg = *o.SimConfig
	}
	cfg.Dev = dev
	cfg.Seed = o.Seed
	return cfg
}

// Table2Row is one line of the Table II reproduction.
type Table2Row struct {
	Case       Case
	PIs, POs   int
	Nodes      int // miter AND nodes
	Levels     int
	ABCTime    time.Duration // standalone SAT sweeping ("ABC &cec")
	CfmTime    time.Duration // portfolio checker ("Conformal, 16 CPUs")
	GPUTime    time.Duration // simulation engine alone ("GPU (s)")
	ReducedPct float64       // miter reduction by the simulation engine
	SATAfter   time.Duration // SAT on the reduced miter ("ABC (s)")
	TotalOurs  time.Duration // GPU + SAT ("Total (s)")
	SpeedupABC float64
	SpeedupCfm float64
	Verdicts   [3]string // abc, cfm, ours
}

// RunTable2Case produces one row.
func RunTable2Case(inst *Instance, o Options) Table2Row {
	row := Table2Row{
		Case:   inst.Case,
		PIs:    inst.Orig.NumPIs(),
		POs:    inst.Orig.NumPOs(),
		Nodes:  inst.Miter.NumAnds(),
		Levels: inst.Miter.Level(),
	}

	// Column "ABC &cec": the standalone SAT sweeping baseline.
	abcStart := time.Now()
	abcRes := satsweep.CheckMiter(inst.Miter, satsweep.Options{Dev: o.dev(), Seed: o.Seed})
	row.ABCTime = time.Since(abcStart)
	row.Verdicts[0] = abcRes.Outcome.String()

	// Column "Cfm": the multi-engine portfolio.
	cfmStart := time.Now()
	cfmRes := portfolio.Check(inst.Miter, portfolioEngines(o))
	row.CfmTime = time.Since(cfmStart)
	row.Verdicts[1] = cfmRes.Outcome.String()

	// Columns "Ours": simulation engine, then SAT on the remainder.
	gpuStart := time.Now()
	simRes := core.CheckMiter(inst.Miter, o.simConfig(o.dev()))
	row.GPUTime = time.Since(gpuStart)
	row.ReducedPct = simRes.Stats.ReductionPercent()
	total := row.GPUTime
	verdict := simRes.Outcome.String()
	if simRes.Outcome == miter.Undecided {
		satStart := time.Now()
		after := satsweep.CheckMiter(simRes.Reduced, satsweep.Options{
			Dev:           o.dev(),
			Seed:          o.Seed,
			ConflictLimit: o.ConflictLimit,
		})
		row.SATAfter = time.Since(satStart)
		total += row.SATAfter
		verdict = after.Outcome.String()
	}
	row.TotalOurs = total
	row.Verdicts[2] = verdict

	row.SpeedupABC = ratio(row.ABCTime, row.TotalOurs)
	row.SpeedupCfm = ratio(row.CfmTime, row.TotalOurs)
	return row
}

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return math.Inf(1)
	}
	return float64(a) / float64(b)
}

// portfolioEngines assembles the commercial-checker substitute. Following
// the paper's model of the commercial tool ("a combination of engines …
// run different engines simultaneously and early stop"), it races the
// classic commercial engine mix — SAT sweeping with two different seeds
// and a BDD engine bounded to 2M nodes, so a blowup case (multipliers)
// yields "undecided" instead of unbounded memory growth — WITHOUT the
// paper's own simulation engine, which is the novelty under evaluation.
// Every member watches the portfolio's stop, so no loser outlives the
// winner's verdict.
func portfolioEngines(o Options) []portfolio.Engine {
	mkSAT := func(name string, seed int64) portfolio.Engine {
		return portfolio.Engine{
			Name: name,
			Run: func(m *aig.AIG, stop <-chan struct{}) (miter.Outcome, []bool) {
				sr := satsweep.CheckMiter(m, satsweep.Options{Dev: o.dev(), Seed: seed, Stop: stop})
				return sr.Outcome, sr.CEX
			},
		}
	}
	return []portfolio.Engine{
		mkSAT("sat-a", o.Seed+1),
		mkSAT("sat-b", o.Seed+77),
		{
			Name: "bdd",
			Run: func(m *aig.AIG, stop <-chan struct{}) (miter.Outcome, []bool) {
				equal, cex, err := bdd.CheckMiter(m, 1<<21, stop)
				switch {
				case err != nil:
					return miter.Undecided, nil
				case equal:
					return miter.Equivalent, nil
				}
				return miter.NotEquivalent, cex
			},
		},
	}
}

// FormatTable2 renders rows in the layout of the paper's Table II, with
// the geomean speedups of the final line.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %8s %8s %9s %7s | %10s %10s | %10s %8s %10s %10s | %9s %9s\n",
		"Benchmark", "#PIs", "#POs", "#Nodes", "Levels",
		"ABC(s)", "Cfm(s)", "GPU(s)", "Red(%)", "SAT(s)", "Total(s)", "vs.ABC", "vs.Cfm")
	var logABC, logCfm float64
	solvedAlone := 0
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %8d %8d %9d %7d | %10.3f %10.3f | %10.3f %8.1f %10.3f %10.3f | %8.2fx %8.2fx\n",
			r.Case, r.PIs, r.POs, r.Nodes, r.Levels,
			r.ABCTime.Seconds(), r.CfmTime.Seconds(),
			r.GPUTime.Seconds(), r.ReducedPct, r.SATAfter.Seconds(), r.TotalOurs.Seconds(),
			r.SpeedupABC, r.SpeedupCfm)
		logABC += math.Log(r.SpeedupABC)
		logCfm += math.Log(r.SpeedupCfm)
		if r.ReducedPct >= 100 {
			solvedAlone++
		}
	}
	n := float64(len(rows))
	fmt.Fprintf(&b, "%-18s %8s %8s %9s %7s | %10s %10s | %10s %8s %10s %10s | %8.2fx %8.2fx\n",
		"Geomean", "", "", "", "", "", "", "", "", "", "",
		math.Exp(logABC/n), math.Exp(logCfm/n))
	fmt.Fprintf(&b, "\nsim engine fully proved %d of %d cases on its own (100%% reduction)\n",
		solvedAlone, len(rows))
	return b.String()
}

// Figure6Row reports the phase runtime breakdown of one case.
type Figure6Row struct {
	Case                Case
	PTime, GTime, LTime time.Duration
	Total               time.Duration
}

// Percent returns the P/G/L percentages.
func (r Figure6Row) Percent() (p, g, l float64) {
	if r.Total <= 0 {
		return 0, 0, 0
	}
	t := float64(r.Total)
	return 100 * float64(r.PTime) / t, 100 * float64(r.GTime) / t, 100 * float64(r.LTime) / t
}

// RunFigure6Case measures the phase breakdown of the simulation engine.
func RunFigure6Case(inst *Instance, o Options) Figure6Row {
	res := core.CheckMiter(inst.Miter, o.simConfig(o.dev()))
	row := Figure6Row{Case: inst.Case}
	for _, ph := range res.Phases {
		switch ph.Kind {
		case core.PhaseP:
			row.PTime += ph.Duration
		case core.PhaseG:
			row.GTime += ph.Duration
		default:
			row.LTime += ph.Duration
		}
	}
	row.Total = row.PTime + row.GTime + row.LTime
	return row
}

// FormatFigure6 renders the breakdown as the textual analogue of Fig. 6.
func FormatFigure6(rows []Figure6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %8s %8s %8s   %s\n", "Benchmark", "P(%)", "G(%)", "L(%)", "bar (P=#, G=+, L=-)")
	for _, r := range rows {
		p, g, l := r.Percent()
		fmt.Fprintf(&b, "%-18s %8.1f %8.1f %8.1f   %s\n", r.Case, p, g, l, breakdownBar(p, g, l))
	}
	return b.String()
}

func breakdownBar(p, g, l float64) string {
	const width = 40
	np := int(p / 100 * width)
	ng := int(g / 100 * width)
	nl := width - np - ng
	if nl < 0 {
		nl = 0
	}
	return strings.Repeat("#", np) + strings.Repeat("+", ng) + strings.Repeat("-", nl)
}

// Figure7Row reports, for one case, the SAT sweeping time on the
// intermediate miters after the P, P+G and P+G+L flow prefixes,
// normalised by the standalone SAT time on the original miter.
type Figure7Row struct {
	Case       Case
	Standalone time.Duration
	AfterP     float64 // normalised
	AfterPG    float64
	AfterPGL   float64
}

// RunFigure7Case reproduces the Figure 7 experiment for one case.
func RunFigure7Case(inst *Instance, o Options) Figure7Row {
	row := Figure7Row{Case: inst.Case}

	stStart := time.Now()
	satsweep.CheckMiter(inst.Miter, satsweep.Options{Dev: o.dev(), Seed: o.Seed})
	row.Standalone = time.Since(stStart)

	cfg := o.simConfig(o.dev())
	cfg.KeepSnapshots = true
	res := core.CheckMiter(inst.Miter, cfg)

	norm := func(m *aig.AIG) float64 {
		if m == nil {
			return math.NaN()
		}
		if miter.IsProved(m) {
			return 0
		}
		s := time.Now()
		satsweep.CheckMiter(m, satsweep.Options{Dev: o.dev(), Seed: o.Seed})
		return ratio(time.Since(s), row.Standalone)
	}
	row.AfterP = norm(res.Snapshots["P"])
	row.AfterPG = norm(res.Snapshots["PG"])
	row.AfterPGL = norm(res.Snapshots["PGL"])
	return row
}

// FormatFigure7 renders the normalised flow comparison of Fig. 7.
func FormatFigure7(rows []Figure7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %12s | %8s %8s %8s\n", "Benchmark", "standalone", "P", "PG", "PGL")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %11.3fs | %8.3f %8.3f %8.3f\n",
			r.Case, r.Standalone.Seconds(), r.AfterP, r.AfterPG, r.AfterPGL)
	}
	b.WriteString("\n(entries are SAT-sweeping time on the miter remaining after each flow\n prefix, normalised by standalone SAT sweeping; 0.000 = fully proved)\n")
	return b.String()
}

// SortRowsPaperOrder keeps rows in the paper's benchmark order.
func SortRowsPaperOrder(rows []Table2Row) {
	order := map[string]int{}
	for i, n := range gen.Names() {
		order[n] = i
	}
	sort.SliceStable(rows, func(i, j int) bool {
		return order[rows[i].Case.Name] < order[rows[j].Case.Name]
	})
}
