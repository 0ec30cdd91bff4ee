// Command ledger is the repository's benchmark: it measures checking from
// the user's side of the system, end to end and layer by layer, on four
// workloads — datapath, control, bughunt and service (see README.md).
//
// Build and run it through bench.sh from the repository root, which builds
// this command and cecd from source first:
//
//	bash cmd/ledger/bench.sh -seed 1                      every workload: untraced + traced run
//	bash cmd/ledger/bench.sh -runs 5 -out set.json        five seeds, summary with medians and IQRs
//	bash cmd/ledger/bench.sh -workload control -trace 0   one run, closing with a one-line JSON result
//	bash cmd/ledger/bench.sh -compare base.json head.json regression check against BENCHMARK.json bounds
//
// Every verdict is checked against the answer known by construction, and
// every counter-example is replayed on both circuits; a wrong verdict makes
// the command exit 1.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// childArg, as the only argument, makes the process an engine child.
const childArg = "-child"

// reportPrefix marks the line a single run prints its full report on.
const reportPrefix = "report: "

func main() {
	if len(os.Args) == 2 && os.Args[1] == childArg {
		if err := runChild(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "ledger child:", err)
			os.Exit(2)
		}
		return
	}
	os.Exit(mainCode())
}

func mainCode() int {
	names := flag.String("workload", "", "comma-separated workloads (default: all of datapath,control,bughunt,service)")
	seed := flag.Int64("seed", 1, "workload seed: generates every input of the run")
	seconds := flag.Float64("seconds", 25, "measured length of an untraced run, in seconds")
	traceMode := flag.Int("trace", -1, "0: one untraced run (end-to-end metrics); 1: one traced run (per-layer metrics); -1: both, for every selected workload")
	runs := flag.Int("runs", 1, "with -trace -1: repeat with seeds seed..seed+runs-1")
	out := flag.String("out", "", "with -trace -1: write the runs and their summary as JSON to this file")
	traceOut := flag.String("trace-out", "", "write the traced run's Chrome trace JSON here (open in ui.perfetto.dev)")
	cecd := flag.String("cecd", "", "cecd binary the service workload starts")
	compare := flag.Bool("compare", false, "compare two -out files against the bounds in BENCHMARK.json: ledger -compare base.json head.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "ledger: -compare needs two files: base.json head.json")
			return 2
		}
		return compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "ledger: unexpected arguments:", flag.Args())
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintln(os.Stderr, "ledger: -seconds must be positive")
		return 2
	}
	selected, err := selectWorkloads(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 2
	}
	o := runOpts{seed: *seed, seconds: *seconds, traceOut: *traceOut, startService: cecdTarget(*cecd)}
	switch *traceMode {
	case 0, 1:
		if len(selected) != 1 {
			fmt.Fprintln(os.Stderr, "ledger: -trace 0|1 runs exactly one -workload")
			return 2
		}
		if selected[0].instances == nil && *cecd == "" {
			fmt.Fprintln(os.Stderr, "ledger: the service workload needs -cecd")
			return 2
		}
		o.trace = *traceMode == 1
		return single(selected[0], o)
	case -1:
		if *runs < 1 {
			fmt.Fprintln(os.Stderr, "ledger: -runs must be at least 1")
			return 2
		}
		return full(selected, o, *runs, *cecd, *out)
	}
	fmt.Fprintln(os.Stderr, "ledger: -trace must be -1, 0 or 1")
	return 2
}

func selectWorkloads(names string) ([]workload, error) {
	if names == "" {
		return workloads, nil
	}
	var out []workload
	for _, n := range strings.Split(names, ",") {
		w, ok := workloadByName(strings.TrimSpace(n))
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
		out = append(out, w)
	}
	return out, nil
}

// single runs one workload once and prints its report, the report as JSON,
// and the one-line result.
func single(w workload, o runOpts) int {
	rep, err := run(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 2
	}
	printReport(os.Stdout, rep)
	data, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 2
	}
	line, err := resultLine(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 2
	}
	fmt.Printf("%s%s\n%s\n", reportPrefix, data, line)
	if rep.Wrong > 0 {
		return 1
	}
	return 0
}

// tracedSeconds is the length of the short traced run of the full mode:
// 4 s of alternating untraced and traced passes (at least one of each) for
// an engine workload, ten alternating 1 s open-loop segments for the
// service.
func tracedSeconds(w workload) float64 {
	if w.instances == nil {
		return 10
	}
	return 4
}

// full runs every selected workload untraced and traced, each run in its
// own child process, for runs seeds; prints the reports and a summary; and
// writes them to out when set.
func full(selected []workload, o runOpts, runs int, cecd, out string) int {
	set := runSet{Env: currentEnv(), Seconds: o.seconds}
	wrong := false
	for r := 0; r < runs; r++ {
		seed := o.seed + int64(r)
		for _, w := range selected {
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-cecd", cecd}
			e2e, err := childRun(append(args, "-trace", "0", "-seconds", fmt.Sprint(o.seconds)))
			if err != nil {
				fmt.Fprintln(os.Stderr, "ledger:", err)
				return 2
			}
			targs := append(args, "-trace", "1", "-seconds", fmt.Sprint(tracedSeconds(w)))
			if o.traceOut != "" {
				targs = append(targs, "-trace-out", traceOutFor(o.traceOut, w.name, len(selected) > 1 || runs > 1, seed))
			}
			layers, err := childRun(targs)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ledger:", err)
				return 2
			}
			wrong = wrong || e2e.Wrong > 0 || layers.Wrong > 0
			set.Runs = append(set.Runs, setRun{Workload: w.name, Seed: seed, E2E: e2e, Layers: layers})
		}
	}
	set.summarize()
	fmt.Println()
	set.printSummary(os.Stdout)
	if out != "" {
		data, err := json.MarshalIndent(set, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ledger:", err)
			return 2
		}
		fmt.Println("wrote", out)
	}
	if wrong {
		fmt.Fprintln(os.Stderr, "ledger: WRONG verdicts (see notes)")
		return 1
	}
	return 0
}

// traceOutFor names the Chrome trace file of one traced run; with several
// runs the workload and seed are added before the extension.
func traceOutFor(path, workload string, many bool, seed int64) string {
	if !many {
		return path
	}
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s.%s-%d%s", strings.TrimSuffix(path, ext), workload, seed, ext)
}

// childRun runs this command for one single run in a child process,
// echoes its report and returns it.
func childRun(args []string) (*runReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	var rep *runReport
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, reportPrefix) {
			rep = new(runReport)
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, reportPrefix)), rep); err != nil {
				return nil, fmt.Errorf("child report: %w", err)
			}
			continue
		}
		if !strings.HasPrefix(line, "{") {
			fmt.Println(line)
		}
	}
	if rep == nil {
		return nil, fmt.Errorf("run %v: %v", args, runErr)
	}
	return rep, nil
}
