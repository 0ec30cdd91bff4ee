package cluster

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"testing"
	"time"

	"simsweep"
	"simsweep/internal/aig"
	"simsweep/internal/service"
)

// TestMain doubles as the worker-helper entry point: when re-exec'd with
// CLUSTER_WORKER_HELPER=1 the binary becomes a real worker process — its
// own PID, listener and service — that the parent test can SIGKILL. That
// is the one failure mode in-process tests cannot fake.
func TestMain(m *testing.M) {
	if os.Getenv("CLUSTER_WORKER_HELPER") == "1" {
		runWorkerHelper()
		return
	}
	os.Exit(m.Run())
}

func runWorkerHelper() {
	id := os.Getenv("CLUSTER_WORKER_ID")
	coURL := os.Getenv("CLUSTER_CO_URL")
	svc := service.New(service.Config{MaxConcurrent: 1, TotalWorkers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: service.NewHandler(svc)}
	go srv.Serve(ln)
	if _, err := StartAgent(AgentConfig{
		ID: id, Advertise: "http://" + ln.Addr().String(), Coordinator: coURL,
		Interval: 50 * time.Millisecond, Service: svc,
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	select {} // run until killed
}

func spawnWorkerProcess(t *testing.T, coURL, id string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(),
		"CLUSTER_WORKER_HELPER=1",
		"CLUSTER_WORKER_ID="+id,
		"CLUSTER_CO_URL="+coURL,
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return cmd
}

// TestSIGKILLWorkerMidSweep drives jobs through two real worker processes
// and SIGKILLs the one running a long SAT sweep. Every job — including the
// one that died mid-execution — must settle exactly once on the survivor
// with a correct verdict: zero lost jobs, zero wrong verdicts. The NEQ jobs
// must also keep a counter-example that tells their two circuits apart.
func TestSIGKILLWorkerMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills real processes")
	}
	circuits(t)
	co, base := startCoordinator(t, Config{
		HeartbeatTimeout: 500 * time.Millisecond,
		Slots:            2,
	})
	procs := map[string]*exec.Cmd{
		"kw1": spawnWorkerProcess(t, base, "kw1"),
		"kw2": spawnWorkerProcess(t, base, "kw2"),
	}
	waitWorkers(t, co, 2, 30*time.Second)

	sa, sb := slowVariant(2)
	sj, _ := postJob(t, base, pairBodyEngine(t, sa, sb, simsweep.EngineSAT))
	deadline := time.Now().Add(30 * time.Second)
	victim := ""
	for victim == "" {
		if time.Now().After(deadline) {
			t.Fatal("slow job never dispatched")
		}
		victim = getJob(t, base, sj.ID).Node
		time.Sleep(10 * time.Millisecond)
	}
	var ids []string
	for i := 0; i < 6; i++ {
		a, b := eqVariant(i)
		j, _ := postJob(t, base, pairBody(t, a, b))
		ids = append(ids, j.ID)
	}
	type neqJob struct {
		id   string
		a, b *aig.AIG
	}
	var neqs []neqJob
	for i := 0; i < 3; i++ {
		a, b := neqVariant(i)
		j, _ := postJob(t, base, pairBody(t, a, b))
		neqs = append(neqs, neqJob{j.ID, a, b})
	}

	// SIGKILL the worker process holding the slow job.
	if err := procs[victim].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	procs[victim].Wait()

	survivor := "kw1"
	if victim == "kw1" {
		survivor = "kw2"
	}
	for _, id := range append([]string{sj.ID}, ids...) {
		j := waitJob(t, base, id, 180*time.Second)
		if service.State(j.State) != service.StateDone || j.Verdict != simsweep.Equivalent.String() {
			t.Fatalf("job %s after SIGKILL: state=%s verdict=%q err=%q", id, j.State, j.Verdict, j.Error)
		}
	}
	for _, nj := range neqs {
		j := waitJob(t, base, nj.id, 180*time.Second)
		if service.State(j.State) != service.StateDone || j.Verdict != simsweep.NotEquivalent.String() {
			t.Fatalf("NEQ job %s after SIGKILL: state=%s verdict=%q err=%q", nj.id, j.State, j.Verdict, j.Error)
		}
		if len(j.CEX) != nj.a.NumPIs() {
			t.Fatalf("NEQ job %s: counter-example has %d inputs, want %d", nj.id, len(j.CEX), nj.a.NumPIs())
		}
		in := make([]bool, len(j.CEX))
		for i, v := range j.CEX {
			in[i] = v == 1
		}
		if slices.Equal(nj.a.Eval(in), nj.b.Eval(in)) {
			t.Fatalf("NEQ job %s: counter-example %v does not tell the circuits apart", nj.id, j.CEX)
		}
	}
	// The slow job must have been re-run by the survivor specifically.
	if got := getJob(t, base, sj.ID).Node; got != survivor {
		t.Fatalf("slow job settled by %q, want survivor %q", got, survivor)
	}
	st := co.Stats()
	if st.Deaths < 1 || st.Requeues < 1 {
		t.Fatalf("SIGKILL not observed as a death: %+v", st)
	}
}
