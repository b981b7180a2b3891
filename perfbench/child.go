package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"scioto/internal/core"
	"scioto/internal/pgas"
	"scioto/internal/pgas/ipc"
)

// The ipc transport launches a world by re-executing this binary once per
// rank (SCIOTO_IPC_RANK and SCIOTO_IPC_WORLD name the rank and the world).
// A rank process must reach the same NewWorld call as the launcher without
// repeating the launcher's work, so the launcher describes each world in
// the PERFBENCH_JOB environment variable before spawning it, and a rank
// process (runChild) does nothing but create worlds from that description
// until it reaches its own. Rank 0 hands its results back through the
// job's result file.
const (
	envIPCRank  = "SCIOTO_IPC_RANK"
	envIPCWorld = "SCIOTO_IPC_WORLD"
	envJob      = "PERFBENCH_JOB"
)

// job describes one ipc world: what its ranks run and where rank 0
// reports.
type job struct {
	Kind    string  `json:"kind"` // a key of jobBodies
	Seed    int64   `json:"seed"`
	Scale   string  `json:"scale"`
	Seconds float64 `json:"seconds,omitempty"` // tce: length of the round loop
	Trace   string  `json:"trace,omitempty"`   // trace directory; "" = untraced
	Out     string  `json:"out"`               // rank 0's result file
}

// worldResult is rank 0's report of one world. Times are Unix
// nanoseconds, comparable across the processes of one host.
type worldResult struct {
	LaunchNs int64     `json:"launch_ns"` // first barrier: every rank is up
	ReadyNs  int64     `json:"ready_ns"`  // setup done: ready for the first timed phase
	Phases   []phase   `json:"phases,omitempty"`
	Stats    []int64   `json:"stats,omitempty"`  // statVector, summed over ranks
	Layers   []float64 `json:"layers,omitempty"` // job-specific layer timings
	Verify   string    `json:"verify,omitempty"` // a failed output check
	Err      string    `json:"err,omitempty"`    // the world failed
}

// phase is one timed task-parallel phase.
type phase struct {
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	Work    int64 `json:"work"` // verified work units
	Tasks   int64 `json:"tasks"`
	// Nodes, Leaves and Depth are the UTS tree counts.
	Nodes, Leaves, Depth int64
	Virtual              int64 `json:"virtual,omitempty"` // dsim: virtual ns
}

func (ph phase) wall() time.Duration { return time.Duration(ph.EndNs - ph.StartNs) }

// jobBodies maps a job kind to the SPMD body its ranks run; rank 0's
// return value is the world's result.
var jobBodies = map[string]func(p pgas.Proc, j job) *worldResult{
	"setup-uts": setupUTSBody,
	"uts":       utsIPCBody,
	"setup-tce": setupTCEBody,
	"tce":       tceBody,
	"ops":       opsBody,
}

// runIPC launches one 2-rank ipc world for the job and returns rank 0's
// result and the launcher-side start time.
func runIPC(j job, name string, dir string) (*worldResult, time.Time, error) {
	j.Out = fmt.Sprintf("%s/%s.json", dir, name)
	b, err := json.Marshal(j)
	if err != nil {
		return nil, time.Time{}, err
	}
	if err := os.Setenv(envJob, string(b)); err != nil {
		return nil, time.Time{}, err
	}
	start := time.Now()
	if err := runJob(j); err != nil {
		return nil, start, fmt.Errorf("%s world: %w", j.Kind, err)
	}
	raw, err := os.ReadFile(j.Out)
	if err != nil {
		return nil, start, fmt.Errorf("%s world: rank 0 left no result: %w", j.Kind, err)
	}
	var r worldResult
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, start, fmt.Errorf("%s world: %w", j.Kind, err)
	}
	if r.Err != "" {
		return nil, start, fmt.Errorf("%s world: %s", j.Kind, r.Err)
	}
	return &r, start, nil
}

// runJob creates the job's ipc world and runs its body; in a rank process
// the call for the rank's own world does not return.
func runJob(j job) error {
	body := jobBodies[j.Kind]
	w := ipc.NewWorld(ipc.Config{NProcs: 2, Seed: j.Seed})
	return observedRun(w, j.Trace, func(p pgas.Proc) {
		r := body(p, j)
		if p.Rank() == 0 {
			writeResult(j.Out, r)
		}
	})
}

// writeResult saves rank 0's result; a failure to write it shows up in
// the launcher as a missing result.
func writeResult(path string, r *worldResult) {
	b, err := json.Marshal(r)
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing rank result:", err)
	}
}

// runChild is a rank process's whole program: create worlds from the
// launcher's job description until the one this process was spawned for
// runs (and exits the process).
func runChild() {
	// One P per rank process: a rank is one goroutine, and with the
	// default GOMAXPROCS two rank processes on two CPUs run their garbage
	// collectors' workers in parallel with the other rank's work.
	runtime.GOMAXPROCS(1)
	var j job
	if err := json.Unmarshal([]byte(os.Getenv(envJob)), &j); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: rank process without a job:", err)
		os.Exit(1)
	}
	if _, ok := jobBodies[j.Kind]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown job kind %q\n", j.Kind)
		os.Exit(1)
	}
	target, err := strconv.Atoi(os.Getenv(envIPCWorld))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: bad world number:", err)
		os.Exit(1)
	}
	for i := 1; i <= target; i++ {
		if err := runJob(j); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench: rank process passed its world without running it")
	os.Exit(1)
}

// guard runs a rank body, turning a panic on rank 0 into the world's
// error so the launcher reports it; other ranks re-panic into the
// transport's fault containment.
func guard(p pgas.Proc, r *worldResult, body func()) *worldResult {
	defer func() {
		if e := recover(); e != nil {
			if p.Rank() != 0 {
				panic(e)
			}
			r.Err = fmt.Sprint(e)
		}
	}()
	body()
	return r
}

// statVector flattens the core.Stats fields the layer metrics use.
func statVector(s core.Stats) []int64 {
	return []int64{
		s.TasksExecuted, s.InlineExecs, s.Releases, s.Reacquires,
		s.StealAttempts, s.StealsOK, s.TasksStolen,
		s.DirtyMarksSent, s.DirtyMarksElided, s.WavesSeen, s.BlackVotes,
	}
}

// statNames labels statVector's entries, in order.
var statNames = []string{
	"tasks", "inline", "releases", "reacquires",
	"steal_attempts", "steals_ok", "tasks_stolen",
	"dirty_sent", "dirty_elided", "waves", "black_votes",
}

// sumToRoot adds every rank's vals into rank 0 and returns the totals on
// rank 0 (nil elsewhere). Collective.
func sumToRoot(p pgas.Proc, vals []int64) []int64 {
	seg := p.AllocWords(len(vals))
	p.Barrier()
	for i, v := range vals {
		p.FetchAdd64(0, seg, i, v)
	}
	p.Barrier()
	if p.Rank() != 0 {
		return nil
	}
	out := make([]int64, len(vals))
	for i := range out {
		out[i] = p.Load64(0, seg, i)
	}
	return out
}

// opsBody runs the Table 1 microbenchmark (rank 0 against rank 1).
func opsBody(p pgas.Proc, j job) *worldResult {
	r := &worldResult{}
	return guard(p, r, func() {
		t := core.MeasureOps(p, 1024, 10, 2000)
		r.Layers = []float64{us(t.LocalInsert), us(t.LocalGet), us(t.RemoteInsert), us(t.RemoteSteal)}
	})
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
