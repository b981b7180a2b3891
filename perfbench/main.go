// Command perfbench is the repository benchmark: one command that runs a
// workload end to end, verifies every output, and prints every metric by
// name with its unit. See README.md for the workloads, the metrics and the
// layer each per-layer metric is predicted to move.
//
//	go run . --workload uts-ipc --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is a JSON
// report with the machine, the inputs and the sample counts. With
// --trace 0 the metrics are the end-to-end set, measured with the
// program's observability off. With --trace 1 half of the run is measured
// untraced and half with observability and tracing on, and the metrics are
// the per-layer set.
//
// The ipc workloads re-execute this binary as their rank processes; a rank
// process runs only the world it was spawned for (see child.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"scioto/internal/bench"
)

// setupReps is how many times a run sets its workload up from scratch
// before the timed window; setup_s is their median. Odd, so the median
// is one sample.
const setupReps = 31

// opts is the parsed command line.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string // "full" (the benchmark) or "tiny" (the smoke test)
	workDir  string // run-time files: ipc mappings, traces, rank results
}

// result is what a workload reports: verification counts, metric values
// and the report details printed before the final line.
type result struct {
	attempted, failed int64
	metrics           map[string]float64
	details           map[string]any
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, details: map[string]any{}}
}

// check counts one verified operation and records a failure message.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		msg := fmt.Sprintf(format, args...)
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", msg)
		if errs, _ := r.details["failures"].([]string); len(errs) < 20 {
			r.details["failures"] = append(errs, msg)
		}
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(o opts) (*result, error){
	"uts-ipc":    runUTSIPC,
	"tce-ipc":    runTCEIPC,
	"serve-shm":  runServeSHM,
	"uts-dsim64": runUTSDsim,
}

func main() {
	if os.Getenv(envIPCRank) != "" {
		runChild()
		return
	}
	var o opts
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: uts-ipc, tce-ipc, serve-shm or uts-dsim64")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.scale, "scale", "full", "input size: full or tiny (smoke test)")
	flag.Parse()
	o.trace = trace == 1
	run, ok := workloads[o.workload]
	if !ok || (o.scale != "full" && o.scale != "tiny") || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, scale %q, seconds %g)\n", o.workload, o.scale, o.seconds)
		os.Exit(2)
	}
	if err := prepareWorkDir(&o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !o.trace {
		res.metrics["rss_peak_mb"] = peakRSSMB()
		res.metrics["ok_frac"] = 1 - float64(res.failed)/float64(res.attempted)
	}
	if err := emit(o, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// prepareWorkDir creates the per-run directory under .bench_build in the
// working directory and points the ipc transport's shared files at it,
// so a run reads and writes only inside the checkout.
func prepareWorkDir(o *opts) error {
	dir, err := filepath.Abs(filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d", o.workload, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	o.workDir = dir
	return os.Setenv("SCIOTO_IPC_DIR", dir)
}

// emit prints the report line and the final result line, and removes
// the run directory unless the run was traced (its trace dumps and
// spans are kept next to it for inspection).
func emit(o opts, res *result) error {
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	out := map[string]any{}
	for _, m := range want {
		v, ok := res.metrics[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	res.details["workload"] = o.workload
	res.details["seed"] = o.seed
	res.details["seconds"] = o.seconds
	res.details["scale"] = o.scale
	res.details["machine"] = bench.MachineInfo()
	if o.trace {
		res.details["trace_dir"] = o.workDir
	} else if err := os.RemoveAll(o.workDir); err != nil {
		return err
	}
	report, err := json.Marshal(map[string]any{"report": res.details})
	if err != nil {
		return err
	}
	final, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(report))
	fmt.Println(string(final))
	return nil
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is the metric set of an untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"rss_peak_mb", "MB"},
	{"ok_frac", "ratio"},
}

// perLayer is the metric set of a traced run, on every workload. A layer
// a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"pgas.launch_ms", "ms"},
	{"pgas.get_remote_p50_us", "us"},
	{"pgas.accf64_remote_p50_us", "us"},
	{"pgas.barrier_p50_us", "us"},
	{"pgas.bytes_per_work", "B"},
	{"pgas.ops_per_work", "count"},
	{"pgas.ipc_ring_wait_frac", "ratio"},
	{"pgas.ipc_barrier_park_frac", "ratio"},
	{"pgas.dsim_nic_frac", "ratio"},
	{"dsim.wall_per_virtual", "ratio"},
	{"dsim.wall_work_per_s", "1/s"},
	{"core.ipc_local_insert_us", "us"},
	{"core.ipc_local_get_us", "us"},
	{"core.ipc_remote_insert_us", "us"},
	{"core.ipc_remote_steal_us", "us"},
	{"core.shm_local_insert_us", "us"},
	{"core.shm_local_get_us", "us"},
	{"core.shm_remote_insert_us", "us"},
	{"core.shm_remote_steal_us", "us"},
	{"core.dsim_local_insert_us", "us"},
	{"core.dsim_local_get_us", "us"},
	{"core.dsim_remote_insert_us", "us"},
	{"core.dsim_remote_steal_us", "us"},
	{"core.table1_order_ok", "bool"},
	{"core.sched_ns_per_task", "ns"},
	{"core.releases_per_ktask", "count"},
	{"core.reacquires_per_ktask", "count"},
	{"core.inline_execs", "count"},
	{"core.queue_lock_wait_frac", "ratio"},
	{"core.queue_lock_held_frac", "ratio"},
	{"core.steal_attempts", "count"},
	{"core.steal_success_ratio", "ratio"},
	{"core.tasks_per_steal", "count"},
	{"core.steal_window_frac", "ratio"},
	{"core.steal_ok_p50_us", "us"},
	{"core.dirty_marks_elided_ratio", "ratio"},
	{"core.td_waves", "count"},
	{"core.td_black_votes", "count"},
	{"core.td_wave_frac", "ratio"},
	{"core.term_lag_us", "us"},
	{"ga.get_block_us", "us"},
	{"ga.acc_block_us", "us"},
	{"linalg.gemm_block_us", "us"},
	{"tce.round_p50_s", "s"},
	{"tce.macs_per_task", "count"},
	{"uts.seq_work_per_s", "1/s"},
	{"uts.parallel_efficiency", "ratio"},
	{"serve.submit_p50_ms", "ms"},
	{"serve.stream_p50_ms", "ms"},
	{"serve.turnaround_p50_ms", "ms"},
	{"serve.tasks_per_phase", "count"},
	{"serve.phases_per_s", "1/s"},
	{"serve.rejected_frac", "ratio"},
	{"serve.latency_p99_ms", "ms"},
	{"serve.gen_late_ms", "ms"},
	{"obs.overhead_frac", "ratio"},
	{"trace.dropped", "count"},
	{"trace.exec_frac", "ratio"},
	{"trace.stall_frac", "ratio"},
	{"trace.idle_frac", "ratio"},
}

// zeroLayers sets every per-layer metric not yet measured to 0: the
// layer is not on this workload's path.
func zeroLayers(res *result) {
	for _, m := range perLayer {
		if _, ok := res.metrics[m.name]; !ok {
			res.metrics[m.name] = 0
		}
	}
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(float64(len(xs))*q+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// latencies records p50/p90 of xs (milliseconds) and the sample count.
func latencies(res *result, xs []float64) {
	cp := append([]float64(nil), xs...)
	res.metrics["latency_p50_ms"] = quantile(cp, 0.5)
	res.metrics["latency_p90_ms"] = quantile(cp, 0.9)
	res.details["latency_samples"] = len(xs)
	res.details["latency_ms"] = xs
}

// peakRSSMB is the peak resident set of this process or of any rank
// process it spawned and reaped, in MB.
func peakRSSMB() float64 {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self) // cannot fail for RUSAGE_SELF
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	kb := self.Maxrss
	if kids.Maxrss > kb {
		kb = kids.Maxrss
	}
	return float64(kb) / 1024
}

// spans is the benchmark's own in-memory span log around the calls it
// makes into each layer; a traced run writes it to spans.json.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

type spanLog struct{ spans []span }

// add records a finished span.
func (l *spanLog) add(name, parent string, start, end time.Time) {
	l.spans = append(l.spans, span{name, parent, start.UnixNano(), end.UnixNano()})
}

// write saves the spans to dir/spans.json.
func (l *spanLog) write(dir string) error {
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans.json"), b, 0o644)
}
