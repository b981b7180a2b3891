package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"scioto/internal/bench"
	"scioto/internal/core"
	"scioto/internal/obs"
	"scioto/internal/obs/occ"
	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
	"scioto/internal/pgas/instr"
	"scioto/internal/pgas/shm"
	"scioto/internal/trace"
)

// observedRun runs body on every rank of w. With a trace directory it
// first turns on the program's observability the way scioto.Run does for
// Config.Obs with a TraceDir: the instr wrapper's per-op histograms, a
// per-rank occupancy buffer, a trace recorder, and the scheduler's
// metrics observer. Each rank then dumps its trace (trace-rankNNNN.json)
// and its registry in Prometheus text (metrics-rankNNNN.prom) into dir.
func observedRun(w pgas.World, dir string, body func(p pgas.Proc)) error {
	if dir == "" {
		return w.Run(body)
	}
	hub := obs.NewHub()
	return instr.Wrap(w, hub, instr.Options{}).Run(func(p pgas.Proc) {
		rank := p.Rank()
		reg := hub.Registry(rank)
		// Small worlds keep enough occupancy intervals to attribute a
		// long stretch of the run; 64-rank worlds keep the default.
		capacity := occ.DefaultCap
		if p.NProcs() <= 2 {
			capacity = 1 << 19
		}
		ob := occ.NewBuffer(rank, capacity, reg)
		occ.Attach(p, ob)
		rec := trace.NewRecorder(rank, 0)
		rec.SetDropCounter(reg.Counter("scioto_trace_dropped_total",
			"Trace events discarded after the per-rank ring filled."))
		rec.SetOccSource(ob)
		hub.SetTracer(rank, rec)
		core.RegisterProcObserver(p, reg, rec, ob)
		defer core.UnregisterProcObserver(p)
		defer func() {
			if _, err := rec.WriteFile(dir); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: rank %d trace dump: %v\n", rank, err)
			}
			if err := writeProm(dir, rank, reg); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: rank %d metrics dump: %v\n", rank, err)
			}
		}()
		body(p)
	})
}

func writeProm(dir string, rank int, reg *obs.Registry) error {
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("metrics-rank%04d.prom", rank)))
	if err != nil {
		return err
	}
	reg.WriteProm(f, "")
	return f.Close()
}

// promSet is the sum over ranks (and worlds) of Prometheus series values,
// keyed by the full series name with labels.
type promSet map[string]float64

// readProm adds every metrics-rank*.prom file in dir into s.
func (s promSet) readProm(dir string) error {
	files, err := filepath.Glob(filepath.Join(dir, "metrics-rank*.prom"))
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("no metrics dumps in %s", dir)
	}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				f.Close()
				return fmt.Errorf("%s: %q: %w", path, line, err)
			}
			s[line[:i]] += v
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return err
		}
	}
	return nil
}

// histP50 is the median of a log2-bucketed histogram series (base name
// plus label body, e.g. `scioto_pgas_op_latency_seconds`, `op="get",scope="remote"`),
// interpolated linearly inside its bucket, in seconds; 0 when empty.
func (s promSet) histP50(base, labels string) float64 {
	count := s[series(base+"_count", labels)]
	if count == 0 {
		return 0
	}
	prevBound, prevCum := 0.0, 0.0
	for i := 0; i < obs.HistBuckets; i++ {
		bound := obs.BucketBound(i)
		le := "+Inf"
		if !math.IsInf(bound, 1) {
			le = strconv.FormatFloat(bound, 'g', -1, 64)
		}
		lb := `le="` + le + `"`
		if labels != "" {
			lb = labels + "," + lb
		}
		cum := s[series(base+"_bucket", lb)]
		if cum >= count/2 {
			if math.IsInf(bound, 1) {
				return prevBound
			}
			if cum == prevCum {
				return bound
			}
			return prevBound + (bound-prevBound)*(count/2-prevCum)/(cum-prevCum)
		}
		prevBound, prevCum = bound, cum
	}
	return prevBound
}

func series(base, labels string) string {
	if labels == "" {
		return base
	}
	return base + "{" + labels + "}"
}

// opCount is the number of completed ops of a kind and scope.
func (s promSet) opCount(op, scope string) float64 {
	return s[series("scioto_pgas_op_latency_seconds_count", `op="`+op+`",scope="`+scope+`"`)]
}

// busyNs is a resource's occupancy summed over ranks.
func (s promSet) busyNs(res occ.Resource) float64 {
	return s[series("scioto_occ_busy_ns_total", `resource="`+res.String()+`"`)]
}

// layerInputs is what the traced part of a run measured, for the shared
// per-layer computation.
type layerInputs struct {
	prom       promSet
	ranks      int
	phaseNs    float64            // Σ phase time in ns (virtual on dsim)
	work       float64            // verified work units in the traced phases
	tasks      float64            // tasks executed in the traced phases
	stats      map[string]float64 // summed core.Stats; nil when not reachable
	dumpDir    string             // one traced world's dumps, for attribution
	untracedWP float64
	tracedWP   float64
}

// remoteOps lists the op kinds counted as remote traffic.
var remoteOps = []string{"get", "put", "accf64", "load64", "store64", "fetchadd64", "cas64",
	"nbget", "nbput", "nbload64", "nbstore64", "nbfetchadd64", "lock", "trylock", "unlock", "send", "recv"}

// layerMetrics derives the pgas, core, obs and trace layer metrics shared
// by every workload from a traced run.
func layerMetrics(res *result, in layerInputs) error {
	m := res.metrics
	s := in.prom
	p50us := func(op string) float64 {
		return s.histP50("scioto_pgas_op_latency_seconds", `op="`+op+`",scope="remote"`) * 1e6
	}
	m["pgas.get_remote_p50_us"] = p50us("get")
	m["pgas.accf64_remote_p50_us"] = p50us("accf64")
	m["pgas.barrier_p50_us"] = p50us("barrier")
	var ops float64
	for _, op := range remoteOps {
		ops += s.opCount(op, "remote")
	}
	bytes := s[`scioto_pgas_bytes_total{dir="in"}`] + s[`scioto_pgas_bytes_total{dir="out"}`]
	m["pgas.bytes_per_work"] = ratio(bytes, in.work)
	m["pgas.ops_per_work"] = ratio(ops, in.work)

	rankNs := float64(in.ranks) * in.phaseNs
	frac := func(r occ.Resource) float64 { return ratio(s.busyNs(r), rankNs) }
	m["pgas.ipc_ring_wait_frac"] = frac(occ.IPCRingWait)
	m["pgas.ipc_barrier_park_frac"] = frac(occ.IPCBarrierPark)
	m["pgas.dsim_nic_frac"] = frac(occ.DsimNIC)
	m["core.queue_lock_wait_frac"] = frac(occ.QueueLockWait)
	m["core.queue_lock_held_frac"] = frac(occ.QueueLockHeld)
	m["core.steal_window_frac"] = frac(occ.StealWindow)
	m["core.td_wave_frac"] = frac(occ.TDWave)
	m["core.sched_ns_per_task"] = ratio(rankNs-s.busyNs(occ.TaskExec), in.tasks)

	const steal = "scioto_steal_latency_seconds"
	okSteals := s[series(steal+"_count", `outcome="ok"`)]
	attempts := okSteals + s[series(steal+"_count", `outcome="empty"`)] + s[series(steal+"_count", `outcome="busy"`)]
	m["core.steal_attempts"] = attempts
	m["core.steal_success_ratio"] = ratio(okSteals, attempts)
	m["core.tasks_per_steal"] = ratio(s["scioto_tasks_stolen_total"], okSteals)
	m["core.steal_ok_p50_us"] = s.histP50(steal, `outcome="ok"`) * 1e6
	m["core.releases_per_ktask"] = ratio(1000*s["scioto_queue_releases_total"], in.tasks)
	m["core.reacquires_per_ktask"] = ratio(1000*s["scioto_queue_reacquires_total"], in.tasks)
	m["core.inline_execs"] = s["scioto_tasks_inline_total"]
	m["core.td_waves"] = s["scioto_td_waves_total"]
	if in.stats != nil {
		m["core.td_black_votes"] = in.stats["black_votes"]
		m["core.dirty_marks_elided_ratio"] = ratio(in.stats["dirty_elided"], in.stats["dirty_elided"]+in.stats["dirty_sent"])
	}
	m["trace.dropped"] = s["scioto_trace_dropped_total"]
	m["obs.overhead_frac"] = 1 - ratio(in.tracedWP, in.untracedWP)
	res.details["untraced_work_per_s"] = in.untracedWP
	res.details["traced_work_per_s"] = in.tracedWP
	return attribution(res, in.dumpDir)
}

// attribution runs internal/trace's critical-path attribution over one
// traced world's dumps. Occupancy buffers are bounded, so the window ends
// where the first rank's buffer filled: past that point a rank's
// intervals are missing and its time would read as idle.
func attribution(res *result, dir string) error {
	files, err := filepath.Glob(filepath.Join(dir, "trace-rank*.json"))
	if err != nil {
		return err
	}
	var dumps []*trace.Dump
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		d, err := trace.ReadDump(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		dumps = append(dumps, d)
	}
	if len(dumps) == 0 {
		return fmt.Errorf("no trace dumps in %s", dir)
	}
	t0, t1 := int64(math.MaxInt64), int64(math.MaxInt64)
	for _, d := range dumps {
		var last int64
		for _, iv := range d.Occ {
			t0 = min(t0, iv[1])
			last = max(last, iv[2])
		}
		if d.OccDropped > 0 {
			t1 = min(t1, last)
		}
	}
	if t1 == math.MaxInt64 {
		t0, t1 = 0, 0 // nothing dropped: the whole run
	}
	rep, err := trace.Attribute(dumps, t0, t1)
	if err != nil {
		return err
	}
	window := float64(rep.WindowEndNs - rep.WindowStartNs)
	m := res.metrics
	m["trace.exec_frac"] = ratio(float64(rep.ExecNs), window)
	m["trace.stall_frac"] = ratio(float64(rep.StallNs), window)
	m["trace.idle_frac"] = ratio(float64(rep.IdleNs), window)
	for _, b := range rep.Bottlenecks {
		if b.Resource == occ.TDWave.String() {
			m["core.term_lag_us"] = float64(b.Ns) / 1e3
		}
	}
	if _, ok := m["core.term_lag_us"]; !ok {
		m["core.term_lag_us"] = 0
	}
	res.details["attribution_window_ms"] = window / 1e6
	res.details["top_bottleneck"] = rep.TopBottleneck()
	return nil
}

// pruneTraces removes what the traced worlds wrote once it is read: every
// world's directory but the last, and the last one's per-rank trace dumps
// (one traced 64-rank world writes ~80 MB of them). The last world's
// Prometheus text stays for inspection.
func pruneTraces(dirs []string) error {
	for _, d := range dirs[:len(dirs)-1] {
		if err := os.RemoveAll(d); err != nil {
			return err
		}
	}
	files, err := filepath.Glob(filepath.Join(dirs[len(dirs)-1], "trace-rank*.json"))
	if err != nil {
		return err
	}
	for _, f := range files {
		if err := os.Remove(f); err != nil {
			return err
		}
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// table1 runs the paper's Table 1 microbenchmark (core.MeasureOps) on
// ipc, shm and the dsim cluster model and records the four operation
// costs per transport, plus whether local insert and local get are
// cheaper than a remote steal on every transport (the paper's ordering).
func table1(res *result, dir string, seed int64) error {
	r, _, err := runIPC(job{Kind: "ops", Seed: seed}, "ops-ipc", dir)
	if err != nil {
		return err
	}
	costs := map[string][]float64{"ipc": r.Layers}
	for name, w := range map[string]pgas.World{
		"shm":  shm.NewWorld(shm.Config{NProcs: 2, Seed: seed}),
		"dsim": dsim.NewWorld(bench.ClusterConfig(2, seed)),
	} {
		var t core.OpTimings
		if err := w.Run(func(p pgas.Proc) {
			got := core.MeasureOps(p, 1024, 10, 2000)
			if p.Rank() == 0 {
				t = got
			}
		}); err != nil {
			return fmt.Errorf("table 1 on %s: %w", name, err)
		}
		costs[name] = []float64{us(t.LocalInsert), us(t.LocalGet), us(t.RemoteInsert), us(t.RemoteSteal)}
	}
	order := 1.0
	names := make([]string, 0, len(costs))
	for name := range costs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := costs[name]
		for i, op := range []string{"local_insert", "local_get", "remote_insert", "remote_steal"} {
			res.metrics["core."+name+"_"+op+"_us"] = c[i]
		}
		if !(c[0] < c[3] && c[1] < c[3]) {
			order = 0
		}
	}
	res.metrics["core.table1_order_ok"] = order
	return nil
}

// timeEach times n calls of f and returns the mean in microseconds.
func timeEach(n int, f func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return us(time.Since(t0)) / float64(n)
}
