package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"scioto/internal/bench"
	"scioto/internal/core"
	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
	"scioto/internal/uts"
)

// utsTree is the benchmark's UTS tree: geometric, mean branching 2, root
// seed 20 (the experiment harness's trees), cut off at depth. Depth 18
// (uts.TreeLarge) has 3,006,075 nodes and depth 17 has 1,501,237.
func utsTree(depth int) uts.Params {
	return uts.Params{Kind: uts.Geometric, RootSeed: 20, B0: 2, MaxDepth: depth}
}

func utsDepth(workload, scale string) int {
	switch {
	case scale == "tiny":
		return 11
	case workload == "uts-dsim64":
		return 17
	default:
		return 18
	}
}

// utsTC is the task collection configuration of both UTS workloads.
var utsTC = core.Config{ChunkSize: 10}

// reference enumerates the tree with uts.Sequential, the plain
// single-threaded baseline every parallel traversal is checked against.
func reference(tree uts.Params, res *result) (uts.Stats, time.Duration, error) {
	t0 := time.Now()
	ref, err := uts.Sequential(tree, 0)
	wall := time.Since(t0)
	res.details["tree_nodes"] = ref.Nodes
	return ref, wall, err
}

// checkTree verifies one traversal's counts against the reference.
func checkTree(res *result, ph phase, ref uts.Stats) {
	res.check(ph.Nodes == ref.Nodes && ph.Leaves == ref.Leaves && ph.Depth == ref.MaxDepth,
		"uts: traversal counted %d nodes, %d leaves, depth %d; uts.Sequential counts %d, %d, %d",
		ph.Nodes, ph.Leaves, ph.Depth, ref.Nodes, ref.Leaves, ref.MaxDepth)
}

func setupUTSBody(p pgas.Proc, j job) *worldResult {
	r := &worldResult{}
	return guard(p, r, func() {
		p.Barrier()
		r.LaunchNs = time.Now().UnixNano()
		tc := utsTC
		tc.MaxBodySize = uts.NodeBytes
		core.NewTC(core.Attach(p), tc)
		p.Barrier()
		r.ReadyNs = time.Now().UnixNano()
	})
}

// utsPhase traverses the tree once and returns the phase with the global
// task statistics.
func utsPhase(p pgas.Proc, tree uts.Params, perNode time.Duration) (phase, core.Stats) {
	p.Barrier()
	start, v0 := time.Now(), p.Now()
	st, ts, err := uts.RunScioto(p, uts.DriverConfig{Tree: tree, PerNodeCost: perNode, TC: utsTC})
	if err != nil {
		panic(err)
	}
	p.Barrier()
	return phase{
		StartNs: start.UnixNano(), EndNs: time.Now().UnixNano(),
		Work: st.Nodes, Tasks: ts.TasksExecuted,
		Nodes: st.Nodes, Leaves: st.Leaves, Depth: st.MaxDepth,
		Virtual: int64(p.Now() - v0),
	}, ts
}

func utsIPCBody(p pgas.Proc, j job) *worldResult {
	r := &worldResult{}
	return guard(p, r, func() {
		p.Barrier()
		r.LaunchNs = time.Now().UnixNano()
		r.ReadyNs = r.LaunchNs
		ph, ts := utsPhase(p, utsTree(utsDepth("uts-ipc", j.Scale)), 0)
		r.Phases = []phase{ph}
		r.Stats = statVector(ts)
	})
}

// tally accumulates the timed phases of one half of a run.
type tally struct {
	phases  []phase
	stats   []int64
	dirs    []string
	wall    time.Duration
	virtual time.Duration
	work    int64
	tasks   int64
}

func (t *tally) add(ph phase, stats []int64, dir string) {
	t.phases = append(t.phases, ph)
	t.wall += ph.wall()
	t.virtual += time.Duration(ph.Virtual)
	t.work += ph.Work
	t.tasks += ph.Tasks
	if stats != nil {
		t.stats = addVec(t.stats, stats)
	}
	if dir != "" {
		t.dirs = append(t.dirs, dir)
	}
}

// workPerS is the median over phases of verified work per phase wall
// second: one slow phase on a shared host moves it less than a total would.
func (t *tally) workPerS() float64 {
	rates := make([]float64, len(t.phases))
	for i, ph := range t.phases {
		rates[i] = float64(ph.Work) / ph.wall().Seconds()
	}
	return median(rates)
}

func (t *tally) latenciesMs() []float64 {
	out := make([]float64, len(t.phases))
	for i, ph := range t.phases {
		out[i] = ms(ph.wall())
	}
	return out
}

func (t *tally) statMap() map[string]float64 {
	m := map[string]float64{}
	for i, name := range statNames {
		m[name] = float64(t.stats[i])
	}
	return m
}

// prom sums the traced worlds' metrics dumps.
func (t *tally) prom() (promSet, error) {
	s := promSet{}
	for _, d := range t.dirs {
		if err := s.readProm(d); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// ipcSetups runs the setup-only worlds of an ipc workload and records
// setup_s and pgas.launch_ms, both from the launcher's clock start.
func ipcSetups(o opts, kind string, res *result, spans *spanLog) error {
	var setups, launches []float64
	for i := 0; i < setupReps; i++ {
		r, start, err := runIPC(job{Kind: kind, Seed: o.seed + int64(i), Scale: o.scale}, fmt.Sprintf("setup-%d", i), o.workDir)
		if err != nil {
			return err
		}
		setups = append(setups, float64(r.ReadyNs-start.UnixNano())/1e9)
		launches = append(launches, float64(r.LaunchNs-start.UnixNano())/1e6)
		spans.add("setup", "", start, time.Unix(0, r.ReadyNs))
		spans.add("pgas.launch", "setup", start, time.Unix(0, r.LaunchNs))
	}
	res.metrics["setup_s"] = median(setups)
	res.metrics["pgas.launch_ms"] = median(launches)
	res.details["setup_samples"] = len(setups)
	return nil
}

// timedHalves runs phase worlds for the timed window: all of it untraced,
// or, in a traced run, the first half untraced and the second traced.
// runWorld runs world i (traced into dir when dir is non-empty).
func timedHalves(o opts, runWorld func(i int, dir string, t *tally) error) (untraced, traced *tally, err error) {
	half := func(seconds float64, trace bool, first int) (*tally, error) {
		t := &tally{}
		for i := first; t.wall.Seconds() < seconds; i++ {
			dir := ""
			if trace {
				dir = filepath.Join(o.workDir, fmt.Sprintf("trace-%d", i))
			}
			if err := runWorld(i, dir, t); err != nil {
				return nil, err
			}
		}
		return t, nil
	}
	if !o.trace {
		untraced, err = half(o.seconds, false, 0)
		return untraced, nil, err
	}
	if untraced, err = half(o.seconds/2, false, 0); err != nil {
		return nil, nil, err
	}
	traced, err = half(o.seconds/2, true, 1000)
	return untraced, traced, err
}

func runUTSIPC(o opts) (*result, error) {
	res := newResult()
	spans := &spanLog{}
	tree := utsTree(utsDepth(o.workload, o.scale))
	res.details["tree"] = tree
	if err := ipcSetups(o, "setup-uts", res, spans); err != nil {
		return nil, err
	}
	ref, seqWall, err := reference(tree, res)
	if err != nil {
		return nil, err
	}
	untraced, traced, err := timedHalves(o, func(i int, dir string, t *tally) error {
		r, _, err := runIPC(job{Kind: "uts", Seed: o.seed + 100 + int64(i), Scale: o.scale, Trace: dir},
			fmt.Sprintf("uts-%d", i), o.workDir)
		if err != nil {
			return err
		}
		ph := r.Phases[0]
		checkTree(res, ph, ref)
		spans.add("uts.RunScioto", "", time.Unix(0, ph.StartNs), time.Unix(0, ph.EndNs))
		t.add(ph, r.Stats, dir)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.metrics["work_per_s"] = untraced.workPerS()
	latencies(res, untraced.latenciesMs())
	if !o.trace {
		return res, nil
	}
	seq := float64(ref.Nodes) / seqWall.Seconds()
	res.metrics["uts.seq_work_per_s"] = seq
	res.metrics["uts.parallel_efficiency"] = untraced.workPerS() / (2 * seq)
	return res, tracedLayers(o, res, spans, untraced, traced, 2, traced.wall)
}

// tracedLayers computes the shared layer metrics of a traced run, runs
// the Table 1 ladder, zero-fills the layers the workload does not reach
// and writes the benchmark's spans.
func tracedLayers(o opts, res *result, spans *spanLog, untraced, traced *tally, ranks int, phaseTime time.Duration) error {
	prom, err := traced.prom()
	if err != nil {
		return err
	}
	in := layerInputs{
		prom: prom, ranks: ranks, phaseNs: float64(phaseTime),
		work: float64(traced.work), tasks: float64(traced.tasks),
		dumpDir:    traced.dirs[len(traced.dirs)-1],
		untracedWP: untraced.workPerS(), tracedWP: traced.workPerS(),
	}
	if traced.stats != nil {
		in.stats = traced.statMap()
	}
	if err := layerMetrics(res, in); err != nil {
		return err
	}
	if err := pruneTraces(traced.dirs); err != nil {
		return err
	}
	t0 := time.Now()
	if err := table1(res, o.workDir, o.seed); err != nil {
		return err
	}
	spans.add("core.MeasureOps", "", t0, time.Now())
	zeroLayers(res)
	return spans.write(o.workDir)
}

// utsDsimWorld is the 64-rank heterogeneous cluster model.
func utsDsimWorld(seed int64) pgas.World { return dsim.NewWorld(bench.ClusterConfig(64, seed)) }

func runUTSDsim(o opts) (*result, error) {
	// The engine resumes one rank at a time over unbuffered channels, so
	// the simulation is sequential; on one P each handoff stays on the
	// same thread. On two Ps the handoffs cross threads and a traversal
	// ran about 20% slower with twice the phase-to-phase spread.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res := newResult()
	spans := &spanLog{}
	tree := utsTree(utsDepth(o.workload, o.scale))
	res.details["tree"] = tree

	var setups, launches []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		var launch, ready time.Time
		r := &worldResult{}
		err := utsDsimWorld(o.seed).Run(func(p pgas.Proc) {
			guard(p, r, func() {
				p.Barrier()
				launch = time.Now()
				tc := utsTC
				tc.MaxBodySize = uts.NodeBytes
				core.NewTC(core.Attach(p), tc)
				p.Barrier()
				ready = time.Now()
			})
		})
		if err == nil && r.Err != "" {
			err = fmt.Errorf("%s", r.Err)
		}
		if err != nil {
			return nil, fmt.Errorf("dsim setup: %w", err)
		}
		setups = append(setups, ready.Sub(start).Seconds())
		launches = append(launches, ms(launch.Sub(start)))
		spans.add("setup", "", start, ready)
	}
	res.metrics["setup_s"] = median(setups)
	res.metrics["pgas.launch_ms"] = median(launches)
	res.details["setup_samples"] = len(setups)

	ref, seqWall, err := reference(tree, res)
	if err != nil {
		return nil, err
	}
	var model int64 // virtual ns of the first traversal: every repeat must match
	untraced, traced, err := timedHalves(o, func(i int, dir string, t *tally) error {
		var ph phase
		var ts core.Stats
		r := &worldResult{}
		err := observedRun(utsDsimWorld(o.seed), dir, func(p pgas.Proc) {
			guard(p, r, func() {
				got, st := utsPhase(p, tree, bench.OpteronNodeCost)
				if p.Rank() == 0 {
					ph, ts = got, st
				}
			})
		})
		if err == nil && r.Err != "" {
			err = fmt.Errorf("%s", r.Err)
		}
		if err != nil {
			return fmt.Errorf("dsim traversal: %w", err)
		}
		checkTree(res, ph, ref)
		if dir == "" {
			if model == 0 {
				model = ph.Virtual
			}
			res.check(ph.Virtual == model, "dsim: traversal took %d virtual ns, an earlier repeat took %d", ph.Virtual, model)
		}
		spans.add("uts.RunScioto", "", time.Unix(0, ph.StartNs), time.Unix(0, ph.EndNs))
		t.add(ph, statVector(ts), dir)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The end-to-end metrics are those of the modeled 64-process machine,
	// in its virtual time: a traversal's virtual time is exact, while the
	// sequential simulator's wall speed moved by up to 1.8x within one run
	// on a shared 2-CPU host. The simulator's wall speed is per-layer.
	modelWP := float64(ref.Nodes) / time.Duration(model).Seconds()
	res.metrics["work_per_s"] = modelWP
	res.details["model_work_per_s"] = modelWP
	virtualMs := make([]float64, len(untraced.phases))
	for i, ph := range untraced.phases {
		virtualMs[i] = ms(time.Duration(ph.Virtual))
	}
	latencies(res, virtualMs)
	res.details["wall_latency_ms"] = untraced.latenciesMs()
	if !o.trace {
		return res, nil
	}
	res.metrics["dsim.wall_work_per_s"] = untraced.workPerS()
	res.metrics["dsim.wall_per_virtual"] = ratio(float64(untraced.wall), float64(untraced.virtual))
	res.metrics["uts.seq_work_per_s"] = float64(ref.Nodes) / seqWall.Seconds()
	return res, tracedLayers(o, res, spans, untraced, traced, 64, traced.virtual)
}
