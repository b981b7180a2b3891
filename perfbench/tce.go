package main

import (
	"fmt"
	"time"

	"scioto/internal/core"
	"scioto/internal/linalg"
	"scioto/internal/pgas"
	"scioto/internal/tce"
)

// tceParams is the block-sparse contraction of the tce-ipc workload. Its
// sparsity pattern is fixed (pattern seed 1: 14,981 block MACs per round):
// across pattern seeds a round's MAC count ranges over ±7%, and with it the
// round latency, so the workload seed drives only the ranks' random
// sources.
func tceParams(scale string) tce.Params {
	if scale == "tiny" {
		return tce.Params{NB: 8, BS: 4, Density: 0.3, Band: 2, Seed: 1}
	}
	return tce.Params{NB: 48, BS: 16, Density: 0.3, Band: 2, Seed: 1}
}

// tceExpected is one round's block MAC count and task count, from the
// replicated pattern alone.
func tceExpected(prm tce.Params) (macs, tasks int64) {
	pat := tce.NewPattern(prm)
	for bi := 0; bi < prm.NB; bi++ {
		for bj := 0; bj < prm.NB; bj++ {
			macs += int64(pat.Contributions(bi, bj))
		}
	}
	return macs, int64(prm.NB * prm.NB)
}

// tceSetup builds the contraction's input arrays and its task collection.
func tceSetup(p pgas.Proc, j job, blocks, macs *int64) (*tce.Contraction, *core.TC, core.Handle) {
	c := tce.New(p, tceParams(j.Scale))
	tc, h := c.NewSciotoTC(core.Attach(p), core.Config{ChunkSize: 10}, 0, blocks, macs)
	return c, tc, h
}

func setupTCEBody(p pgas.Proc, j job) *worldResult {
	r := &worldResult{}
	return guard(p, r, func() {
		p.Barrier()
		r.LaunchNs = time.Now().UnixNano()
		var blocks, macs int64
		tceSetup(p, j, &blocks, &macs)
		p.Barrier()
		r.ReadyNs = time.Now().UnixNano()
	})
}

// tceBody runs ResetC + RunScioto rounds on one reused task collection
// until rank 0 has timed j.Seconds of rounds, then checks the last
// round against the dense reference. A traced world also times the GA
// and GEMM kernels the tasks are made of.
func tceBody(p pgas.Proc, j job) *worldResult {
	r := &worldResult{}
	return guard(p, r, func() {
		p.Barrier()
		r.LaunchNs = time.Now().UnixNano()
		var blocks, macs int64
		c, tc, h := tceSetup(p, j, &blocks, &macs)
		ctl := p.AllocWords(3) // on rank 0: round MACs, round blocks, continue flag
		var stats core.Stats
		p.Barrier()
		r.ReadyNs = time.Now().UnixNano()
		var timed time.Duration
		for {
			c.ResetC()
			b0, m0 := blocks, macs
			start := time.Now()
			round := c.RunScioto(tc, h, 0)
			end := time.Now()
			addStats(&stats, round.TaskStats)
			p.FetchAdd64(0, ctl, 0, macs-m0)
			p.FetchAdd64(0, ctl, 1, blocks-b0)
			p.Barrier()
			if p.Rank() == 0 {
				r.Phases = append(r.Phases, phase{
					StartNs: start.UnixNano(), EndNs: end.UnixNano(),
					Work: p.Load64(0, ctl, 0), Tasks: p.Load64(0, ctl, 1),
				})
				p.Store64(0, ctl, 0, 0)
				p.Store64(0, ctl, 1, 0)
				timed += end.Sub(start)
				if timed.Seconds() >= j.Seconds {
					p.Store64(0, ctl, 2, 1)
				}
			}
			p.Barrier()
			if p.Load64(0, ctl, 2) != 0 {
				break
			}
		}
		if p.Rank() == 0 {
			if err := c.VerifyDense(); err != nil {
				r.Verify = err.Error()
			}
			if j.Trace != "" {
				r.Layers = tceKernels(p, c)
			}
		}
		p.Barrier()
		r.Stats = sumToRoot(p, statVector(stats))
	})
}

// tceKernels times ga.GetBlock and ga.AccBlock on a block rank 1 owns,
// and linalg.GemmBlock at the workload's block size, in microseconds.
func tceKernels(p pgas.Proc, c *tce.Contraction) []float64 {
	prm := c.Params()
	bi, bj := 0, 0
	for b := 0; b < prm.NB*prm.NB; b++ {
		if c.A.Owner(b/prm.NB, b%prm.NB) != p.Rank() {
			bi, bj = b/prm.NB, b%prm.NB
			break
		}
	}
	n := prm.BS * prm.BS
	a, b, out := make([]float64, n), make([]float64, n), make([]float64, n)
	const iters = 2000
	get := timeEach(iters, func() { c.A.GetBlock(bi, bj, a) })
	c.B.GetBlock(bi, bj, b)
	acc := timeEach(iters, func() { c.C.AccBlock(bi, bj, out) })
	gemm := timeEach(iters, func() { linalg.GemmBlock(out, a, b, prm.BS, prm.BS, prm.BS) })
	return []float64{get, acc, gemm}
}

func addStats(dst *core.Stats, s core.Stats) {
	dst.TasksExecuted += s.TasksExecuted
	dst.InlineExecs += s.InlineExecs
	dst.Releases += s.Releases
	dst.Reacquires += s.Reacquires
	dst.StealAttempts += s.StealAttempts
	dst.StealsOK += s.StealsOK
	dst.TasksStolen += s.TasksStolen
	dst.DirtyMarksSent += s.DirtyMarksSent
	dst.DirtyMarksElided += s.DirtyMarksElided
	dst.WavesSeen += s.WavesSeen
	dst.BlackVotes += s.BlackVotes
}

// tceWorlds is how many worlds an untraced run spreads its rounds over. A
// world's rounds share one placement of the two rank processes and their
// mapping, and whole worlds ran at different speeds (median rounds of
// 41–62 ms within one run), so a run takes its rounds from several worlds.
const tceWorlds = 8

func runTCEIPC(o opts) (*result, error) {
	res := newResult()
	spans := &spanLog{}
	prm := tceParams(o.scale)
	wantMACs, wantTasks := tceExpected(prm)
	res.details["tce"] = prm
	res.details["round_macs"] = wantMACs
	if err := ipcSetups(o, "setup-tce", res, spans); err != nil {
		return nil, err
	}
	var kernels, worldP50 []float64
	untraced, traced, err := timedHalves(o, func(i int, dir string, t *tally) error {
		r, _, err := runIPC(job{Kind: "tce", Seed: o.seed + 100 + int64(i), Scale: o.scale, Seconds: o.seconds / tceWorlds, Trace: dir},
			fmt.Sprintf("tce-%d", i), o.workDir)
		if err != nil {
			return err
		}
		for _, ph := range r.Phases {
			res.check(ph.Work == wantMACs && ph.Tasks == wantTasks,
				"tce: round ran %d tasks and %d block MACs; the pattern has %d and %d", ph.Tasks, ph.Work, wantTasks, wantMACs)
			spans.add("tce.RunScioto", "", time.Unix(0, ph.StartNs), time.Unix(0, ph.EndNs))
			t.add(ph, nil, "")
		}
		res.check(r.Verify == "", "tce: %s", r.Verify)
		rounds := make([]float64, len(r.Phases))
		for i, ph := range r.Phases {
			rounds[i] = ms(ph.wall())
		}
		worldP50 = append(worldP50, median(rounds))
		t.stats = addVec(t.stats, r.Stats)
		if dir != "" {
			t.dirs = append(t.dirs, dir)
			kernels = r.Layers
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.metrics["work_per_s"] = untraced.workPerS()
	lat := untraced.latenciesMs()
	latencies(res, lat)
	res.details["world_round_p50_ms"] = worldP50
	if !o.trace {
		return res, nil
	}
	res.metrics["tce.round_p50_s"] = median(lat) / 1e3
	res.metrics["tce.macs_per_task"] = ratio(float64(wantMACs), float64(wantTasks))
	res.metrics["ga.get_block_us"] = kernels[0]
	res.metrics["ga.acc_block_us"] = kernels[1]
	res.metrics["linalg.gemm_block_us"] = kernels[2]
	return res, tracedLayers(o, res, spans, untraced, traced, 2, traced.wall)
}

// addVec adds b into a elementwise, allocating a when nil.
func addVec(a, b []int64) []int64 {
	if a == nil {
		a = make([]int64, len(b))
	}
	for i, v := range b {
		a[i] += v
	}
	return a
}
