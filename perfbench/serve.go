package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"scioto/internal/core"
	"scioto/internal/pgas"
	"scioto/internal/pgas/shm"
	"scioto/internal/serve"
)

// The serve-shm workload drives the internal/serve daemon in-process over
// a 2-rank shm world, through its HTTP API:
//
//   - Part A, an open loop: one connection submits a single echo task
//     every 10 ms and streams its result back; latency is timed from the
//     request's due time.
//   - Part B, a closed loop: two connections each submit batches of 256
//     spin tasks of 2 µs and stream back every result.
const (
	serveRate      = 100 // Part A submissions per second
	serveBatchSize = 256
	serveSpin      = 2 * time.Microsecond
	servePartA     = 0.6 // share of the timed window given to Part A
	servePayload   = 16  // echo payload bytes
)

// daemon is one running serve daemon and its world.
type daemon struct {
	d      *serve.Daemon
	base   string
	done   chan error
	launch time.Time // rank 0 passed the world's first barrier
}

// startDaemon launches the daemon over a fresh 2-rank shm world (traced
// into dir when dir is non-empty) and waits until its endpoint listens.
func startDaemon(seed int64, dir string) (*daemon, error) {
	d := serve.New(serve.Config{Addr: "127.0.0.1:0", Logf: func(string, ...any) {}})
	s := &daemon{d: d, done: make(chan error, 1)}
	launched := make(chan time.Time, 1)
	go func() {
		w := shm.NewWorld(shm.Config{NProcs: 2, Seed: seed})
		s.done <- observedRun(w, dir, func(p pgas.Proc) {
			p.Barrier()
			if p.Rank() == 0 {
				launched <- time.Now()
			}
			d.Body(core.Attach(p))
		})
	}()
	addr, err := d.WaitReady(10 * time.Second)
	if err != nil {
		d.Drain()
		<-s.done
		return nil, err
	}
	s.launch = <-launched
	s.base = "http://" + addr
	return s, nil
}

// stop drains the daemon and waits for its world to finish.
func (s *daemon) stop() error {
	s.d.Drain()
	return <-s.done
}

// client is one HTTP connection to the daemon.
type client struct {
	tr   *http.Transport
	http *http.Client
}

func newClient() *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{tr: tr, http: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

type taskSpec struct {
	Kind    string `json:"kind"`
	Arg     uint64 `json:"arg,omitempty"`
	Payload []byte `json:"payload,omitempty"`
}

type streamLine struct {
	Result *struct {
		Task   int    `json:"task"`
		Kind   string `json:"kind"`
		Result []byte `json:"result"`
	} `json:"result"`
	Done json.RawMessage `json:"done"`
}

// roundTrip submits tasks, streams every result back and checks that each
// task's result arrives exactly once and matches want (nil: any result).
// It returns the POST round trip and the stream's open-to-done time.
func (c *client) roundTrip(base, tenant string, tasks []taskSpec, want [][]byte) (submit, stream time.Duration, err error) {
	body, err := json.Marshal(map[string]any{"tenant": tenant, "tasks": tasks})
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	resp, err := c.http.Post(base+"/v1/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	var sub struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	submit = time.Since(t0)
	if err != nil {
		return submit, 0, fmt.Errorf("submit reply: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return submit, 0, fmt.Errorf("submit status %d: %s", resp.StatusCode, sub.Error)
	}
	t1 := time.Now()
	resp, err = c.http.Get(base + "/v1/submissions/" + sub.ID + "/stream")
	if err != nil {
		return submit, 0, err
	}
	defer resp.Body.Close()
	seen := make([]bool, len(tasks))
	got := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return submit, 0, fmt.Errorf("stream line %q: %w", sc.Bytes(), err)
		}
		if line.Done != nil {
			stream = time.Since(t1)
			if got != len(tasks) {
				return submit, stream, fmt.Errorf("submission %s done with %d of %d results", sub.ID, got, len(tasks))
			}
			return submit, stream, nil
		}
		r := line.Result
		if r == nil || r.Task < 0 || r.Task >= len(tasks) || seen[r.Task] || r.Kind != tasks[r.Task].Kind {
			return submit, 0, fmt.Errorf("submission %s: unexpected or duplicate result %s", sub.ID, sc.Bytes())
		}
		if want != nil && !bytes.Equal(r.Result, want[r.Task]) {
			return submit, 0, fmt.Errorf("submission %s task %d: result %x, want %x", sub.ID, r.Task, r.Result, want[r.Task])
		}
		seen[r.Task] = true
		got++
	}
	return submit, 0, fmt.Errorf("stream for %s ended without a done line: %v", sub.ID, sc.Err())
}

// serveRun is what one measured daemon produced.
type serveRun struct {
	latMs, submitMs, streamMs, lateMs []float64
	tasksB                            int64
	wallB                             time.Duration
	tasksAll                          int64
	window                            time.Duration
}

// measureServe runs Part A then Part B against d for seconds in total.
func measureServe(res *result, d *daemon, rng *rand.Rand, seconds float64) *serveRun {
	out := &serveRun{}
	begin := time.Now()
	c := newClient()
	interval := time.Second / serveRate
	partA := time.Duration(seconds * servePartA * float64(time.Second))
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if due.Sub(start) >= partA {
			break
		}
		time.Sleep(time.Until(due))
		out.lateMs = append(out.lateMs, ms(time.Since(due)))
		payload := make([]byte, servePayload)
		rng.Read(payload)
		sub, str, err := c.roundTrip(d.base, "probe", []taskSpec{{Kind: serve.KindEcho, Payload: payload}}, [][]byte{payload})
		res.check(err == nil, "serve part A: %v", err)
		if err == nil {
			out.latMs = append(out.latMs, ms(time.Since(due)))
			out.submitMs = append(out.submitMs, ms(sub))
			out.streamMs = append(out.streamMs, ms(str))
			out.tasksAll++
		}
	}
	c.close()

	partB := time.Duration(seconds * (1 - servePartA) * float64(time.Second))
	tasks := make([]taskSpec, serveBatchSize)
	for i := range tasks {
		tasks[i] = taskSpec{Kind: serve.KindSpin, Arg: uint64(serveSpin)}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	startB := time.Now()
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := newClient()
			defer c.close()
			for time.Since(startB) < partB {
				_, _, err := c.roundTrip(d.base, fmt.Sprintf("client-%d", k), tasks, nil)
				mu.Lock()
				res.check(err == nil, "serve part B: %v", err)
				if err == nil {
					out.tasksB += serveBatchSize
				}
				mu.Unlock()
			}
		}(k)
	}
	wg.Wait()
	out.wallB = time.Since(startB)
	out.tasksAll += out.tasksB
	out.window = time.Since(begin)
	return out
}

func runServeSHM(o opts) (*result, error) {
	res := newResult()
	spans := &spanLog{}
	rng := rand.New(rand.NewSource(o.seed))

	// Setup: daemon start, endpoint ready, and one warm-up round trip.
	var setups, launches []float64
	warm := newClient()
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		d, err := startDaemon(o.seed+int64(i), "")
		if err != nil {
			return nil, err
		}
		payload := []byte(fmt.Sprintf("warm-%d", i))
		_, _, err = warm.roundTrip(d.base, "warm", []taskSpec{{Kind: serve.KindEcho, Payload: payload}}, [][]byte{payload})
		res.check(err == nil, "serve warm-up: %v", err)
		ready := time.Now()
		warm.close()
		if err := d.stop(); err != nil {
			return nil, fmt.Errorf("serve daemon: %w", err)
		}
		setups = append(setups, ready.Sub(start).Seconds())
		launches = append(launches, ms(d.launch.Sub(start)))
		spans.add("setup", "", start, ready)
	}
	res.metrics["setup_s"] = median(setups)
	res.metrics["pgas.launch_ms"] = median(launches)
	res.details["setup_samples"] = len(setups)

	measure := func(seconds float64, dir string) (*serveRun, error) {
		d, err := startDaemon(o.seed+100, dir)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		run := measureServe(res, d, rng, seconds)
		spans.add("serve.measure", "", t0, time.Now())
		if err := d.stop(); err != nil {
			return nil, fmt.Errorf("serve daemon: %w", err)
		}
		return run, nil
	}
	seconds := o.seconds
	if o.trace {
		seconds /= 2
	}
	plain, err := measure(seconds, "")
	if err != nil {
		return nil, err
	}
	wp := float64(plain.tasksB) / plain.wallB.Seconds()
	res.metrics["work_per_s"] = wp
	latencies(res, plain.latMs)
	res.details["part_b_tasks"] = plain.tasksB
	if !o.trace {
		return res, nil
	}

	dir := o.workDir + "/trace-serve"
	traced, err := measure(seconds, dir)
	if err != nil {
		return nil, err
	}
	prom := promSet{}
	if err := prom.readProm(dir); err != nil {
		return nil, err
	}
	m := res.metrics
	m["serve.submit_p50_ms"] = median(traced.submitMs)
	m["serve.stream_p50_ms"] = median(traced.streamMs)
	m["serve.turnaround_p50_ms"] = prom.histP50("scioto_serve_turnaround_seconds", "") * 1e3
	phases := prom["scioto_serve_phases_total"]
	m["serve.tasks_per_phase"] = ratio(prom["scioto_serve_results_total"], phases)
	m["serve.phases_per_s"] = phases / traced.window.Seconds()
	rejected := prom["scioto_serve_rejections_total"]
	m["serve.rejected_frac"] = ratio(rejected, rejected+prom["scioto_serve_submissions_total"])
	m["serve.latency_p99_ms"] = quantile(append([]float64(nil), plain.latMs...), 0.99)
	res.details["latency_p99_samples"] = len(plain.latMs)
	var late float64
	for _, l := range plain.lateMs {
		late += l
	}
	m["serve.gen_late_ms"] = late / float64(len(plain.lateMs))
	tracedWP := float64(traced.tasksB) / traced.wallB.Seconds()
	in := layerInputs{
		prom: prom, ranks: 2, phaseNs: float64(traced.window),
		work: float64(traced.tasksAll), tasks: prom["scioto_tasks_executed_total"],
		dumpDir: dir, untracedWP: wp, tracedWP: tracedWP,
	}
	if err := layerMetrics(res, in); err != nil {
		return nil, err
	}
	if err := pruneTraces([]string{dir}); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := table1(res, o.workDir, o.seed); err != nil {
		return nil, err
	}
	spans.add("core.MeasureOps", "", t0, time.Now())
	zeroLayers(res)
	return res, spans.write(o.workDir)
}
