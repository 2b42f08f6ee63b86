package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/schedcache"
	"resched/internal/schedule"
	"resched/internal/serve"
	"resched/internal/solve"
	"resched/internal/taskgraph"
)

// The serve-par traffic mix: 70% fresh graphs, 20% exact repeats, 10%
// warm starts. With half the ops cache hits, the median sat on the hit/miss
// latency cliff and jumped between runs; at 30% it stays among the misses.
// The warm starts re-solve a base under another seed: the cache warm-starts
// PA-R only from the same instance (a near-miss graph gets a floorplan hint,
// which only PA and robust take), so perturbed graphs would all be misses.
const (
	serveTasks      = 24
	serveBases      = 32
	serveRepeatFrac = 0.2
	serveWarmFrac   = 0.1
	serveIterations = 8
	// serveQualityOps: the quality metrics cover the bases and the fresh
	// graphs among the first serveQualityOps ops, which every run sends
	// whatever its speed, so they repeat exactly for a seed.
	serveQualityOps = 256
	// serveCacheEntries keeps the bases resident: with about 0.8 new
	// entries per op, a base requested once per 160 ops on average is
	// evicted before its next request about one time in 55 (e^-4); at the
	// default 256 it was one time in seven. It stays small enough to fill
	// within the first fifth of a slow run, so rss_mb, the run's median,
	// reads a full cache whatever the throughput.
	serveCacheEntries = 512
)

// servePar is the instance of serve-par: a serve.Server behind a loopback
// listener, driven by a closed loop of nproc clients.
type servePar struct {
	seed    int64
	arch    *arch.Architecture
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	url     string
	client  *http.Client
	clients int
	bases   []*taskgraph.Graph
	// serveWorkers is the server's resolved pool size, from /healthz.
	serveWorkers int
	// maxOps bounds each load phase in smoke mode; 0 means no bound.
	maxOps int64
	// baseQuality is each base's (makespan, region fraction) from priming;
	// qualityOps are the indices of the fresh ops whose quality counts.
	baseQuality [][2]float64
	qualityOps  map[int64]bool
}

func setupServePar(cfg runConfig) (instance, error) {
	a, err := arch.Preset("zedboard")
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	clients := runtime.GOMAXPROCS(0)
	o := &servePar{
		seed:    cfg.Seed,
		arch:    a,
		srv:     serve.New(serve.Config{CacheEntries: serveCacheEntries}),
		served:  make(chan error, 1),
		url:     "http://" + ln.Addr().String() + "/solve",
		clients: clients,
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: clients},
			Timeout:   time.Minute,
		},
	}
	o.hs = &http.Server{Handler: o.srv.Handler()}
	//reschedvet:ignore goleak joined by close, which receives from served
	go func() { o.served <- o.hs.Serve(ln) }()
	quality := int64(serveQualityOps)
	if cfg.Smoke {
		o.maxOps, quality = 20, 16
	}

	bases := serveBases
	if cfg.Smoke {
		bases = 4
	}
	for b := 0; b < bases; b++ {
		g, err := benchgen.Generate(benchgen.Config{Tasks: serveTasks, Seed: cfg.Seed*100_000 + 50_000 + int64(b)})
		if err != nil {
			return nil, errors.Join(err, o.close())
		}
		o.bases = append(o.bases, g)
	}
	if o.serveWorkers, err = o.healthWorkers(ln.Addr().String()); err != nil {
		return nil, errors.Join(err, o.close())
	}
	// Prime the cache with every base (this is also the warm-up): repeats
	// in the measured run are then exact hits.
	for _, g := range o.bases {
		r := o.post(g)
		s, _, err := o.decode(&r)
		if err == nil {
			err = checkSchedule(s, nil, func(_ string, f func()) { f() })
		}
		if err != nil {
			return nil, errors.Join(fmt.Errorf("priming: %w", err), o.close())
		}
		o.baseQuality = append(o.baseQuality, [2]float64{float64(s.Makespan), regionFrac(s)})
	}
	o.qualityOps = map[int64]bool{}
	for i := int64(0); i < quality; i++ {
		if _, fresh := o.pick(i); fresh {
			o.qualityOps[i] = true
		}
	}
	return o, nil
}

func (o *servePar) healthWorkers(addr string) (int, error) {
	resp, err := o.client.Get("http://" + addr + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var h serve.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, fmt.Errorf("healthz: %w", err)
	}
	return h.Workers, nil
}

// splitmix is SplitMix64 over (seed, i): the per-op random stream.
func splitmix(seed int64, i int64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// graph is the request graph and seed of op i: a fresh seeded graph, a
// primed base (an exact cache hit), or a primed base under a seed of its own
// (a warm start: the cache holds the instance under other options, and PA-R
// starts from its schedule as the incumbent).
func (o *servePar) graph(i int64) (*taskgraph.Graph, int64, error) {
	base, fresh := o.pick(i)
	h := splitmix(o.seed, i)
	switch {
	case fresh:
		g, err := benchgen.Generate(benchgen.Config{Tasks: serveTasks, Seed: int64(h >> 1)})
		return g, o.seed, err
	case float64(h>>11)/(1<<53) < serveRepeatFrac:
		return base, o.seed, nil
	default:
		return base, o.seed + 1 + i, nil
	}
}

// pick draws op i's kind: a fresh graph, or which base it repeats or
// re-solves under another seed.
func (o *servePar) pick(i int64) (base *taskgraph.Graph, fresh bool) {
	h := splitmix(o.seed, i)
	u := float64(h>>11) / (1 << 53)
	return o.bases[(h>>3)%uint64(len(o.bases))], u >= serveRepeatFrac+serveWarmFrac
}

func (o *servePar) request(g *taskgraph.Graph, seed int64) ([]byte, error) {
	gj, err := json.Marshal(g)
	if err != nil {
		return nil, err
	}
	return json.Marshal(serve.SolveRequest{
		Solver:          "par",
		Arch:            "zedboard",
		Graph:           gj,
		Seed:            seed,
		SearchWorkers:   1,
		MaxIterations:   serveIterations,
		IncludeSchedule: true,
	})
}

// serveOp is one round trip.
type serveOp struct {
	i      int64
	g      *taskgraph.Graph
	req    []byte
	ms     float64
	status int
	body   []byte
	err    error
	// span is the id of the op's "serve" span in the traced half, else -1.
	span, op int
}

func (o *servePar) post(g *taskgraph.Graph) serveOp {
	req, err := o.request(g, o.seed)
	if err != nil {
		return serveOp{err: err}
	}
	r := serveOp{g: g, req: req, span: -1, op: -1}
	o.roundTrip(&r, nil)
	return r
}

// roundTrip is the timed op: POST and read the whole response.
func (o *servePar) roundTrip(r *serveOp, tr *tracer) {
	begin := time.Now()
	var root int
	if tr != nil {
		r.op = tr.newOp()
		root = tr.start(opSpan, r.op, -1)
		r.span = tr.start("serve", r.op, root)
	}
	resp, err := o.client.Post(o.url, "application/json", bytes.NewReader(r.req))
	if err == nil {
		r.status = resp.StatusCode
		r.body, err = io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
	}
	r.err = err
	if tr != nil {
		tr.end(r.span)
		tr.end(root)
	}
	r.ms = since(begin)
}

func (o *servePar) measure(rec *recorder) {
	for b, q := range o.baseQuality {
		rec.setQuality(-1-b, int64(q[0]), q[1])
	}
	var next atomic.Int64
	if rec.tr == nil {
		o.phase(rec, &next, rec.deadline, false)
		return
	}
	// The first half runs untraced, the second traced. The halves hold
	// different requests, so the overhead compares their means.
	mid := time.Now().Add(time.Until(rec.deadline) / 2)
	untraced := o.phase(rec, &next, mid, false)
	traced := o.phase(rec, &next, rec.deadline, true)
	if len(untraced) > 0 && len(traced) > 0 {
		rec.pairs = 1
		rec.pairedUntraced = mean(untraced)
		rec.pairedTraced = mean(traced)
	}
}

// phase runs the closed loop in rounds of roundLen until end, with a
// reference burst before each round while the server is idle, and returns
// the op times. In smoke mode a phase ends after maxOps ops.
func (o *servePar) phase(rec *recorder, next *atomic.Int64, end time.Time, traced bool) []float64 {
	first := next.Load()
	var lat []float64
	for {
		rec.startRound()
		stop := rec.roundStart.Add(roundLen)
		if end.Before(stop) {
			stop = end
		}
		a0 := readAllocs()
		lat = append(lat, o.load(rec, next, first, stop, traced)...)
		rec.roundBusy[rec.round()] = time.Since(rec.roundStart)
		rec.allocBytes += readAllocs().bytes - a0.bytes
		//reschedvet:ignore rawclock a run lasts a fixed wall-clock time by definition
		if !time.Now().Before(end) || (o.maxOps > 0 && next.Load()-first >= o.maxOps) {
			return lat
		}
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// load runs the closed loop until the deadline and returns the op times.
// Each client sends its next request only once it has the previous reply
// and has checked it; the check is outside the timed op. first is the
// index of the phase's first op.
func (o *servePar) load(rec *recorder, next *atomic.Int64, first int64, deadline time.Time, traced bool) []float64 {
	var tr *tracer
	if traced {
		tr = rec.tr
	}
	var mu sync.Mutex // guards rec and lat
	var lat []float64
	var wg sync.WaitGroup
	for c := 0; c < o.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			//reschedvet:ignore rawclock a run lasts a fixed wall-clock time by definition
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if o.maxOps > 0 && i-first >= o.maxOps {
					return
				}
				r := serveOp{i: i, span: -1, op: -1}
				var seed int64
				r.g, seed, r.err = o.graph(i)
				if r.err == nil {
					r.req, r.err = o.request(r.g, seed)
				}
				if r.err == nil {
					o.roundTrip(&r, tr)
				}
				mu.Lock()
				rec.op(r.ms, 0, o.check(rec, &r))
				lat = append(lat, r.ms)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return lat
}

// check validates one response outside the timed interval: HTTP 200, a
// schedule that schedule.ReadJSON re-reads against the request's graph, and
// the common checks. In the traced half it also records the layer metrics.
func (o *servePar) check(rec *recorder, r *serveOp) error {
	if r.err != nil {
		return r.err
	}
	traced := r.span >= 0
	if traced && (r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable) {
		rec.add("serve.shed_frac", 1)
	}
	s, resp, err := o.decode(r)
	if err != nil {
		return err
	}
	if err := checkSchedule(s, nil, rec.probe(r.op)); err != nil {
		return err
	}
	if o.qualityOps[r.i] {
		rec.setQuality(int(r.i), s.Makespan, regionFrac(s))
	}
	if traced {
		return o.layerMetrics(rec, r, resp, s)
	}
	return nil
}

// decode requires HTTP 200 and re-reads the response's schedule with
// schedule.ReadJSON against the request's graph.
func (o *servePar) decode(r *serveOp) (*schedule.Schedule, *serve.SolveResponse, error) {
	if r.err != nil {
		return nil, nil, r.err
	}
	if r.status != http.StatusOK {
		return nil, nil, fmt.Errorf("HTTP %d: %s", r.status, firstLines(r.body))
	}
	var resp serve.SolveResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return nil, nil, fmt.Errorf("decode response: %w", err)
	}
	s, err := schedule.ReadJSON(bytes.NewReader(resp.Schedule), r.g, o.arch)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: schedule.ReadJSON: %v", errCheck, err)
	}
	if s.Makespan != resp.Makespan {
		return nil, nil, fmt.Errorf("%w: response makespan %d, schedule makespan %d", errCheck, resp.Makespan, s.Makespan)
	}
	return s, &resp, nil
}

func (o *servePar) layerMetrics(rec *recorder, r *serveOp, resp *serve.SolveResponse, s *schedule.Schedule) error {
	// A hit returns the stored result, solve times included, without
	// solving: it spent no solver time.
	var schedD, fpD time.Duration
	if resp.Cache != "hit" {
		schedD = time.Duration(resp.SchedulingUS) * time.Microsecond
		fpD = time.Duration(resp.FloorplanUS) * time.Microsecond
	}
	rec.tr.derived("sched", r.span, schedD)
	rec.tr.derived("floorplan", r.span, fpD)
	solveMS := ms(schedD + fpD)
	rec.add("sched.phase_ms", ms(schedD))
	rec.add("sched.par_iterations", float64(resp.Iterations))
	rec.add("floorplan.ms", ms(fpD))
	rec.add("serve.solve_ms", solveMS)
	rec.add("serve.overhead_ms", r.ms-solveMS)
	if resp.Degraded {
		rec.add("serve.shed_frac", 1)
	} else {
		rec.add("serve.shed_frac", 0)
	}
	hit, warm := 0.0, 0.0
	switch resp.Cache {
	case "hit":
		hit = 1
	case "warm":
		warm = 1
	}
	rec.add("schedcache.hit_frac", hit)
	rec.add("schedcache.warm_frac", warm)

	probe := rec.probe(r.op)
	var sreq serve.SolveRequest
	if err := json.Unmarshal(r.req, &sreq); err != nil {
		return err
	}
	var g *taskgraph.Graph
	var err error
	probe("taskgraph.decode_ms", func() { g, err = taskgraph.Read(bytes.NewReader(sreq.Graph)) })
	if err != nil {
		return fmt.Errorf("taskgraph.Read: %w", err)
	}
	//reschedvet:ignore solvecheck the benchmark times each layer through its own entry point
	req := &solve.Request{Graph: g, Arch: o.arch, Options: solve.Options{
		Seed: sreq.Seed, Workers: sreq.SearchWorkers, MaxIterations: sreq.MaxIterations,
	}}
	probe("schedcache.key_us", func() { _ = schedcache.Key(req, sreq.Solver) })
	if feasible, err := probeFloorplan(rec, r.op, s); err != nil || !feasible {
		return fmt.Errorf("%w: final regions do not floorplan (%v)", errCheck, err)
	}
	return nil
}

func (o *servePar) workers() string {
	return fmt.Sprintf("serve_workers=%d clients=%d search_workers=1", o.serveWorkers, o.clients)
}

// close stops the listener, drains the server and waits for Serve to
// return.
func (o *servePar) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := o.hs.Shutdown(ctx)
	o.srv.Drain()
	if serr := <-o.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	o.client.CloseIdleConnections()
	return err
}
