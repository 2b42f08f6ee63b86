package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many times a run builds its inputs, starts its
// services and warms up; setup_s is the median, the last one is measured.
const setupRepeats = 5

// instance is a workload after set-up: its inputs, and for serve-par the
// running server.
type instance interface {
	// measure runs ops until rec's deadline (and at least one pass over the
	// inputs), recording every op in rec.
	measure(rec *recorder)
	// workers names the resolved worker counts for the env line.
	workers() string
	close() error
}

// report is everything a run measured.
type report struct {
	attempted, failed int
	failures          []string
	e2e               map[string]float64
	// raw holds the unscaled setup_s, ops_per_s and op times, and the
	// median reference burst (ref_ms).
	raw          map[string]float64
	layer        map[string]float64
	layerTimes   []layerTime
	untracedOpMS float64
	tracedOpMS   float64
	spans        []span
	workers      string
}

// measure sets the workload up setupRepeats times, then runs it once. Every
// time is scaled by the host reference around it (hostref.go); the raw
// figures go into report.raw.
func measure(w *workload, cfg runConfig) (*report, error) {
	var rawSetups []float64
	var inst instance
	setupRef := &hostRef{}
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		setupRef.burst()
		begin := time.Now()
		var err error
		inst, err = w.setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		rawSetups = append(rawSetups, time.Since(begin).Seconds())
	}
	setupRef.burst()
	setups := make([]float64, len(rawSetups))
	for i, s := range rawSetups {
		setups[i] = s * setupRef.scale(i)
	}

	rec := newRecorder(cfg)
	runtime.GC()
	stop := make(chan struct{})
	rss := sampleRSS(stop)
	gc0 := readGCCPU()
	inst.measure(rec)
	rec.host.burst()
	gc1 := readGCCPU()
	close(stop)
	rssMB := <-rss
	if err := inst.close(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if rec.attempted == 0 {
		return nil, fmt.Errorf("%s: no op completed", w.name)
	}

	rep := &report{
		attempted: rec.attempted,
		failed:    rec.failed,
		failures:  rec.failures,
		workers:   inst.workers(),
		e2e:       map[string]float64{},
		raw:       map[string]float64{},
		layer:     map[string]float64{},
	}
	var busy, rawBusy float64 // seconds
	for k, b := range rec.roundBusy {
		busy += b.Seconds() * rec.host.scale(k)
		rawBusy += b.Seconds()
	}
	opMS := make([]float64, len(rec.opMS))
	for i, v := range rec.opMS {
		opMS[i] = v * rec.host.scale(rec.opRound[i])
	}
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["ops_per_s"] = float64(rec.attempted) / busy
	rep.e2e["op_ms_p50"] = quantile(opMS, 0.5)
	rep.e2e["op_ms_p90"] = quantile(opMS, 0.9)
	rep.e2e["ok_frac"] = float64(rec.attempted-rec.failed) / float64(rec.attempted)
	rep.e2e["makespan_mean"], rep.e2e["region_frac_mean"] = rec.qualityMeans()
	rep.e2e["alloc_mb_per_op"] = float64(rec.allocBytes) / 1e6 / float64(rec.attempted)
	rep.e2e["rss_mb"] = median(rssMB)
	rep.raw["setup_s"] = median(rawSetups)
	rep.raw["ops_per_s"] = float64(rec.attempted) / rawBusy
	rep.raw["op_ms_p50"] = quantile(rec.opMS, 0.5)
	rep.raw["op_ms_p90"] = quantile(rec.opMS, 0.9)
	rep.raw["ref_ms"] = median(rec.host.bursts)
	if !cfg.Traced {
		return rep, nil
	}

	for _, d := range perLayer {
		rep.layer[d.Name] = 0
	}
	for name, a := range rec.acc {
		rep.layer[name] = a.sum / float64(a.n)
	}
	rep.layer["host.ref_ms"] = rep.raw["ref_ms"]
	// The reference bursts allocate heavily; their GC is not the program's.
	gcTotal := gc1.total - gc0.total - rec.host.gc.total
	if gcTotal > 0 {
		rep.layer["gc.cpu_frac"] = (gc1.gc - gc0.gc - rec.host.gc.gc) / gcTotal
	}
	rep.spans = rec.tr.spans
	rep.layerTimes, rep.layer["unattributed_frac"] = rec.tr.layers()
	for _, l := range rep.layerTimes {
		if l.name == "floorplan" {
			rep.layer["floorplan.share"] = l.share
		}
	}
	if rec.pairedUntraced > 0 {
		rep.untracedOpMS = rec.pairedUntraced / float64(rec.pairs)
		rep.tracedOpMS = rec.pairedTraced / float64(rec.pairs)
		rep.layer["trace.overhead_frac"] = (rec.pairedTraced - rec.pairedUntraced) / rec.pairedUntraced
	}
	return rep, nil
}

// recorder collects per-op measurements. It is used from one goroutine,
// except by serve-par, which guards it with its own mutex.
type recorder struct {
	cfg      runConfig
	deadline time.Time
	rng      *rand.Rand

	opMS              []float64 // raw op times
	opRound           []int     // the round each op ran in
	attempted, failed int
	failures          []string
	allocBytes        uint64

	// host times the reference bursts between rounds; roundBusy is the
	// time the ops of each round ran: the sum of op times for the
	// single-threaded workloads, the wall time of the round's load for
	// serve-par.
	host       hostRef
	roundBusy  []time.Duration
	roundStart time.Time

	quality map[int][2]float64 // input index -> (makespan, region fraction)

	tr  *tracer
	acc map[string]*accum
	// pairedUntraced and pairedTraced sum the op times of the same pairs
	// ops, run untraced and traced.
	pairs                        int
	pairedUntraced, pairedTraced float64
}

type accum struct {
	sum float64
	n   int
}

func newRecorder(cfg runConfig) *recorder {
	r := &recorder{
		cfg:      cfg,
		deadline: time.Now().Add(time.Duration(cfg.Seconds) * time.Second),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		quality:  map[int][2]float64{},
		acc:      map[string]*accum{},
	}
	if cfg.Traced {
		r.tr = newTracer()
	}
	return r
}

// startRound runs a reference burst and opens the next round.
func (r *recorder) startRound() {
	r.host.burst()
	r.roundBusy = append(r.roundBusy, 0)
	r.roundStart = time.Now()
}

// round is the index of the open round.
func (r *recorder) round() int { return len(r.roundBusy) - 1 }

// tick opens a new round once the open one has lasted roundLen.
func (r *recorder) tick() {
	//reschedvet:ignore rawclock a round lasts a fixed wall-clock time by definition
	if len(r.roundBusy) == 0 || time.Since(r.roundStart) >= roundLen {
		r.startRound()
	}
}

// op records one attempted op; err is the solver's or a check's failure.
func (r *recorder) op(ms float64, alloc uint64, err error) {
	r.attempted++
	r.opMS = append(r.opMS, ms)
	r.opRound = append(r.opRound, r.round())
	r.allocBytes += alloc
	r.roundBusy[r.round()] += time.Duration(ms * 1e6)
	if err != nil {
		r.failed++
		if len(r.failures) < 5 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// add accumulates one per-op observation of a per-layer metric; the
// reported value is the mean.
func (r *recorder) add(name string, v float64) {
	a := r.acc[name]
	if a == nil {
		a = &accum{}
		r.acc[name] = a
	}
	a.sum += v
	a.n++
}

// setQuality records the schedule quality of input i once: the quality
// metrics are means over the distinct inputs, so they repeat exactly for a
// fixed seed however many ops fit into the run.
func (r *recorder) setQuality(i int, makespan int64, regionFrac float64) {
	if _, ok := r.quality[i]; !ok {
		r.quality[i] = [2]float64{float64(makespan), regionFrac}
	}
}

func (r *recorder) qualityMeans() (makespan, regionFrac float64) {
	keys := make([]int, 0, len(r.quality))
	for k := range r.quality {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		makespan += r.quality[k][0]
		regionFrac += r.quality[k][1]
	}
	n := float64(len(keys))
	return makespan / n, regionFrac / n
}

// passes calls run for every input index in a fresh seeded order per pass,
// until the deadline has passed and at least one full pass is done, with a
// reference burst every roundLen between two calls. run
// returns the total time and the number of the ops it ran. In the traced
// run each input runs twice, untraced and traced, in alternating order, so
// the two op times pair up for the tracing overhead.
func (r *recorder) passes(n int, run func(i int, traced bool) (ms float64, ops int)) {
	for pass := 0; ; pass++ {
		for k, i := range r.rng.Perm(n) {
			//reschedvet:ignore rawclock a run lasts a fixed wall-clock time by definition
			if pass > 0 && time.Now().After(r.deadline) {
				return
			}
			r.tick()
			if !r.cfg.Traced {
				run(i, false)
				continue
			}
			var u, t float64
			var n int
			if k%2 == 0 {
				u, _ = run(i, false)
				t, n = run(i, true)
			} else {
				t, n = run(i, true)
				u, _ = run(i, false)
			}
			r.pairs += n
			r.pairedUntraced += u
			r.pairedTraced += t
		}
		//reschedvet:ignore rawclock a run lasts a fixed wall-clock time by definition
		if time.Now().After(r.deadline) {
			return
		}
	}
}

// probeFunc runs f, a call the benchmark makes outside the timed op. The
// name is the per-layer metric the call's time feeds in the traced run.
type probeFunc func(metric string, f func())

// probe returns the probeFunc for op (op < 0 outside the traced run): when
// traced, it records f as a root span named after the metric's layer and
// adds its time to the metric; otherwise it just calls f.
func (r *recorder) probe(op int) probeFunc {
	return func(metric string, f func()) {
		if r.tr == nil || op < 0 {
			f()
			return
		}
		id := r.tr.start(strings.TrimSuffix(strings.TrimSuffix(metric, "_ms"), "_us"), op, -1)
		begin := time.Now()
		f()
		ms := since(begin)
		r.tr.end(id)
		if strings.HasSuffix(metric, "_us") {
			ms *= 1e3
		}
		r.add(metric, ms)
	}
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// allocs is a cumulative heap allocation count of the process.
type allocs struct{ bytes, objects uint64 }

var allocSamples = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}

func readAllocs() allocs {
	metrics.Read(allocSamples)
	return allocs{bytes: allocSamples[0].Value.Uint64(), objects: allocSamples[1].Value.Uint64()}
}

type gcCPU struct{ gc, total float64 }

var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readGCCPU() gcCPU {
	metrics.Read(gcSamples)
	return gcCPU{gc: gcSamples[0].Value.Float64(), total: gcSamples[1].Value.Float64()}
}

// rssEvery is the resident-set sampling period while the ops run.
const rssEvery = 20 * time.Millisecond

// sampleRSS samples the process's resident set (MB) every rssEvery until
// stop is closed, then sends the samples on the returned channel.
func sampleRSS(stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	//reschedvet:ignore goleak joined by the caller's receive on the returned channel
	go func() {
		var xs []float64
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			if v, err := residentMB(); err == nil {
				xs = append(xs, v)
			}
			select {
			case <-stop:
				out <- xs
				return
			case <-tick.C:
			}
		}
	}()
	return out
}

// residentMB reads the resident set from /proc/self/statm.
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("statm: %q", b)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / 1e6, nil
}

// timed runs f and returns its wall time in milliseconds and what it
// allocated (process-wide, so only meaningful single-threaded).
func timed(f func()) (ms float64, a allocs) {
	a0 := readAllocs()
	begin := time.Now()
	f()
	ms = since(begin)
	a1 := readAllocs()
	return ms, allocs{bytes: a1.bytes - a0.bytes, objects: a1.objects - a0.objects}
}

// firstLines keeps error text short in reports.
func firstLines(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}
