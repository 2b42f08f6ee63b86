package main

import (
	"encoding/json"
	"io"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// why is recorded in BENCHMARK.json.
	why string
	// procs is the run's GOMAXPROCS; 0 means nproc.
	procs int
	setup func(cfg runConfig) (instance, error)
}

// workloads are the benchmark's workloads. The solver-only ones run at
// GOMAXPROCS=1: on a 2-vCPU VM, concurrent GC marking on the second vCPU
// spread IS-5 throughput over 4.60-5.94 ops/s, against 4.40-4.54 at 1.
// serve-par runs at nproc because its server workers and clients share the
// process.
var workloads = []*workload{
	{
		name:  "table1-pa",
		why:   "PA on the paper's §VII-A suite graphs (10-100 tasks), one op per graph; floorplanning (phase 8) is most of op time, so floorplanner work shows here.",
		procs: 1,
		setup: setupTable1PA,
	},
	{
		name:  "table1-isk",
		why:   "IS-5 with module reuse on 20-task suite graphs; the window search dominates and floorplanning is ~10% of op time, so a floorplanner change should barely move it.",
		procs: 1,
		setup: setupTable1ISK,
	},
	{
		name:  "serve-par",
		why:   "Closed loop of nproc clients posting 24-task PA-R solves to the in-process daemon (measured: 20% cache hits, 10% warm starts); the only path through admission, JSON and the cache.",
		setup: setupServePar,
	},
	{
		name:  "online-trace",
		why:   "One op per job arrival (Submit+Run) on seeded 12x12-task traces; the only path through Freeze, CheckAgainst, prefetch accounting and the stitched sim replay.",
		procs: 1,
		setup: setupOnlineTrace,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// metricDef is one BENCHMARK.json metric entry.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(b float64) *float64 { return &b }

// endToEnd are the metrics a user sees, with the share of the parent's
// median by which each may worsen before a change counts as a regression.
// Every workload reports every one of them from its untraced run.
//
// Every time is scaled by the host reference measured around it
// (hostref.go): on a 2-vCPU VM that shares its host, the raw op times of
// fixed inputs drift by up to 2x within minutes. Over three sets of ten
// 25-second runs (seeds 1-10), the scaled time metrics spread by 4-14%
// (IQR over median) and the medians of consecutive sets agreed within 8%,
// while the raw medians moved by up to 28%; so time metrics take the widest
// bound. alloc_mb_per_op and rss_mb vary with the inputs by up to 4%. The
// quality metrics are exact for a seed and vary only with the inputs
// (makespan_mean by up to 3.5% across seeds).
var endToEnd = []metricDef{
	// setup_s: inputs, server start, cache priming and warm-up, the
	// median of setupRepeats set-ups in one run.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: bound(0.25)},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: bound(0.25)},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: bound(0.25)},
	{Name: "op_ms_p90", Unit: "ms", Better: "lower", Bound: bound(0.25)},
	// ok_frac: ops whose schedule passed every check over ops attempted.
	// It is 1 on every correct run; the gate on failed ops is the result's
	// `correct`, which is false as soon as one op fails.
	{Name: "ok_frac", Unit: "ratio", Better: "higher", Bound: bound(0.001)},
	{Name: "makespan_mean", Unit: "ticks", Better: "lower", Bound: bound(0.15)},
	// region_frac_mean: weighted region resources over weighted device
	// capacity, the paper's resource-efficiency axis.
	{Name: "region_frac_mean", Unit: "ratio", Better: "lower", Bound: bound(0.06)},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: bound(0.25)},
	// rss_mb: the median resident set while the ops run. The peak (VmHWM)
	// is not used: one GC overshoot moved it between 21 and 31 MB across
	// identical table1-isk runs.
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: bound(0.25)},
}

// layerDef is a per-layer metric of the traced run and the end-to-end
// metric it should move, on which workload. A metric a workload does not
// exercise reads 0 there.
type layerDef struct {
	Name, Unit, Better string
	Moves              string
}

var perLayer = []layerDef{
	{"sched.phase_ms", "ms", "lower", "op_ms_p50 on table1-pa (PA phases 1-7, Stats.SchedulingTime or the response's scheduling_us)"},
	{"sched.attempts", "count", "lower", "op_ms_p50 on table1-pa (shrink-and-restart rounds + 1)"},
	{"sched.par_iterations", "count", "lower", "ops_per_s on serve-par (the response's iterations)"},
	{"floorplan.ms", "ms", "lower", "ops_per_s and op_ms_p90 on table1-pa and serve-par; nothing on table1-isk"},
	{"floorplan.share", "ratio", "lower", "ops_per_s on table1-pa (above 0.5 there, below 0.15 on table1-isk)"},
	{"floorplan.feasible_frac", "ratio", "higher", "op_ms_p90 on table1-pa (1/attempts)"},
	{"floorplan.solve_ms", "ms", "lower", "op_ms_p90 on table1-pa and serve-par (outside floorplan.Solve on the final regions)"},
	{"floorplan.nodes", "count", "lower", "op_ms_p90 on table1-pa (nodes of the same outside solve)"},
	{"isk.windows", "count", "lower", "ops_per_s on table1-isk"},
	{"isk.nodes", "count", "lower", "ops_per_s on table1-isk (window branch-and-bound nodes)"},
	{"isk.ms_per_window", "ms", "lower", "ops_per_s on table1-isk"},
	{"isk.allocs", "count", "lower", "alloc_mb_per_op and ops_per_s on table1-isk (heap objects per op)"},
	{"gc.cpu_frac", "ratio", "lower", "ops_per_s on table1-isk (GC CPU over total CPU)"},
	{"schedule.check_ms", "ms", "lower", "none: checks run outside the timed op on every workload"},
	{"schedule.freeze_ms", "ms", "lower", "op_ms_p90 on online-trace (outside Freeze of Plan() at Commit())"},
	{"schedule.checkagainst_ms", "ms", "lower", "op_ms_p90 on online-trace (outside CheckAgainst of the plan's tail)"},
	{"sim.replay_ms", "ms", "lower", "op time on online-trace (stitched replay); no change on table1-pa"},
	{"schedcache.key_us", "us", "lower", "ops_per_s on serve-par (outside schedcache.Key on the decoded request)"},
	{"schedcache.hit_frac", "ratio", "higher", "ops_per_s on serve-par"},
	{"schedcache.warm_frac", "ratio", "higher", "ops_per_s on serve-par"},
	{"serve.solve_ms", "ms", "lower", "op_ms_p50 on serve-par (scheduling_us + floorplan_us)"},
	{"serve.overhead_ms", "ms", "lower", "op_ms_p50 on serve-par (latency minus solve: admission, queue, JSON, loopback)"},
	{"serve.shed_frac", "ratio", "lower", "ok_frac and op_ms_p90 on serve-par"},
	{"taskgraph.decode_ms", "ms", "lower", "op_ms_p50 on serve-par (outside taskgraph.Read of the request graph)"},
	{"online.replan_ms", "ms", "lower", "op_ms_p50 and op_ms_p90 on online-trace (EpochStats.ReplanTime)"},
	{"online.epoch_overhead_ms", "ms", "lower", "op_ms_p50 on online-trace (Submit+Run minus ReplanTime)"},
	{"online.tail_tasks", "count", "lower", "op_ms_p90 on online-trace"},
	{"online.degraded_frac", "ratio", "lower", "makespan_mean on online-trace"},
	{"online.prefetch_hit_frac", "ratio", "higher", "makespan_mean on online-trace"},
	{"online.stall_hidden_frac", "ratio", "higher", "makespan_mean on online-trace"},
	{"online.finalize_ms", "ms", "lower", "ops_per_s on online-trace (once per trace, outside the op)"},
	{"unattributed_frac", "ratio", "lower", "every workload: 1 - (sum of layer self times) / op time"},
	{"trace.overhead_frac", "ratio", "lower", "none: traced minus untraced op time, over untraced"},
	{"host.ref_ms", "ms", "lower", "none: the host reference kernel's raw median time; the end-to-end times are scaled by 6.5 ms over it"},
}

func perLayerDefs() []metricDef {
	out := make([]metricDef, len(perLayer))
	for i, d := range perLayer {
		out[i] = metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better}
	}
	return out
}

// moves maps a per-layer metric to its perLayer.Moves, printed beside it.
var moves = func() map[string]string {
	m := map[string]string{}
	for _, d := range perLayer {
		m[d.Name] = "moves: " + d.Moves
	}
	return m
}()

// heldOutSeed is the seed later performance claims must also hold on; it is
// not used while tuning a change.
const heldOutSeed = 20160

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []manifestWL `json:"workloads"`
	EndToEnd   []metricDef  `json:"end_to_end"`
	PerLayer   []metricDef  `json:"per_layer"`
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is the measured length of one run.
const runSeconds = 25

func writeManifest(w io.Writer) error {
	m := manifest{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayerDefs(),
	}
	for _, wl := range workloads {
		m.Workloads = append(m.Workloads, manifestWL{Name: wl.name, Why: wl.why})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
