package main

import (
	"fmt"
	"math"
	"time"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/isk"
	"resched/internal/sched"
	"resched/internal/schedule"
	"resched/internal/taskgraph"
)

// suiteGraphs generates the graphs of the given §VII-A suite groups for
// `suites` disjoint suites of the workload seed, perGroup graphs per group
// and suite, with benchgen.Suite's own seeding: suite k is
// benchgen.Suite(base+10k), and base spaces seeds 100 000 apart so that no
// two workload seeds share a graph.
func suiteGraphs(seed int64, groups []int, suites, perGroup int) ([]*taskgraph.Graph, error) {
	base := seed * 100_000
	var out []*taskgraph.Graph
	for k := 0; k < suites; k++ {
		for _, g := range groups {
			for idx := 0; idx < perGroup; idx++ {
				gr, err := benchgen.Generate(benchgen.Config{
					Tasks: g,
					Seed:  base + int64(10*k) + int64(g/10*1000+idx),
				})
				if err != nil {
					return nil, err
				}
				out = append(out, gr)
			}
		}
	}
	return out, nil
}

// sized scales an input count to the run length: rate inputs per measured
// second, so that one pass over the inputs fills about three fifths of the
// run on a 2-vCPU VM. The margin keeps the mandatory first pass inside the
// run when a busy host slows the ops down by up to 1.6x. The traced run
// runs every input twice and probes each op, so it takes a third of the
// inputs.
func sized(cfg runConfig, rate float64) int {
	n := int(math.Round(0.6 * rate * float64(cfg.Seconds)))
	if cfg.Traced {
		n = (n + 2) / 3
	}
	if n < 1 {
		n = 1
	}
	return n
}

// solverOp is the result of one timed solver call.
type solverOp struct {
	s                 *schedule.Schedule
	schedMS, fpMS     float64
	attempts, windows int
	nodes             int
	err               error
}

// table1 is the instance of table1-pa and table1-isk: a list of suite
// graphs and one solver call per op.
type table1 struct {
	arch   *arch.Architecture
	graphs []*taskgraph.Graph
	// solve runs the workload's solver on g; layer names the span the call
	// is recorded as in the traced run.
	solve func(g *taskgraph.Graph, a *arch.Architecture) solverOp
	layer string
}

func setupTable1PA(cfg runConfig) (instance, error) {
	suites := int(math.Round(float64(sized(cfg, 45)) / 100))
	groups := []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	perGroup := 10
	if cfg.Smoke {
		suites, groups, perGroup = 1, []int{10, 20, 30}, 2
	}
	if suites < 1 {
		suites = 1
	}
	graphs, err := suiteGraphs(cfg.Seed, groups, suites, perGroup)
	if err != nil {
		return nil, err
	}
	t := &table1{arch: arch.ZedBoard(), graphs: graphs, solve: solvePA, layer: "sched"}
	// Warm-up: the first graph of every group of the first suite.
	return t, t.warmUp(len(groups), perGroup)
}

func setupTable1ISK(cfg runConfig) (instance, error) {
	// The median IS-5 op time moves ~11% between seeds' inputs at 60 graphs
	// (measured with the host's drift shared), so the first pass takes as
	// many distinct graphs as fit into a run at the slowest host state seen,
	// about 5 ops/s.
	n := sized(cfg, 7)
	perGroup := 10
	if cfg.Smoke {
		n, perGroup = 2, 2
	}
	graphs, err := suiteGraphs(cfg.Seed, []int{20}, (n+perGroup-1)/perGroup, perGroup)
	if err != nil {
		return nil, err
	}
	t := &table1{arch: arch.ZedBoard(), graphs: graphs[:n], solve: solveIS5, layer: "isk"}
	// Warm-up on one fixed graph: IS-5 takes 50-300 ms on one 20-task graph
	// or another, so warming up on the seed's first graph made setup_s
	// depend on the seed more than on the set-up.
	warm, err := suiteGraphs(0, []int{20}, 1, 1)
	if err != nil {
		return nil, err
	}
	if r := t.solve(warm[0], t.arch); r.err != nil {
		return nil, fmt.Errorf("warm-up: %w", r.err)
	}
	return t, nil
}

// warmUp runs the solver untimed on every stride-th of the first
// count*stride graphs.
func (t *table1) warmUp(count, stride int) error {
	for i := 0; i < count && i*stride < len(t.graphs); i++ {
		if r := t.solve(t.graphs[i*stride], t.arch); r.err != nil {
			return fmt.Errorf("warm-up: %w", r.err)
		}
	}
	return nil
}

func solvePA(g *taskgraph.Graph, a *arch.Architecture) solverOp {
	//reschedvet:ignore solvecheck the benchmark times each layer through its own entry point
	s, st, err := sched.Schedule(g, a, sched.Options{})
	if err != nil {
		return solverOp{err: err}
	}
	return solverOp{s: s, schedMS: ms(st.SchedulingTime), fpMS: ms(st.FloorplanTime), attempts: st.Attempts}
}

func solveIS5(g *taskgraph.Graph, a *arch.Architecture) solverOp {
	//reschedvet:ignore solvecheck the benchmark times each layer through its own entry point
	s, st, err := isk.Schedule(g, a, isk.Options{K: 5, ModuleReuse: true})
	if err != nil {
		return solverOp{err: err}
	}
	return solverOp{s: s, schedMS: ms(st.SchedulingTime), fpMS: ms(st.FloorplanTime),
		attempts: st.Retries + 1, windows: st.Windows, nodes: st.Nodes}
}

func (t *table1) measure(rec *recorder) {
	rec.passes(len(t.graphs), func(i int, traced bool) (float64, int) {
		g := t.graphs[i]
		if !traced {
			var r solverOp
			opMS, al := timed(func() { r = t.solve(g, t.arch) })
			rec.op(opMS, al.bytes, t.check(rec, i, r, -1))
			return opMS, 1
		}
		tr := rec.tr
		op := tr.newOp()
		var r solverOp
		var call int
		opMS, al := timed(func() {
			root := tr.start(opSpan, op, -1)
			call = tr.start(t.layer, op, root)
			r = t.solve(g, t.arch)
			tr.end(call)
			tr.end(root)
		})
		err := t.check(rec, i, r, op)
		if r.err == nil {
			tr.derived("floorplan", call, time.Duration(r.fpMS*1e6))
			t.layerMetrics(rec, r, al)
			if feasible, perr := probeFloorplan(rec, op, r.s); perr != nil || !feasible {
				err = fmt.Errorf("%w: final regions do not floorplan (%v)", errCheck, perr)
			}
		}
		rec.op(opMS, al.bytes, err)
		return opMS, 1
	})
}

// check runs the correctness checks on a solver result and records its
// quality; op >= 0 in the traced run.
func (t *table1) check(rec *recorder, i int, r solverOp, op int) error {
	if r.err != nil {
		return r.err
	}
	if err := checkSchedule(r.s, nil, rec.probe(op)); err != nil {
		return err
	}
	rec.setQuality(i, r.s.Makespan, regionFrac(r.s))
	return nil
}

func (t *table1) layerMetrics(rec *recorder, r solverOp, al allocs) {
	rec.add("floorplan.ms", r.fpMS)
	rec.add("floorplan.feasible_frac", 1/float64(r.attempts))
	switch t.layer {
	case "sched":
		rec.add("sched.phase_ms", r.schedMS)
		rec.add("sched.attempts", float64(r.attempts))
	case "isk":
		rec.add("isk.windows", float64(r.windows))
		rec.add("isk.nodes", float64(r.nodes))
		if r.windows > 0 {
			rec.add("isk.ms_per_window", r.schedMS/float64(r.windows))
		}
		rec.add("isk.allocs", float64(al.objects))
	}
}

func (t *table1) workers() string { return "solver_workers=1" }
func (t *table1) close() error    { return nil }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
