package main

import (
	"fmt"

	"resched/internal/arch"
	"resched/internal/online"
	"resched/internal/schedule"
	"resched/internal/taskgraph"
)

// onlineTrace is the instance of online-trace: seeded arrival traces, each
// replayed through a fresh engine one arrival per op.
type onlineTrace struct {
	arch   *arch.Architecture
	seed   int64
	traces []*online.Trace
}

func setupOnlineTrace(cfg runConfig) (instance, error) {
	a, err := arch.Preset("zedboard")
	if err != nil {
		return nil, err
	}
	n, jobs, tasks := sized(cfg, 8), 12, 12
	if cfg.Smoke {
		n, jobs, tasks = 2, 4, 6
	}
	o := &onlineTrace{arch: a, seed: cfg.Seed}
	for i := 0; i < n; i++ {
		tr, err := online.GenTrace(online.TraceConfig{
			Jobs:        jobs,
			TasksPerJob: tasks,
			Seed:        cfg.Seed*100_000 + int64(i),
			MeanGap:     800,
			CommMax:     30,
		})
		if err != nil {
			return nil, err
		}
		o.traces = append(o.traces, tr)
	}
	// Warm-up: replay the first trace once into a throwaway recorder.
	if _, err := o.replay(o.traces[0], newRecorder(runConfig{}), 0, false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return o, nil
}

// onlineOp is one timed arrival.
type onlineOp struct {
	ms    float64
	alloc uint64
}

// replay runs one trace through a fresh engine, one Submit+Run per job,
// then Finalize and the checks. When traced, every arrival gets its own op id
// and Finalize with the checks one more.
func (o *onlineTrace) replay(tr *online.Trace, rec *recorder, traceIdx int, traced bool) ([]onlineOp, error) {
	eng, err := online.New(online.Config{Arch: o.arch, Solver: "pa", Seed: o.seed})
	if err != nil {
		return nil, err
	}
	var ops []onlineOp
	for _, j := range tr.Jobs {
		j.Graph = j.Graph.Clone() // the engine owns submitted graphs
		if !traced {
			var err error
			ms, al := timed(func() {
				if err = eng.Submit(j); err == nil {
					err = eng.Run()
				}
			})
			ops = append(ops, onlineOp{ms: ms, alloc: al.bytes})
			if err != nil {
				return ops, err
			}
			continue
		}
		t := rec.tr
		op := t.newOp()
		var run int
		var err error
		ms, al := timed(func() {
			root := t.start(opSpan, op, -1)
			t.call("online.submit", op, root, func() { err = eng.Submit(j) })
			if err == nil {
				run = t.start("online.run", op, root)
				err = eng.Run()
				t.end(run)
			}
			t.end(root)
		})
		ops = append(ops, onlineOp{ms: ms, alloc: al.bytes})
		if err != nil {
			return ops, err
		}
		if err := o.epochMetrics(rec, op, eng, run, ms); err != nil {
			return ops, err
		}
	}

	op := -1
	if traced {
		op = rec.tr.newOp()
	}
	probe := rec.probe(op)
	var res *online.Result
	probe("online.finalize_ms", func() { res, err = eng.Finalize() })
	if err != nil {
		return ops, err
	}
	if err := checkSchedule(res.Schedule, res.Release, probe); err != nil {
		return ops, err
	}
	if traced {
		// Epochs skip phase 8, so the stitched regions need not floorplan;
		// the probe measures the floorplanner on them either way.
		if _, err := probeFloorplan(rec, op, res.Schedule); err != nil {
			return ops, err
		}
	}
	rec.setQuality(traceIdx, res.Schedule.Makespan, regionFrac(res.Schedule))
	return ops, nil
}

// epochMetrics records the per-layer metrics of the epoch op just ran, and
// probes Freeze and CheckAgainst on the engine's plan at its commit.
func (o *onlineTrace) epochMetrics(rec *recorder, op int, eng *online.Engine, run int, opMS float64) error {
	eps := eng.Epochs()
	es := eps[len(eps)-1]
	rec.tr.derived("online.replan", run, es.ReplanTime)
	rec.add("online.replan_ms", ms(es.ReplanTime))
	rec.add("online.epoch_overhead_ms", opMS-ms(es.ReplanTime))
	rec.add("online.tail_tasks", float64(es.TailTasks))
	if es.Degraded {
		rec.add("online.degraded_frac", 1)
	} else {
		rec.add("online.degraded_frac", 0)
	}
	if es.PrefetchIssued > 0 {
		rec.add("online.prefetch_hit_frac", float64(es.PrefetchHits)/float64(es.PrefetchIssued))
	}
	if base := es.Stall + es.StallHidden; base > 0 {
		rec.add("online.stall_hidden_frac", float64(es.StallHidden)/float64(base))
	}

	probe := rec.probe(op)
	plan, commit := eng.Plan(), eng.Commit()
	var h *schedule.Horizon
	var err error
	probe("schedule.freeze_ms", func() { h, err = schedule.Freeze(plan, commit) })
	if err != nil {
		return fmt.Errorf("%w: freeze at %d: %v", errCheck, commit, err)
	}
	tail, err := tailOf(plan, h)
	if err != nil {
		return err
	}
	var errs []error
	probe("schedule.checkagainst_ms", func() { errs = schedule.CheckAgainst(&h.Platform, tail) })
	if len(errs) > 0 {
		return fmt.Errorf("%w: tail at %d fails CheckAgainst: %v", errCheck, commit, errs[0])
	}
	return nil
}

// tailOf cuts the re-plannable tail out of a stitched plan frozen at h:
// the unstarted tasks in global ID order with times relative to the commit,
// every region in the plan's order (the engine keeps warm regions first),
// and the unstarted reconfigurations, whose frozen incoming task becomes the
// boundary (-1). Its platform state is h.Platform with task IDs in tail
// space. This is the tail the engine re-planned at that commit.
func tailOf(plan *schedule.Schedule, h *schedule.Horizon) (*schedule.Schedule, error) {
	g := plan.Graph
	idx := make([]int, g.N())
	var keep []int
	for t := range idx {
		idx[t] = -1
		if !h.Frozen[t] {
			idx[t] = len(keep)
			keep = append(keep, t)
		}
	}
	tg := taskgraph.New(g.Name + "/tail")
	for _, t := range keep {
		tg.AddTask(g.Tasks[t].Name, g.Tasks[t].Impls...)
	}
	for _, e := range g.Edges() {
		if u, v := idx[e[0]], idx[e[1]]; u >= 0 && v >= 0 {
			if err := tg.AddEdgeComm(u, v, g.EdgeComm(e[0], e[1])); err != nil {
				return nil, err
			}
		}
	}
	for i, r := range h.RegionID {
		if r != i {
			return nil, fmt.Errorf("%w: warm region %d is plan region %d", errCheck, i, r)
		}
	}
	T := h.Commit
	s := schedule.New(tg, plan.Arch)
	s.ModuleReuse, s.Algorithm = plan.ModuleReuse, plan.Algorithm
	for _, r := range plan.Regions {
		s.AddRegion(r.Res)
	}
	for ti, t := range keep {
		a := plan.Tasks[t]
		a.Start -= T
		a.End -= T
		s.Tasks[ti] = a
	}
	for i, rc := range plan.Reconfs {
		if h.FrozenReconf[i] {
			continue
		}
		rc.Start -= T
		rc.End -= T
		rc.OutTask = idx[rc.OutTask]
		if rc.InTask >= 0 {
			rc.InTask = idx[rc.InTask]
		}
		s.Reconfs = append(s.Reconfs, rc)
	}
	s.ComputeMakespan()

	ps := &h.Platform
	for i := range ps.Regions {
		if p := ps.Regions[i].Pinned; p >= 0 {
			ps.Regions[i].Pinned = idx[p]
		}
	}
	rel := make([]int64, len(keep))
	for ti, t := range keep {
		rel[ti] = ps.Release[t]
	}
	ps.Release = rel
	return s, nil
}

func (o *onlineTrace) measure(rec *recorder) {
	rec.passes(len(o.traces), func(i int, traced bool) (float64, int) {
		ops, err := o.replay(o.traces[i], rec, i, traced)
		var total float64
		for _, op := range ops {
			// A failed trace fails every op it ran: their plans did not
			// survive to a checked stitched schedule.
			rec.op(op.ms, op.alloc, err)
			total += op.ms
		}
		if err != nil && len(ops) == 0 {
			rec.op(0, 0, err)
		}
		return total, len(ops)
	})
}

func (o *onlineTrace) workers() string { return "solver_workers=1" }
func (o *onlineTrace) close() error    { return nil }
