package main

import (
	"fmt"

	"resched/internal/floorplan"
	"resched/internal/resources"
	"resched/internal/schedule"
	"resched/internal/sim"
)

// checkSchedule is the benchmark's correctness check of every schedule a run
// gets back: the independent checker accepts it, and the event-driven
// simulator replays it (from the release floors, when given) no later than
// the schedule's own makespan. The two calls go through probe, which times
// them as the schedule.check and sim.replay layers.
func checkSchedule(s *schedule.Schedule, release []int64, probe probeFunc) error {
	if s == nil {
		return fmt.Errorf("%w: no schedule", errCheck)
	}
	var errs []error
	probe("schedule.check_ms", func() { errs = schedule.Check(s) })
	if len(errs) > 0 {
		return fmt.Errorf("%w: schedule.Check: %v (%d errors)", errCheck, errs[0], len(errs))
	}
	var r *sim.Result
	var err error
	probe("sim.replay_ms", func() { r, err = sim.ExecuteFrom(s, release) })
	if err != nil {
		return fmt.Errorf("%w: sim replay: %v", errCheck, err)
	}
	if r.Makespan > s.Makespan {
		return fmt.Errorf("%w: sim makespan %d exceeds schedule makespan %d", errCheck, r.Makespan, s.Makespan)
	}
	return nil
}

// regionFrac is the paper's resource-efficiency axis: the weighted resources
// of the schedule's regions over the weighted device capacity, with the
// eq. (4) weights of the device.
func regionFrac(s *schedule.Schedule) float64 {
	a := s.Arch
	w := resources.WeightsFor(a.MaxRes)
	used := s.TotalRegionResources()
	var num, den float64
	for k := range w {
		num += w[k] * float64(used[k])
		den += w[k] * float64(a.MaxRes[k])
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// probeFloorplan runs one outside floorplan.Solve on the schedule's final
// region set (traced run only) and records floorplan.solve_ms and
// floorplan.nodes. It reports whether the region set floorplans.
func probeFloorplan(rec *recorder, op int, s *schedule.Schedule) (bool, error) {
	f, err := s.Arch.RequireFabric()
	if err != nil {
		return false, err
	}
	regions := make([]resources.Vector, len(s.Regions))
	for i, r := range s.Regions {
		regions[i] = r.Res
	}
	var res *floorplan.Result
	//reschedvet:ignore solvecheck the benchmark times each layer through its own entry point
	rec.probe(op)("floorplan.solve_ms", func() { res, err = floorplan.Solve(f, regions, floorplan.Options{}) })
	if err != nil {
		return false, err
	}
	rec.add("floorplan.nodes", float64(res.Nodes))
	return res.Feasible, nil
}
