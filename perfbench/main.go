// Command perfbench is the repository benchmark: four workloads that drive
// the schedulers, the floorplanner, the online engine and the serving tier
// through their public functions, check every schedule they return, and
// print the end-to-end metrics (untraced run) or the per-layer metrics (a
// separate traced run) as one JSON object on the last line of stdout.
//
//	perfbench --workload table1-pa --seed 1 --seconds 25 --trace 0
//	perfbench --manifest > ../BENCHMARK.json
//
// The workload seed is the only source of input randomness: the programs
// under test receive only the generated inputs. Workload definitions, the
// reasons they were chosen and the layer→end-to-end map live in manifest.go.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see --manifest)")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", runSeconds, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	out := fs.String("out", ".bench_build", "directory for span dumps")
	smoke := fs.Bool("smoke", false, "tiny inputs and a short run, for tests")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *manifest {
		return writeManifest(stdout)
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds %d: need at least 1", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace %d: need 0 or 1", *trace)
	}
	procs := w.procs
	if procs == 0 {
		procs = runtime.NumCPU()
	}
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)

	cfg := runConfig{Seed: *seed, Seconds: *seconds, Traced: *trace == 1, Smoke: *smoke}
	rep, err := measure(w, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "env: workload=%s seed=%d held_out_seed=%d seconds=%d trace=%d gomaxprocs=%d nproc=%d go=%s %s\n",
		w.name, *seed, heldOutSeed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), rep.workers)
	if cfg.Traced {
		if err := writeSpans(*out, w.name, *seed, rep.spans); err != nil {
			return err
		}
	}
	return printReport(stdout, w, cfg, rep)
}

// runConfig is what a workload may depend on: its inputs are a pure
// function of (Seed, Seconds, Smoke).
type runConfig struct {
	Seed    int64
	Seconds int
	Traced  bool
	Smoke   bool
}

// metricValue is one entry of the result's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printReport prints the human-readable lines, then the result object.
func printReport(w io.Writer, wl *workload, cfg runConfig, rep *report) error {
	defs := endToEnd
	values := rep.e2e
	if cfg.Traced {
		defs = perLayerDefs()
		values = rep.layer
		for _, l := range rep.layerTimes {
			where := "in op"
			if l.outside {
				where = "outside op"
			}
			fmt.Fprintf(w, "layer: %-22s self_ms_per_op=%.4f share=%.4f (%s)\n", l.name, l.selfMSPerOp, l.share, where)
		}
		fmt.Fprintf(w, "unattributed_frac: %.4f\n", rep.layer["unattributed_frac"])
		fmt.Fprintf(w, "tracing overhead: untraced_op_ms=%.4f traced_op_ms=%.4f overhead_frac=%.4f\n",
			rep.untracedOpMS, rep.tracedOpMS, rep.layer["trace.overhead_frac"])
	}
	fmt.Fprintf(w, "unscaled: setup_s=%.6g ops_per_s=%.6g op_ms_p50=%.6g op_ms_p90=%.6g ref_ms=%.6g (reference %.1f ms)\n",
		rep.raw["setup_s"], rep.raw["ops_per_s"], rep.raw["op_ms_p50"], rep.raw["op_ms_p90"], rep.raw["ref_ms"], refQuietMS)
	for _, f := range rep.failures {
		fmt.Fprintln(w, "check failed:", f)
	}
	res := result{
		Correct:   rep.attempted > 0 && rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	var missing []string
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		line := fmt.Sprintf("metric: %-26s %14.6g %-6s %s", d.Name, v, d.Unit, moves[d.Name])
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("workload %s did not produce metrics %v", wl.name, missing)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// errCheck marks a schedule that failed the benchmark's correctness checks.
var errCheck = errors.New("check failed")

// since returns milliseconds elapsed since t.
func since(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
