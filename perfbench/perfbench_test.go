package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/online"
	"resched/internal/taskgraph"
)

// runSmoke runs one workload in smoke mode and returns its printed lines,
// the decoded result and the directory holding its span dump.
func runSmoke(t *testing.T, name string, seed int64, trace int) ([]string, result, string) {
	t.Helper()
	var out bytes.Buffer
	dir := t.TempDir()
	args := []string{"--workload", name, "--seed", strconv.FormatInt(seed, 10), "--seconds", "1",
		"--trace", strconv.Itoa(trace), "--smoke", "--out", dir}
	if err := run(args, &out); err != nil {
		t.Fatalf("%s trace=%d: %v\n%s", name, trace, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", name, err, lines[len(lines)-1])
	}
	return lines, res, dir
}

// TestSmoke runs every workload untraced and traced and checks that every
// named metric prints with its unit and that, with no faults armed, every
// op passes its checks.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayerDefs()} {
			lines, res, dir := runSmoke(t, w.name, 3, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d\n%s",
					w.name, trace, res.Correct, res.Attempted, res.Failed, strings.Join(lines, "\n"))
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			text := strings.Join(lines, "\n")
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w.name, trace, d.Name, m, d.Unit)
				}
				if !strings.Contains(text, "metric: "+d.Name+" ") {
					t.Errorf("%s trace=%d: metric %s not printed by name", w.name, trace, d.Name)
				}
			}
			if trace == 0 {
				if v := res.Metrics["ok_frac"].Value; v != 1 {
					t.Errorf("%s: ok_frac = %v, want 1", w.name, v)
				}
				continue
			}
			for _, want := range []string{"layer: ", "unattributed_frac: ", "tracing overhead: "} {
				if !strings.Contains(text, want) {
					t.Errorf("%s traced: no %q line", w.name, want)
				}
			}
			if w.name != "serve-par" {
				checkPairedSpans(t, w.name, dir, res)
			}
		}
	}
}

// checkPairedSpans checks that in a traced run of a workload that runs every
// input untraced and traced, only the traced half records op spans: the
// tracing overhead then compares traced with untraced code.
func checkPairedSpans(t *testing.T, name, dir string, res result) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "spans-"+name+"-seed3.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	ops := 0
	for _, s := range spans {
		if s.Name == opSpan && s.Parent < 0 {
			ops++
		}
	}
	if 2*ops != res.Attempted {
		t.Errorf("%s traced: %d op spans for %d ops, want one per traced op (half)", name, ops, res.Attempted)
	}
}

// TestDeterminism checks that the quality metrics repeat exactly for a
// seed, and on the solver workloads equal direct solver calls on the same
// inputs.
func TestDeterminism(t *testing.T) {
	const seed = 5
	direct := map[string]float64{
		"table1-pa":    directTable1(t, seed, []int{10, 20, 30}, 2, solvePA),
		"table1-isk":   directTable1(t, seed, []int{20}, 2, solveIS5),
		"online-trace": directOnline(t, seed),
	}
	for _, name := range []string{"table1-pa", "table1-isk", "online-trace", "serve-par"} {
		_, a, _ := runSmoke(t, name, seed, 0)
		_, b, _ := runSmoke(t, name, seed, 0)
		for _, m := range []string{"makespan_mean", "region_frac_mean"} {
			if a.Metrics[m].Value != b.Metrics[m].Value {
				t.Errorf("%s: %s differs across runs of one seed: %v vs %v", name, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
		}
		if want, ok := direct[name]; ok && a.Metrics["makespan_mean"].Value != want {
			t.Errorf("%s: makespan_mean %v, direct solver calls give %v", name, a.Metrics["makespan_mean"].Value, want)
		}
	}
}

// directTable1 is the mean makespan of direct solver calls on the smoke
// inputs of a table1 workload.
func directTable1(t *testing.T, seed int64, groups []int, perGroup int, solve func(*taskgraph.Graph, *arch.Architecture) solverOp) float64 {
	t.Helper()
	graphs, err := suiteGraphs(seed, groups, 1, perGroup)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, g := range graphs {
		r := solve(g, arch.ZedBoard())
		if r.err != nil {
			t.Fatal(r.err)
		}
		sum += float64(r.s.Makespan)
	}
	return sum / float64(len(graphs))
}

// directOnline is the mean stitched makespan of the smoke traces of
// online-trace, each submitted whole and run by one engine.
func directOnline(t *testing.T, seed int64) float64 {
	t.Helper()
	var sum float64
	for i := 0; i < 2; i++ {
		tr, err := online.GenTrace(online.TraceConfig{Jobs: 4, TasksPerJob: 6, Seed: seed*100_000 + int64(i), MeanGap: 800, CommMax: 30})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := online.New(online.Config{Arch: arch.ZedBoard(), Solver: "pa", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.SubmitTrace(tr); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		sum += float64(res.Schedule.Makespan)
	}
	return sum / 2
}

// TestSuiteGraphs checks that the workload inputs are the paper's suite
// graphs: suite 0 of a seed is benchgen.Suite(seed*100000).
func TestSuiteGraphs(t *testing.T) {
	got, err := suiteGraphs(2, []int{10, 40}, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := benchgen.Suite(200_000)
	if err != nil {
		t.Fatal(err)
	}
	k := 0
	for _, e := range suite {
		if e.Group != 10 && e.Group != 40 {
			continue
		}
		a, _ := json.Marshal(got[k])
		b, _ := json.Marshal(e.Graph)
		if !bytes.Equal(a, b) {
			t.Fatalf("graph %d (group %d index %d) differs from the suite's", k, e.Group, e.Index)
		}
		k++
	}
}

// TestManifest checks that BENCHMARK.json is what --manifest prints.
func TestManifest(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"--manifest"}, &out); err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), committed) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with: go run . --manifest > ../BENCHMARK.json")
	}
}
