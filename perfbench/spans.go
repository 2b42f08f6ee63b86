package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one interval of the traced run. The benchmark records spans only
// around its own calls into the program (the program itself is never
// traced). A derived span carries a duration the program reports about
// itself (Stats.FloorplanTime, a response's scheduling_us, …), laid out
// back to back from its parent's start.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"` // index into the span list, -1 for a root
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"`
}

// opSpan is the root span name of one op; root spans with other names are
// calls the benchmark makes outside the op (checks, out-of-band probes).
const opSpan = "op"

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	cursor map[int]int64 // parent -> end of its last derived child
	ops    int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), cursor: map[int]int64{}}
}

// newOp allocates an op id.
func (t *tracer) newOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops - 1
}

// start opens a span and returns its id.
func (t *tracer) start(name string, op, parent int) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, StartNS: now, EndNS: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndNS = now
}

// call records f as a span.
func (t *tracer) call(name string, op, parent int, f func()) {
	id := t.start(name, op, parent)
	f()
	t.end(id)
}

// derived records a program-reported duration d as a child of the closed
// span parent.
func (t *tracer) derived(name string, parent int, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	start, ok := t.cursor[parent]
	if !ok {
		start = p.StartNS
	}
	end := start + d.Nanoseconds()
	if end > p.EndNS {
		end = p.EndNS
	}
	t.cursor[parent] = end
	t.spans = append(t.spans, span{Name: name, Op: p.Op, Parent: parent, StartNS: start, EndNS: end, Derived: true})
}

// layerTime is one layer's self time.
type layerTime struct {
	name        string
	selfMSPerOp float64
	// share is the layer's self time over the total op time; calls made
	// outside the op (outside) report their cost on the same base.
	share   float64
	outside bool
}

// layers computes every span name's self time (duration minus the
// durations of its children) per op and as a share of total op time, and
// the unattributed fraction: the op roots' own self time over op time.
func (t *tracer) layers() ([]layerTime, float64) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	self := map[string]int64{}
	outside := map[string]bool{}
	var opTotal, opSelf int64
	ops := map[int]bool{}
	for i, s := range t.spans {
		d := s.EndNS - s.StartNS
		sf := d - child[i]
		if sf < 0 {
			sf = 0
		}
		if s.Name == opSpan && s.Parent < 0 {
			opTotal += d
			opSelf += sf
			ops[s.Op] = true
			continue
		}
		self[s.Name] += sf
		if s.Parent < 0 {
			outside[s.Name] = true
		}
	}
	if opTotal == 0 || len(ops) == 0 {
		return nil, 0
	}
	var out []layerTime
	for name, sf := range self {
		out = append(out, layerTime{
			name:        name,
			selfMSPerOp: float64(sf) / 1e6 / float64(len(ops)),
			share:       float64(sf) / float64(opTotal),
			outside:     outside[name],
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, float64(opSelf) / float64(opTotal)
}

// writeSpans dumps the traced run's spans as JSON under dir.
func writeSpans(dir, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
