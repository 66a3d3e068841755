package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"runtime/pprof"
	"time"
)

// span is one timed call into a layer, recorded by the traced pass.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the pass itself
	Run    int    `json:"run"`    // index of the scenario run, -1 outside runs
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the pass started
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced pass's spans in memory and sets the pprof
// labels workload and phase around each call, so the profile it writes
// can be filtered with `go tool pprof -tagfocus phase=loop`.
type tracer struct {
	t0    time.Time
	ctx   context.Context
	spans []span
	open  []int
}

func newTracer(workload string) *tracer {
	return &tracer{
		t0:  time.Now(),
		ctx: pprof.WithLabels(context.Background(), pprof.Labels("workload", workload)),
	}
}

// do runs fn inside a span named name, nested under the innermost open
// span. The span closes even when fn panics.
func (t *tracer) do(name string, run int, fn func()) {
	id, parent := len(t.spans), -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: run, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	outer := t.ctx
	defer func() {
		t.ctx = outer
		t.open = t.open[:len(t.open)-1]
		t.spans[id].End = time.Since(t.t0).Nanoseconds()
	}()
	pprof.Do(outer, pprof.Labels("phase", name), func(ctx context.Context) {
		t.ctx = ctx
		fn()
	})
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
