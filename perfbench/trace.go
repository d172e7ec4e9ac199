package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"himap"
	"himap/internal/diag"
)

// span is one recorded interval at a layer boundary. Spans of one
// compile or request share Trace; Parent is the ID of the span that
// caused this one (0 for a root).
type span struct {
	ID      int64             `json:"id"`
	Parent  int64             `json:"parent,omitempty"`
	Trace   int64             `json:"trace"`
	Name    string            `json:"name"`
	StartUS float64           `json:"start_us"` // since the recorder's epoch
	EndUS   float64           `json:"end_us"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// recorder keeps spans in memory and writes them out once, at the end of
// a run. A nil *recorder records nothing, so untraced runs pay one nil
// check per boundary.
type recorder struct {
	epoch time.Time

	mu     sync.Mutex
	nextID int64
	spans  []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newID returns a fresh span or trace identifier.
func (r *recorder) newID() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// add records a completed span with a preallocated id and returns it.
func (r *recorder) add(id, parent, trace int64, name string, start, end time.Time, attrs map[string]string) int64 {
	if r == nil {
		return 0
	}
	s := span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		StartUS: float64(start.Sub(r.epoch)) / 1e3,
		EndUS:   float64(end.Sub(r.epoch)) / 1e3,
		Attrs:   attrs,
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return id
}

// record is add with a fresh id.
func (r *recorder) record(parent, trace int64, name string, start, end time.Time, attrs map[string]string) int64 {
	return r.add(r.newID(), parent, trace, name, start, end, attrs)
}

// stageTracer adapts the pipeline's Options.Tracer stage spans into
// children of one CompileRequest span. The pipeline reports a stage when
// it ends, with its wall time, so the start is the emit time minus the
// wall.
func (r *recorder) stageTracer(parent, trace int64, sink func(himap.TraceSpan)) himap.Tracer {
	return diag.TracerFunc(func(s himap.TraceSpan) {
		end := time.Now()
		attrs := map[string]string{"attempt": fmt.Sprint(s.Attempt), "wave": fmt.Sprint(s.Wave)}
		if s.Err != "" {
			attrs["err"] = s.Err
		}
		r.record(parent, trace, "himap.stage."+s.Stage, end.Add(-s.Wall), end, attrs)
		sink(s)
	})
}

// write stores the spans as one JSON document under dir and returns its
// path.
func (r *recorder) write(dir, name string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	body, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, body, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
