package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"himap"
	"himap/internal/serve"
)

// TestOpenLoopChargesFromDueTime drives a stubbed server whose every
// compile takes stubDelay through one client worker. Three requests are
// due 10 ms apart, so the second and third wait for the worker: their
// latency must include that wait (it runs from the due time, not from
// the send), while the generator itself stays on time.
func TestOpenLoopChargesFromDueTime(t *testing.T) {
	const stubDelay = 60 * time.Millisecond
	req, err := point{Kernel: "ADI", Rows: 4, Cols: 4, Topo: "mesh"}.request()
	if err != nil {
		t.Fatal(err)
	}
	res, err := himap.CompileRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	core := serve.MustNew(serve.Config{})
	core.SetCompileFunc(func(ctx context.Context, _ himap.Request) (*himap.Result, error) {
		select {
		case <-time.After(stubDelay):
			return res, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	srv := httptest.NewServer(core.Handler())
	defer srv.Close()

	keys := []point{
		{Kernel: "ADI", Rows: 4, Cols: 4, Topo: "mesh"},
		{Kernel: "ATAX", Rows: 4, Cols: 4, Topo: "mesh"},
		{Kernel: "BICG", Rows: 4, Cols: 4, Topo: "mesh"},
	}
	var bodies [][]byte
	var plan []planned
	for i, p := range keys {
		b, err := p.wire()
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b)
		plan = append(plan, planned{Due: time.Duration(i) * 10 * time.Millisecond, Key: i, New: true})
	}
	client := &http.Client{Timeout: 10 * time.Second}
	got := openLoop(plan, bodies, []string{srv.URL}, 1, 1, nil, client, nil)

	for i, r := range got {
		if r.class != classMiss {
			t.Fatalf("request %d: outcome %s (status %d, err %v), want miss", i, r.class, r.status, r.err)
		}
		// Request i waits for the i requests before it, each stubDelay
		// long, and was due i×10 ms after the start.
		min := time.Duration(i+1)*stubDelay - plan[i].Due
		if r.latency < min {
			t.Errorf("request %d: latency %v, want at least %v (queueing behind the busy worker must count)", i, r.latency, min)
		}
		if r.late > 50*time.Millisecond {
			t.Errorf("request %d: generator %v late; the send schedule must not wait for replies", i, r.late)
		}
	}
}

// TestOpenLoopPauseNotCharged runs two segments with a long pause
// between them against a stubbed server that answers at once. The
// second segment's due times must count from its own start, so no
// request is charged the pause.
func TestOpenLoopPauseNotCharged(t *testing.T) {
	const pauseFor = 200 * time.Millisecond
	req, err := point{Kernel: "ADI", Rows: 4, Cols: 4, Topo: "mesh"}.request()
	if err != nil {
		t.Fatal(err)
	}
	res, err := himap.CompileRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	core := serve.MustNew(serve.Config{})
	core.SetCompileFunc(func(context.Context, himap.Request) (*himap.Result, error) { return res, nil })
	srv := httptest.NewServer(core.Handler())
	defer srv.Close()

	body, err := point{Kernel: "ADI", Rows: 4, Cols: 4, Topo: "mesh"}.wire()
	if err != nil {
		t.Fatal(err)
	}
	plan := make([]planned, 4)
	for i := range plan {
		plan[i] = planned{Due: time.Duration(i) * 5 * time.Millisecond}
	}
	pauses := 0
	client := &http.Client{Timeout: 10 * time.Second}
	got := openLoop(plan, [][]byte{body}, []string{srv.URL}, 2, 2, func() {
		pauses++
		time.Sleep(pauseFor)
	}, client, nil)

	if pauses != 2 {
		t.Errorf("pause ran %d times, want once after each of the 2 segments", pauses)
	}
	for i, r := range got {
		if !r.class.succeeded() {
			t.Fatalf("request %d: outcome %s (status %d, err %v)", i, r.class, r.status, r.err)
		}
		if r.latency >= pauseFor {
			t.Errorf("request %d: latency %v includes the %v pause", i, r.latency, pauseFor)
		}
	}
}
