package runner

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPoolRunsTasks: submitted tasks execute and deliver results through
// the done callback.
func TestPoolRunsTasks(t *testing.T) {
	p := NewPool(2, 4, 0)
	var mu sync.Mutex
	got := map[string]string{}
	var wg sync.WaitGroup
	for _, name := range []string{"a", "b", "c"} {
		name := name
		wg.Add(1)
		ok := p.TrySubmit(Task{Name: name, Run: func() string {
			return "out-" + name
		}}, func(r Result) {
			mu.Lock()
			got[r.Name] = r.Output
			mu.Unlock()
			wg.Done()
		})
		if !ok {
			t.Fatalf("submit %s refused", name)
		}
	}
	wg.Wait()
	p.Close()
	for _, name := range []string{"a", "b", "c"} {
		if got[name] != "out-"+name {
			t.Errorf("task %s output %q", name, got[name])
		}
	}
}

// TestPoolPanicIsolation: a panicking task fails only itself; the pool
// keeps serving.
func TestPoolPanicIsolation(t *testing.T) {
	p := NewPool(1, 2, 0)
	defer p.Close()
	results := make(chan Result, 2)
	p.TrySubmit(Task{Name: "boom", Run: func() string {
		panic("kaboom")
	}}, func(r Result) { results <- r })
	p.TrySubmit(Task{Name: "fine", Run: func() string {
		return "ok"
	}}, func(r Result) { results <- r })

	byName := map[string]Result{}
	for i := 0; i < 2; i++ {
		r := <-results
		byName[r.Name] = r
	}
	if r := byName["boom"]; r.Err == nil || !strings.Contains(r.Err.Error(), "kaboom") {
		t.Errorf("panicking task result: %+v", r)
	}
	if r := byName["fine"]; r.Err != nil || r.Output != "ok" {
		t.Errorf("task after panic: %+v", r)
	}
}

// TestPoolBackpressure: with the single worker blocked and the one queue
// slot filled, further submissions are refused, then accepted again after
// the drain.
func TestPoolBackpressure(t *testing.T) {
	gate := make(chan struct{})
	p := NewPool(1, 1, 0)
	running := make(chan struct{})
	done := make(chan Result, 2)
	blockTask := func(name string) Task {
		return Task{Name: name, Run: func() string {
			if name == "first" {
				close(running)
			}
			<-gate
			return name
		}}
	}
	if !p.TrySubmit(blockTask("first"), func(r Result) { done <- r }) {
		t.Fatal("first submit refused")
	}
	<-running // worker occupied, queue empty
	if !p.TrySubmit(blockTask("second"), func(r Result) { done <- r }) {
		t.Fatal("second submit refused with an empty queue slot")
	}
	if p.TrySubmit(blockTask("third"), nil) {
		t.Fatal("third submit accepted with a full queue")
	}
	close(gate)
	<-done
	<-done
	if !p.TrySubmit(Task{Name: "after", Run: func() string { return "" }}, nil) {
		t.Error("submit after drain refused")
	}
	p.Close()
}

// TestPoolTimeout: a task exceeding the pool timeout is abandoned and
// reported with ErrTimeout.
func TestPoolTimeout(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	p := NewPool(1, 1, 10*time.Millisecond)
	defer p.Close()
	done := make(chan Result, 1)
	p.TrySubmit(Task{Name: "hang", Run: func() string {
		<-gate
		return ""
	}}, func(r Result) { done <- r })
	r := <-done
	if !errors.Is(r.Err, ErrTimeout) {
		t.Errorf("hung task err = %v, want ErrTimeout", r.Err)
	}
}

// TestPoolClose: Close drains queued work, waits for it, and refuses
// later submissions.
func TestPoolClose(t *testing.T) {
	p := NewPool(1, 4, 0)
	var ran int
	var mu sync.Mutex
	for i := 0; i < 3; i++ {
		p.TrySubmit(Task{Name: "t", Run: func() string {
			mu.Lock()
			ran++
			mu.Unlock()
			return ""
		}}, nil)
	}
	p.Close()
	mu.Lock()
	if ran != 3 {
		t.Errorf("%d tasks ran before Close returned, want 3", ran)
	}
	mu.Unlock()
	if p.TrySubmit(Task{Name: "late", Run: func() string { return "" }}, nil) {
		t.Error("submit after Close accepted")
	}
	p.Close() // idempotent
}
