// Package runner executes independent simulation runs in parallel. It is
// the batch layer behind `prioplus-sim all`: a worker pool fans tasks —
// one per (experiment, seed) pair — across GOMAXPROCS goroutines.
//
// Parallelism is safe because of the simulator's engine-per-run design:
// every task builds its own sim.Engine, topo.Network, and random sources
// from its seed, so tasks share no mutable state and the hot path needs no
// locking. The pool guarantees:
//
//   - Deterministic results: Run returns results indexed by task position,
//     and each task's output depends only on its own inputs, so the result
//     slice is byte-identical whatever the worker count.
//   - Panic isolation: a panicking task fails only its own result (the
//     panic value and stack land in Result.Err); the rest of the batch
//     completes.
//   - Per-run timeouts: a task that exceeds Options.Timeout is abandoned
//     and reported as timed out. Simulation runs are uninterruptible
//     CPU-bound loops, so the abandoned goroutine finishes (or the process
//     exits) on its own; the worker moves on either way.
package runner

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Task is one independent unit of work: typically one experiment at one
// seed. Run must be self-contained — it builds its own engine and
// randomness and touches no shared state — or batch determinism is lost.
type Task struct {
	// Name identifies the task in results and error messages
	// (e.g. "fig11/seed=3").
	Name string
	// Run executes the task, returning its rendered output.
	Run func() string
}

// Result is the outcome of one task. Exactly one of Output or Err is
// meaningful: Err is non-nil if the task panicked or timed out.
type Result struct {
	// Name and Index echo the task's identity and position in the batch.
	Name  string
	Index int
	// Output is the task's rendered text (empty on failure).
	Output string
	// Err is non-nil if the task panicked (wrapping the panic value and
	// stack) or timed out (wrapping ErrTimeout).
	Err error
	// Wall is the task's wall-clock duration; for a timed-out task it is
	// the timeout.
	Wall time.Duration
}

// ErrTimeout is wrapped by Result.Err when a run exceeds the pool timeout.
var ErrTimeout = errors.New("run exceeded timeout")

// Options configures a batch.
type Options struct {
	// Workers is the number of concurrent runs; <= 0 means GOMAXPROCS.
	// Workers == 1 executes the batch serially in submission order.
	Workers int
	// Timeout bounds each run's wall-clock time; 0 means no limit.
	Timeout time.Duration
	// OnResult, when non-nil, is called as each task completes (in
	// completion order, not task order — use Result.Index to locate the
	// task). Calls are serialized under an internal mutex, so the callback
	// may touch shared state (a progress line, a log) without locking.
	// It must be fast: it runs on the worker goroutine.
	OnResult func(Result)
}

// Run executes every task and returns one Result per task, in task order,
// regardless of worker count or completion order. It is a Pool sized to
// the batch: every task fits the queue, and Close waits for the last one.
func Run(tasks []Task, opt Options) []Result {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := NewPool(min(workers, len(tasks)), len(tasks), opt.Timeout)
	results := make([]Result, len(tasks))
	var mu sync.Mutex // serializes OnResult
	for i, t := range tasks {
		p.TrySubmit(t, func(r Result) {
			r.Index = i
			results[i] = r
			if opt.OnResult != nil {
				mu.Lock()
				opt.OnResult(r)
				mu.Unlock()
			}
		})
	}
	p.Close()
	return results
}

// execute runs one task with panic capture and an optional deadline. The
// task body runs in its own goroutine so a hung run can be abandoned; the
// done channel is buffered so an abandoned run's final send never blocks.
func execute(t Task, timeout time.Duration) Result {
	start := time.Now()
	done := make(chan Result, 1)
	go func() {
		res := Result{Name: t.Name}
		defer func() {
			if r := recover(); r != nil {
				res.Err = fmt.Errorf("run %q panicked: %v", t.Name, r)
			}
			res.Wall = time.Since(start)
			done <- res
		}()
		res.Output = t.Run()
	}()
	if timeout <= 0 {
		return <-done
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res := <-done:
		return res
	case <-timer.C:
		return Result{
			Name: t.Name,
			Err:  fmt.Errorf("run %q: %w after %v", t.Name, ErrTimeout, timeout),
			Wall: timeout,
		}
	}
}
