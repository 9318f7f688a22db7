// Package pool provides the repository's one fixed worker-pool
// implementation, used for cell-level parallelism: experiments.Runner's
// prefetch and the benchmark harness's traced sweep (bench/trace.go) run
// whole simulations on it, one cell per task. A Pool owns a fixed set of
// long-lived worker goroutines and executes batches of tasks with
// fork/join semantics: Run returns only after every task has completed,
// and the channel handoffs give the caller the happens-before edges it
// needs to read the tasks' results without further synchronization.
//
// The steady-state Run path performs no allocations — workers are
// spawned once at construction, the wake/join channels are buffered, and
// task dispatch is a single atomic counter. Determinism is the caller's
// problem by construction: the pool promises only that every task runs
// exactly once between fork and join, so callers must make their results
// independent of which worker runs which task.
package pool

import "sync/atomic"

// Pool is a fixed set of reusable worker goroutines. The zero value is
// not usable; construct with New. A Pool is not safe for concurrent Run
// calls — it serves one coordinator at a time, which is all the fork/join
// model needs.
type Pool struct {
	tasks []func()
	// tagged is the RunTagged batch; at most one of tasks/tagged is
	// non-nil during a batch.
	tagged []func(worker int)
	next   atomic.Int64
	// wake and join are buffered to the worker count so the coordinator
	// never blocks handing out a batch; quit ends the workers at Close.
	wake chan struct{}
	join chan struct{}
	quit chan struct{}
	// workers is the number of spawned goroutines: parallelism-1, because
	// the coordinator calling Run participates in draining the batch.
	workers int
}

// New builds a pool with the given total parallelism (the coordinator
// counts as one, so parallelism-1 goroutines are spawned; parallelism <= 1
// spawns none and Run degenerates to inline sequential execution).
func New(parallelism int) *Pool {
	workers := parallelism - 1
	if workers < 0 {
		workers = 0
	}
	p := &Pool{
		wake:    make(chan struct{}, workers),
		join:    make(chan struct{}, workers),
		quit:    make(chan struct{}),
		workers: workers,
	}
	for i := 0; i < workers; i++ {
		go p.worker(i + 1) //shm:parallel-ok — fixed pool worker; every batch joins before Run returns
	}
	return p
}

func (p *Pool) worker(id int) {
	for {
		select {
		case <-p.wake:
			p.drain(id)
			p.join <- struct{}{}
		case <-p.quit:
			return
		}
	}
}

// drain claims and executes tasks until the batch is exhausted. id is the
// draining worker's slot (0 = the coordinator) and is handed to tagged
// tasks.
func (p *Pool) drain(id int) {
	for {
		i := int(p.next.Add(1)) - 1
		if p.tagged != nil {
			if i >= len(p.tagged) {
				return
			}
			p.tagged[i](id)
			continue
		}
		if i >= len(p.tasks) {
			return
		}
		p.tasks[i]()
	}
}

// Run executes every task in the batch and returns once all have
// completed. Tasks may run on any worker (including the caller); batches
// larger than the parallelism are drained work-stealing style through the
// shared atomic cursor.
func (p *Pool) Run(tasks []func()) {
	p.tasks = tasks
	p.batch()
	p.tasks = nil
}

// RunTagged is Run for tasks that want the identity of the worker slot
// executing them (0 = the coordinator, 1..N-1 the pool goroutines).
// Runner.prefetch threads the slot into cell spans so span traces show
// which worker ran which cell.
func (p *Pool) RunTagged(tasks []func(worker int)) {
	p.tagged = tasks
	p.batch()
	p.tagged = nil
}

// batch runs the installed batch: it wakes the workers, drains alongside
// them and waits for every one to finish.
func (p *Pool) batch() {
	p.next.Store(0)
	for i := 0; i < p.workers; i++ {
		p.wake <- struct{}{}
	}
	p.drain(0)
	for i := 0; i < p.workers; i++ {
		<-p.join
	}
}

// Parallelism returns the pool's total parallelism (workers + caller).
func (p *Pool) Parallelism() int { return p.workers + 1 }

// Close terminates the worker goroutines. The pool must be idle (no Run
// in flight); Run must not be called after Close.
func (p *Pool) Close() { close(p.quit) }
