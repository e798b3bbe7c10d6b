package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is the error Run returns when a job panics: the pool
// recovers the panic on the worker goroutine — so one pathological job
// cannot tear down the whole process with a stack it does not own — and
// reports it like any other job failure, carrying the job index, the
// recovered value and the worker's stack at the point of the panic.
type PanicError struct {
	Index int    // the job index i passed to fn
	Value any    // the recovered panic value
	Stack []byte // debug.Stack() captured inside the recovering frame
}

// Error implements error. The stack is not included — it is diagnostic
// payload for callers that choose to log it.
func (e *PanicError) Error() string {
	return fmt.Sprintf("pool: job %d panicked: %v", e.Index, e.Value)
}

// call invokes fn(i), converting a panic into a *PanicError. It sets
// failed as soon as the panic is recovered, before the stack capture, so
// the other workers stop taking jobs while the error is built.
func call(i int, fn func(i int) error, failed *atomic.Bool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			failed.Store(true)
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// Run evaluates fn(i) for every i in [0, n) on up to parallelism
// concurrent workers and waits for them. parallelism <= 0 selects
// GOMAXPROCS; parallelism == 1 runs inline with no goroutines. The first
// error stops the pool (preferring the lowest-index error when several
// jobs fail together), as does context cancellation; fn is never called
// after either. A panicking job does not crash the pool: the panic is
// recovered into a *PanicError and treated as that job's failure. fn
// must be safe for concurrent invocation with distinct i.
func Run(ctx context.Context, parallelism, n int, fn func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return ctx.Err()
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	var failed atomic.Bool
	if parallelism == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := call(i, fn, &failed); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next   atomic.Int64
		mu     sync.Mutex
		errIdx = n
		first  error
	)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if failed.Load() || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := call(i, fn, &failed); err != nil {
					mu.Lock()
					if i < errIdx {
						errIdx, first = i, err
					}
					mu.Unlock()
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if first != nil {
		return first
	}
	return ctx.Err()
}
