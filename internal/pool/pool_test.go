package pool

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestRunVisitsEveryIndexOnce(t *testing.T) {
	for _, par := range []int{0, 1, 2, 8, 100} {
		const n = 64
		var counts [n]atomic.Int32
		err := Run(context.Background(), par, n, func(i int) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("parallelism %d: index %d ran %d times", par, i, got)
			}
		}
	}
}

func TestRunEmpty(t *testing.T) {
	if err := Run(context.Background(), 4, 0, func(int) error {
		t.Error("fn called for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	err := Run(context.Background(), 4, 1000, func(i int) error {
		ran.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if ran.Load() == 1000 {
		t.Error("error did not stop the pool early")
	}
}

func TestRunSequentialErrorIsFirst(t *testing.T) {
	first := errors.New("first")
	err := Run(context.Background(), 1, 10, func(i int) error {
		if i >= 2 {
			return errors.New("later")
		}
		if i == 1 {
			return first
		}
		return nil
	})
	if !errors.Is(err, first) {
		t.Fatalf("err = %v, want the lowest-index error", err)
	}
}

func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := Run(ctx, 4, 100, func(int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunNilContext(t *testing.T) {
	var ran atomic.Int32
	if err := Run(nil, 2, 10, func(int) error { //nolint:staticcheck // deliberate nil ctx
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 10 {
		t.Errorf("ran %d of 10", ran.Load())
	}
}

func TestRunRecoversPanic(t *testing.T) {
	for _, par := range []int{1, 8} {
		// In parallel, the eight workers take jobs 0-7. Job 5 panics once
		// the other seven are running, and they hold their workers until
		// job 5's worker has exited, by which time the pool has recorded
		// the failure. Without that hold, the other workers could finish
		// all 64 trivial jobs while the panic is still being recovered.
		// Sequentially, no job waits.
		base := runtime.NumGoroutine()
		var ran, running atomic.Int32
		err := Run(context.Background(), par, 64, func(i int) error {
			ran.Add(1)
			if i == 5 {
				for running.Load() < int32(par-1) {
					runtime.Gosched()
				}
				panic("kaboom")
			}
			if par > 1 {
				running.Add(1)
				for running.Load() < int32(par-1) || runtime.NumGoroutine() >= base+par {
					runtime.Gosched()
				}
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("parallelism %d: err = %v, want *PanicError", par, err)
		}
		if pe.Index != 5 {
			t.Errorf("parallelism %d: panic index = %d, want 5", par, pe.Index)
		}
		if pe.Value != "kaboom" {
			t.Errorf("parallelism %d: panic value = %v, want kaboom", par, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("parallelism %d: panic stack not captured", par)
		}
		if ran.Load() == 64 {
			t.Errorf("parallelism %d: panic did not stop the pool early", par)
		}
	}
}

func TestRunPanicPrefersLowestIndex(t *testing.T) {
	// Sequentially the first panicking index must win deterministically.
	err := Run(context.Background(), 1, 16, func(i int) error {
		if i >= 3 {
			panic(i)
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Index != 3 {
		t.Errorf("panic index = %d, want 3", pe.Index)
	}
}

func TestRunPanicAtParallelismReportsAPanic(t *testing.T) {
	// Every job panics: whatever the scheduling, the pool must surface
	// one of the panics as a *PanicError, never crash the process.
	err := Run(context.Background(), 8, 32, func(i int) error {
		panic(i)
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
}
