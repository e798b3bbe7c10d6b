package trace

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"dmmkit/internal/heap"
	"dmmkit/internal/mm"
)

// writeSampleFile encodes sampleTrace to a DMMT2 file and returns its
// path and encoded bytes.
func writeSampleFile(t *testing.T) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := sampleTrace().EncodeBinary2(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sample.dmmt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, buf.Bytes()
}

// countingHandles is the counting opener of the leak tests: it tracks
// how many handles were opened and how many remain unclosed.
type countingHandles struct {
	opened int
	closed int
}

func (c *countingHandles) open(path string) (io.ReadCloser, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	c.opened++
	return &countedHandle{ReadCloser: fh, c: c}, nil
}

func (c *countingHandles) leaked() int { return c.opened - c.closed }

type countedHandle struct {
	io.ReadCloser
	c      *countingHandles
	closed bool
}

func (h *countedHandle) Close() error {
	if !h.closed {
		h.closed = true
		h.c.closed++
	}
	return h.ReadCloser.Close()
}

// TestFileHandleLifecycle proves no pass handle leaks, whatever path the
// pass takes: exhaustion, mid-stream decode error, replay abort, early
// Close, and double Close.
func TestFileHandleLifecycle(t *testing.T) {
	path, raw := writeSampleFile(t)
	counts := &countingHandles{}
	f, err := OpenFileWith(path, FileOpts{Open: counts.open})
	if err != nil {
		t.Fatal(err)
	}
	if counts.leaked() != 0 {
		t.Fatalf("probe leaked %d handles", counts.leaked())
	}

	t.Run("exhaustion", func(t *testing.T) {
		src, err := f.Open()
		if err != nil {
			t.Fatal(err)
		}
		for {
			_, ok, err := src.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
		if counts.leaked() != 0 {
			t.Fatalf("exhausted pass leaked %d handles", counts.leaked())
		}
	})

	t.Run("early-close-idempotent", func(t *testing.T) {
		src, err := f.Open()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := src.Next(); err != nil || !ok {
			t.Fatalf("Next = %v, %v", ok, err)
		}
		for i := 0; i < 3; i++ { // double (triple) Close must be safe
			if err := Close(src); err != nil {
				t.Fatalf("Close #%d: %v", i+1, err)
			}
		}
		if counts.leaked() != 0 {
			t.Fatalf("closed pass leaked %d handles", counts.leaked())
		}
		// A closed source stays terminated.
		if _, ok, err := src.Next(); ok || err != nil {
			t.Fatalf("Next after Close = %v, %v; want exhausted, nil", ok, err)
		}
	})

	t.Run("mid-pass-decode-error", func(t *testing.T) {
		// Corrupt a kind byte in the middle of a copy of the file so the
		// pass dies partway through decoding.
		bad := append([]byte(nil), raw...)
		bad[len(bad)/2] = 0x77
		badPath := filepath.Join(t.TempDir(), "bad.dmmt")
		if err := os.WriteFile(badPath, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		badCounts := &countingHandles{}
		bf, err := OpenFileWith(badPath, FileOpts{Open: badCounts.open})
		if err != nil {
			t.Fatal(err) // header is intact; the probe succeeds
		}
		src, err := bf.Open()
		if err != nil {
			t.Fatal(err)
		}
		sawErr := false
		for {
			_, ok, err := src.Next()
			if err != nil {
				sawErr = true
				break
			}
			if !ok {
				break
			}
		}
		if !sawErr {
			t.Fatal("corrupt stream decoded without error")
		}
		if badCounts.leaked() != 0 {
			t.Fatalf("failed pass leaked %d handles", badCounts.leaked())
		}
		// The error is latched and Close after the failure is still safe.
		if _, _, err := src.Next(); err == nil {
			t.Fatal("latched error cleared")
		}
		if err := Close(src); err != nil {
			t.Fatalf("Close after decode error: %v", err)
		}
	})

	t.Run("replay-abort", func(t *testing.T) {
		// A cancelled replay abandons the source mid-pass; RunSource's
		// deferred Close must release the handle anyway.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		src, err := f.Open()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunSource(ctx, newLeakTestManager(), src, RunOpts{}); err == nil {
			t.Fatal("cancelled replay succeeded")
		}
		if counts.leaked() != 0 {
			t.Fatalf("aborted replay leaked %d handles", counts.leaked())
		}
	})
}

// leakTestManager is a trivial bump allocator for lifecycle tests that
// never fails (so replay outcomes depend only on the stream).
type leakTestManager struct {
	next heap.Addr
	live map[heap.Addr]int64
	cur  int64
	max  int64
}

func newLeakTestManager() *leakTestManager {
	return &leakTestManager{next: 16, live: map[heap.Addr]int64{}}
}

func (m *leakTestManager) Name() string { return "leaktest" }

func (m *leakTestManager) Alloc(r mm.Request) (heap.Addr, error) {
	p := m.next
	m.next += heap.Addr(r.Size)
	m.live[p] = r.Size
	m.cur += r.Size
	if m.cur > m.max {
		m.max = m.cur
	}
	return p, nil
}

func (m *leakTestManager) Free(p heap.Addr) error {
	size, ok := m.live[p]
	if !ok {
		return fmt.Errorf("leaktest: free of unknown %v", p)
	}
	delete(m.live, p)
	m.cur -= size
	return nil
}

func (m *leakTestManager) Footprint() int64    { return m.cur }
func (m *leakTestManager) MaxFootprint() int64 { return m.max }
func (m *leakTestManager) Stats() mm.Stats     { return mm.Stats{LiveBytes: m.cur, MaxLive: m.max} }
