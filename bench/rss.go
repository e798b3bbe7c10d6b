package main

import (
	"bytes"
	"os"
	"strconv"
	"sync"
	"time"
)

// rssInterval is how often the resident set is sampled. The Go heap
// grows and shrinks in cycles of many milliseconds, so a peak lasts long
// enough to be seen.
const rssInterval = 5 * time.Millisecond

// rssSampler samples the process's resident set size from
// /proc/self/statm until stop is called. Getrusage's peak would also
// count the set-up, which holds inputs the timed operations never need.
type rssSampler struct {
	done    chan struct{}
	wg      sync.WaitGroup
	samples []float64 // MiB; written by the sampling goroutine until stop
}

// rssResult is the resident set the process stayed under for 99% of the
// samples, and how many samples there were.
type rssResult struct {
	p99     float64 // MiB
	samples int
}

func startRSS() *rssSampler {
	p := &rssSampler{done: make(chan struct{})}
	p.sample()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			select {
			case <-p.done:
				return
			case <-t.C:
				p.sample()
			}
		}
	}()
	return p
}

// sample reads the resident set; a read failure skips the sample.
func (p *rssSampler) sample() {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := bytes.Fields(data)
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return
	}
	p.samples = append(p.samples, float64(pages*int64(os.Getpagesize()))/(1<<20))
}

// stop ends the sampling, takes a last sample and returns the 99th
// percentile. On serve's small heap the maximum is set by spikes shorter
// than 100 ms, which reached from 18 to 32 MiB in different runs
// (README); the 99th percentile keeps the plateau a regression would
// raise and drops those spikes.
func (p *rssSampler) stop() rssResult {
	close(p.done)
	p.wg.Wait()
	p.sample()
	return rssResult{p99: percentile(p.samples, 99), samples: len(p.samples)}
}
