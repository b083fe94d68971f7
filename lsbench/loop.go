package main

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// windowCount is how many equal slices a closed-loop phase is cut into,
// each with its own steal reading. At 0.1 s for a 20 s run they are short
// enough for steal to vary between them, and long enough to hold hundreds
// of requests each.
const windowCount = 200

// runClients runs one goroutine per client, each repeating whole rounds
// until dur has elapsed (one round when dur is 0). Every completed
// operation is filed, by its completion time, into one of windowCount
// slices of dur; operations completing after dur (a loop finishing its
// round) fall in none. The phase's rate and median latency are their
// values at zero steal over the slices (see atZeroSteal); its p90 and p99
// come from all the slices' latencies together, since one slice holds too
// few requests for a tail.
//
// Latencies go to fixed histograms allocated before the loop starts, so the
// benchmark's own live heap stays constant while it measures. Keeping every
// sample instead grew it by megabytes over a run, which stretched the
// program's GC cycle and moved its request latency by a third within one
// run; a constant 3 MiB of histograms still moved tls-static's median
// latency by a quarter, so they are kept small (about 0.7 MiB).
func runClients(n int, dur time.Duration, round func(w int, rec func(lat time.Duration))) *phase {
	width := dur / windowCount
	hists := make([]latHist, windowCount)
	steal := make([]float64, windowCount)
	var wg sync.WaitGroup
	t0 := time.Now()
	if dur > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := newStealMeter()
			for k := range steal {
				time.Sleep(time.Until(t0.Add(width * time.Duration(k+1))))
				steal[k] = m.next()
			}
		}()
	}
	rec := func(lat time.Duration) {
		if width <= 0 {
			return
		}
		if k := int(time.Since(t0) / width); k < windowCount {
			hists[k].add(lat)
		}
	}
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				round(w, rec)
				if time.Since(t0) >= dur {
					return
				}
			}
		}(w)
	}
	wg.Wait()

	ph := &phase{}
	var all latHist
	var st, rates, p50s []float64
	for k := range hists {
		h := &hists[k]
		c := h.total()
		if c == 0 {
			continue
		}
		ph.ops += c
		all.merge(h)
		st = append(st, steal[k])
		rates = append(rates, float64(c)/width.Seconds())
		p50s = append(p50s, ms(h.quantile(0.5)))
	}
	ph.reqs = ph.ops
	ph.windows = len(st)
	ph.rate, ph.p50 = atZeroSteal(st, rates), atZeroSteal(st, p50s)
	ph.p90, ph.p99 = ms(all.quantile(0.90)), ms(all.quantile(0.99))
	return ph
}

// latHist is a log-linear latency histogram in nanoseconds: exact below
// 32 ns, then 32 buckets per power of two (at most 3.1% wide; quantiles
// are placed linearly within a bucket), up to 2^32 ns (4.3 s). It is safe
// for concurrent add.
type latHist struct {
	counts [histBuckets]atomic.Uint32
}

const (
	histSub     = 32
	histShift   = 5 // log2(histSub)
	histMaxExp  = 32
	histBuckets = histSub + (histMaxExp-histShift)*histSub
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	if e >= histMaxExp {
		return histBuckets - 1
	}
	sub := int(v>>(e-histShift)) & (histSub - 1)
	return histSub + (e-histShift)*histSub + sub
}

// histBounds returns bucket i's lower bound and width.
func histBounds(i int) (lower, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	e := (i-histSub)/histSub + histShift
	sub := (i - histSub) % histSub
	w := float64(int64(1) << (e - histShift))
	return float64(histSub+sub) * w, w
}

func (h *latHist) add(d time.Duration) { h.counts[histIndex(int64(d))].Add(1) }

// merge adds o's counts to h.
func (h *latHist) merge(o *latHist) {
	for i := range h.counts {
		h.counts[i].Add(o.counts[i].Load())
	}
}

func (h *latHist) total() int {
	n := 0
	for i := range h.counts {
		n += int(h.counts[i].Load())
	}
	return n
}

// quantile returns the q-quantile by nearest rank, placed linearly within
// its bucket.
func (h *latHist) quantile(q float64) time.Duration {
	n := h.total()
	if n == 0 {
		return 0
	}
	rank := int(q*float64(n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	seen := 0
	for i := range h.counts {
		c := int(h.counts[i].Load())
		if c == 0 || seen+c < rank {
			seen += c
			continue
		}
		lower, width := histBounds(i)
		frac := (float64(rank-seen) - 0.5) / float64(c)
		return time.Duration(lower + frac*width)
	}
	return 0
}
