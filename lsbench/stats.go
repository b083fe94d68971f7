package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// maxKeptErrors bounds how many error texts a run keeps for its report.
const maxKeptErrors = 5

// opLog counts operations and keeps the first errors and wrong outputs. It
// is shared by a workload's goroutines.
type opLog struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
	oracle    []string
	oracleN   int
}

// done records one operation; err is a failure to complete it (transport,
// status, program error).
func (o *opLog) done(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.errs) < maxKeptErrors {
			o.errs = append(o.errs, err.Error())
		}
	}
}

// wrong records an operation that completed with an output the oracle
// rejects.
func (o *opLog) wrong(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.oracleN++
	if len(o.oracle) < maxKeptErrors {
		o.oracle = append(o.oracle, fmt.Sprintf(format, args...))
	}
}

func (o *opLog) counts() (attempted, failed int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.attempted, o.failed
}

func (o *opLog) firstErrors() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.errs...)
}

func (o *opLog) oracleFailures() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := append([]string(nil), o.oracle...)
	if o.oracleN > len(o.oracle) {
		out = append(out, fmt.Sprintf("... and %d more wrong outputs", o.oracleN-len(o.oracle)))
	}
	return out
}

// quietest returns the indices, in order, of the measurements whose steal
// is at most the steal of the quarter (rounded up) with the least. It
// picks audit-ledger's rounds: a round's phases follow the host's steal
// (Stage+Wait p99 was 2.2 ms in a run with 2% steal and 7.0 ms in one with
// 17%), and a run has too few rounds to fit a line through them as the
// closed loops do (see atZeroSteal).
//
// /proc/stat counts steal in 10 ms ticks, so measurements can tie, and on
// a host that reports no steal they all read 0. Every one at the cutoff is
// kept, so that ties never narrow the figures to one part of the run: with
// no steal at all they are medians over the whole run, and a slowdown that
// builds up over it still shows.
func quietest(steal []float64) []int {
	if len(steal) == 0 {
		return nil
	}
	s := append([]float64(nil), steal...)
	sort.Float64s(s)
	cutoff := s[(len(s)+3)/4-1]
	var out []int
	for i, v := range steal {
		if v <= cutoff {
			out = append(out, i)
		}
	}
	return out
}

// atZeroSteal returns the value a per-window figure takes at zero steal:
// the intercept of the Theil–Sen line through the windows' (steal, value)
// points. The slope is the median of the slopes between every two windows
// of different steal, the intercept the median of value − slope × steal.
//
// Steal is time the hypervisor gives to other guests while this one wants
// the CPU; it is not a property of the program, and on the shared 2-vCPU
// host the benchmark was tuned on it reached 42% of a run. Window by
// window, git-audit's throughput is a steady function of it, the same in
// every run (about 1.4% of throughput per 1% of steal), so one run's
// windows, spread over a range of steal, show where the line meets zero.
// The median-based fit ignores stray windows. Every window counts; when all
// windows have the same steal (as on a host that reports none) the slope is
// 0 and the result is the median over the whole run.
func atZeroSteal(steal, vals []float64) float64 {
	var slopes []float64
	for i := range steal {
		for j := i + 1; j < len(steal); j++ {
			if steal[i] != steal[j] {
				slopes = append(slopes, (vals[j]-vals[i])/(steal[j]-steal[i]))
			}
		}
	}
	b := median(slopes)
	res := make([]float64, len(vals))
	for i, v := range vals {
		res[i] = v - b*steal[i]
	}
	return median(res)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// stealMeter reads the host's steal share between successive calls.
type stealMeter struct{ last cpuStat }

func newStealMeter() *stealMeter {
	s, _ := readCPUStat()
	return &stealMeter{last: s}
}

// next returns the steal share since the previous call (0 when /proc/stat
// cannot be read).
func (m *stealMeter) next() float64 {
	s, err := readCPUStat()
	if err != nil {
		return 0
	}
	total, steal := s.total-m.last.total, s.steal-m.last.steal
	m.last = s
	if total == 0 {
		return 0
	}
	return float64(steal) / float64(total)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
