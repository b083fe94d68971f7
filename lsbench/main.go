// Command lsbench is the repository's end-to-end benchmark. It runs one of
// three workloads against the in-process LibSEAL deployment (simulated
// enclave with the default cost model, ROTE counter group with f=1) and
// prints, as its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// registers a trace hook and reports the per-layer ones instead. Lines before
// the JSON describe the host, the set-up and every metric in words.
//
//	lsbench --workload git-audit --seed 1 --seconds 20 --trace 0
//
// See README.md for what each workload stresses and why.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"libseal/internal/netsim"
	"libseal/internal/services/apache"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// short shrinks audit-ledger's rounds so the tests finish in seconds.
	short bool
	// dir is a scratch directory for audit logs; removed at exit.
	dir string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the final JSON line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRepeats is how many times a run builds its deployment; setup_s is
// the median, which keeps one slow key generation or GC pause from moving
// it.
const setupRepeats = 15

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "git-audit, tls-static or audit-ledger")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured time")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	if o.seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive"))
	}
	w, ok := workloads[o.workload]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames()))
	}
	base := os.Getenv("CARGO_TARGET_DIR")
	if base == "" {
		base = ".bench_build"
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		fail(err)
	}
	dir, err := os.MkdirTemp(base, "lsbench-run-*")
	if err != nil {
		fail(err)
	}
	o.dir, _ = filepath.Abs(dir)
	out, err := run(w, o)
	os.RemoveAll(dir)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "lsbench:", err)
	os.Exit(1)
}

// workloads maps --workload names to their deployments.
var workloads = map[string]workload{
	"git-audit":    gitWorkload{},
	"tls-static":   tlsWorkload{},
	"audit-ledger": ledgerWorkload{},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// workload builds deployments of one kind.
type workload interface {
	// setup builds a ready-to-serve deployment whose files live under dir.
	setup(o options, dir string) (deployment, error)
}

// deployment is one built system under test.
type deployment interface {
	// warm runs a short untimed load so caches, pools and connections exist
	// before timing starts.
	warm(ops *opLog) error
	// measure runs whole rounds of the workload until d has elapsed.
	measure(d time.Duration, ops *opLog) (*phase, error)
	// settle brings the deployment to the same state in every run before
	// the live heap is read after the measured phase, so that the reading
	// does not depend on the requests just served. The closed loops stop
	// serving and release the simulated network: it keeps closed
	// connections reachable, two 1024-slot channels (96 KiB) each, in a
	// number that depends on how many were open at once earlier in the
	// run, which made the reading jump between levels 96 KiB apart.
	settle(ops *opLog)
	// finish tears the deployment down and returns the failures of the
	// oracles that can only be judged afterwards (log verification).
	finish() []string
	// close releases whatever finish has not (idempotent).
	close()
}

// serve starts an Apache server on the simulated network.
func serve(n *netsim.Network, addr string, cfg apache.Config) (*apache.Server, error) {
	l, err := n.Listen(addr)
	if err != nil {
		return nil, err
	}
	s, err := apache.New(cfg)
	if err != nil {
		l.Close()
		return nil, err
	}
	go s.Serve(l)
	return s, nil
}

// phase is what one measured stretch produced.
type phase struct {
	// ops is the number of completed operations the throughput counts:
	// requests, or appended entries on audit-ledger.
	ops int
	// reqs is the number of completed requests, or Stage calls on
	// audit-ledger; per-request layer metrics divide by it.
	reqs int
	// windows is the number of slices (closed loops) or rounds
	// (audit-ledger) the figures below are taken over.
	windows int
	// rate is operations per second, p50, p90 and p99 the latency
	// percentiles of one operation in ms (see runClients and
	// ledgerDeployment.measure for how each is taken).
	rate, p50, p90, p99 float64
	// entries is the number of audit-log entries appended (0 without an
	// audit log); per-entry layer metrics divide by it.
	entries int
	// heapLive, when non-zero, is the phase's own post-GC live heap
	// reading (audit-ledger takes it while the log is open).
	heapLive float64
	// layer holds per-layer figures the workload measures itself, by
	// per-layer metric name.
	layer map[string]float64
}

// run executes one benchmark run of w.
func run(w workload, o options) (*output, error) {
	host := readHost(o.dir)
	fmt.Printf("host: nproc=%d gomaxprocs=%d go=%s ref_compute_ms=%.3f log_fs=%s (fsync elided, see README)\n",
		host.nproc, host.maxprocs, runtime.Version(), host.refMS, host.fs)

	var setups []float64
	var dep deployment
	for i := 0; i < setupRepeats; i++ {
		sub := filepath.Join(o.dir, fmt.Sprintf("setup%d", i))
		t0 := time.Now()
		d, err := w.setup(o, sub)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			d.close()
			os.RemoveAll(sub)
		} else {
			dep = d
		}
	}
	defer dep.close()

	ops := &opLog{}
	if err := dep.warm(ops); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	d := time.Duration(o.seconds * float64(time.Second))
	var metrics map[string]metric
	var err error
	if o.trace {
		metrics, err = traced(dep, d, ops, host.refMS)
	} else {
		metrics, err = untraced(dep, d, ops)
	}
	if err != nil {
		return nil, err
	}
	checks := dep.finish()
	if o.trace {
		// finish ran the post-run verification; fold its segment timings
		// into the verify metrics.
		addVerifyLayer(metrics)
	} else {
		metrics["setup_s"] = metric{median(setups), "s"}
	}
	host.finish()
	fmt.Printf("host: steal_share=%.4f over the run\n", host.steal)

	out := &output{Metrics: metrics}
	out.Attempted, out.Failed = ops.counts()
	checks = append(checks, ops.oracleFailures()...)
	out.Correct = len(checks) == 0
	report(out, checks, ops)
	return out, nil
}

// untraced measures the end-to-end metrics.
func untraced(dep deployment, d time.Duration, ops *opLog) (map[string]metric, error) {
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ph, err := dep.measure(d, ops)
	if err != nil {
		return nil, err
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	heap := ph.heapLive
	if heap == 0 {
		dep.settle(ops)
		heap = liveHeapMB()
	}
	if ph.ops == 0 {
		return nil, fmt.Errorf("measured phase completed no operations")
	}
	metrics := map[string]metric{
		"throughput_per_s": {ph.rate, "1/s"},
		"latency_p50_ms":   {ph.p50, "ms"},
		"alloc_kb_per_op":  {float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(ph.ops), "KiB"},
		"heap_live_mb":     {heap, "MiB"},
	}
	for name, v := range ph.layer {
		fmt.Printf("layer %s = %.1f\n", name, v)
	}
	fmt.Printf("layer op.latency_p90_ms = %.4f, op.latency_p99_ms = %.4f (per-layer only: see README)\n", ph.p90, ph.p99)
	fmt.Printf("measured: %d operations in %d windows\n", ph.ops, ph.windows)
	return metrics, nil
}

// liveHeapMB forces a collection and returns the live heap in MiB. The
// second collection frees what the first only moved to sync.Pool victim
// caches, which would otherwise make the reading grow with the request
// rate just before it.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// report prints the human-readable summary lines.
func report(out *output, checks []string, ops *opLog) {
	var names []string
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-32s %14.4f %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	fmt.Printf("operations: attempted=%d failed=%d\n", out.Attempted, out.Failed)
	for _, e := range ops.firstErrors() {
		fmt.Printf("failed operation: %s\n", e)
	}
	for _, c := range checks {
		fmt.Printf("oracle failed: %s\n", c)
	}
	fmt.Printf("correct: %v\n", out.Correct)
}
