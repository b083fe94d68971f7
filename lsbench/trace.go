package main

import (
	"fmt"
	"runtime"
	"strings"
	"syscall"
	"time"

	"libseal/internal/httpparse"
	"libseal/internal/sqldb"
	"libseal/internal/ssm"
	"libseal/internal/ssm/gitssm"
	"libseal/internal/telemetry"
)

// spanEvents are the trace events whose durations the traced run reports.
var spanEvents = []string{"tlsterm.handshake", "audit.check", "audit.trim", "audit.append", "rote.increment"}

// spans keeps the durations of the traced half's events, one fixed
// histogram per event, all allocated before the hook is registered: the
// hook neither takes a lock nor grows memory while the run measures, so
// trace.throughput_ratio is the cost of tracing and not of the hook's own
// garbage.
type spans map[string]*latHist

func newSpans() spans {
	s := spans{}
	for _, e := range spanEvents {
		s[e] = &latHist{}
	}
	return s
}

func (s spans) record(event string, d time.Duration) {
	if h := s[event]; h != nil {
		h.add(d)
	}
}

func (s spans) p(event string, q float64) float64 { return ms(s[event].quantile(q)) }

// counters reads every telemetry counter and histogram count by name.
func counters() map[string]telemetry.Metric {
	out := map[string]telemetry.Metric{}
	for _, m := range telemetry.Snapshot() {
		out[m.Name] = m
	}
	return out
}

// layerProber is a deployment with a layer of its own to time outside the
// request path.
type layerProber interface {
	probeLayers() (map[string]metric, error)
}

// perLayerUnits lists every per-layer metric with its unit. A workload that
// does not exercise a layer reports its metrics as 0.
var perLayerUnits = map[string]string{
	"tlsterm.handshake_ms_p50":     "ms",
	"tlsterm.records_per_req":      "records/req",
	"tlsterm.bytes_per_req":        "B/req",
	"enclave.transitions_per_req":  "calls/req",
	"enclave.ecalls_per_req":       "calls/req",
	"enclave.ocalls_per_req":       "calls/req",
	"asyncall.sync_calls_per_req":  "calls/req",
	"asyncall.async_calls_per_req": "calls/req",
	"ssm.pair_us":                  "us",
	"sqldb.insert_us":              "us",
	"core.check_ms_p50":            "ms",
	"core.checks_per_kreq":         "calls/kreq",
	"audit.trim_ms_p50":            "ms",
	"audit.append_ms_p50":          "ms",
	"audit.append_ms_p99":          "ms",
	"audit.fsyncs_per_entry":       "calls/entry",
	"audit.signatures_per_entry":   "calls/entry",
	"audit.batch_size_mean":        "entries",
	"audit.flush_on_delay_share":   "share",
	"audit.manifests_per_kentry":   "calls/kentry",
	"rote.increments_per_entry":    "calls/entry",
	"rote.increment_ms_p50":        "ms",
	"audit.verify_segment_ms_p50":  "ms",
	"audit.verify_bytes_per_entry": "B/entry",
	"mirror.feed_bytes_per_entry":  "B/entry",
	"mirror.reconnects":            "count",
	"ledger.follow_entries_per_s":  "1/s",
	"ledger.verify_entries_per_s":  "1/s",
	"ledger.recover_entries_per_s": "1/s",
	"process.cpu_us_per_op":        "us/op",
	"process.gc_cycles_per_kop":    "gc/kop",
	"trace.throughput_ratio":       "ratio",
	"op.latency_p90_ms":            "ms",
	"op.latency_p99_ms":            "ms",
	"host.ref_compute_ms":          "ms",
}

// traced measures half the time untraced and half with a trace hook
// registered, and derives the per-layer metrics from the traced half: spans
// from the hook, counts from telemetry counter differences, CPU time from
// getrusage. The ratio of the two halves' throughputs is the tracing
// overhead.
func traced(dep deployment, d time.Duration, ops *opLog, refMS float64) (map[string]metric, error) {
	base, err := dep.measure(d/2, ops)
	if err != nil {
		return nil, err
	}

	sp := newSpans()
	telemetry.RegisterTrace("lsbench", sp.record)
	defer telemetry.UnregisterTrace("lsbench")
	// Histograms cannot be differenced, so the traced half starts from
	// zeroed metrics; counters are still read as differences.
	telemetry.Reset()
	c0 := counters()
	cpu0 := cpuTime()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ph, err := dep.measure(d/2, ops)
	if err != nil {
		return nil, err
	}
	cpu1 := cpuTime()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	c1 := counters()
	delta := func(name string) float64 { return float64(c1[name].Value - c0[name].Value) }
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	reqs := float64(ph.reqs)
	ent := float64(ph.entries)

	out := map[string]metric{}
	for name, unit := range perLayerUnits {
		out[name] = metric{0, unit}
	}
	set := func(name string, v float64) { out[name] = metric{v, out[name].Unit} }

	set("tlsterm.handshake_ms_p50", sp.p("tlsterm.handshake", 0.5))
	set("tlsterm.records_per_req", per(delta("tlsterm.records.read")+delta("tlsterm.records.written"), reqs))
	set("tlsterm.bytes_per_req", per(delta("tlsterm.bytes.read")+delta("tlsterm.bytes.written"), reqs))
	set("enclave.transitions_per_req", per(delta("enclave.transitions"), reqs))
	set("enclave.ecalls_per_req", per(delta("enclave.ecalls"), reqs))
	set("enclave.ocalls_per_req", per(delta("enclave.ocalls"), reqs))
	set("asyncall.sync_calls_per_req", per(delta("asyncall.sync_calls"), reqs))
	set("asyncall.async_calls_per_req", per(delta("asyncall.async_calls"), reqs))
	set("core.check_ms_p50", sp.p("audit.check", 0.5))
	set("core.checks_per_kreq", per(1000*delta("audit.checks"), reqs))
	set("audit.trim_ms_p50", sp.p("audit.trim", 0.5))
	set("audit.append_ms_p50", sp.p("audit.append", 0.5))
	set("audit.append_ms_p99", sp.p("audit.append", 0.99))
	set("audit.fsyncs_per_entry", per(delta("audit.fsyncs"), ent))
	set("audit.signatures_per_entry", per(delta("audit.signatures"), ent))
	if h := c1["audit.batch.size"]; h.Value > 0 {
		set("audit.batch_size_mean", h.Mean)
	}
	set("audit.flush_on_delay_share", per(delta("audit.batch.flush.delay"), delta("audit.batch.commits")))
	set("audit.manifests_per_kentry", per(1000*delta("audit.manifests"), ent))
	set("rote.increments_per_entry", per(delta("rote.increments"), ent))
	set("rote.increment_ms_p50", sp.p("rote.increment", 0.5))
	set("mirror.feed_bytes_per_entry", per(delta("audit.feed.sent.bytes"), delta("mirror.verified.entries")))
	for name, v := range ph.layer {
		set(name, v)
	}
	set("process.cpu_us_per_op", per(float64(cpu1-cpu0)/float64(time.Microsecond), float64(ph.ops)))
	set("process.gc_cycles_per_kop", per(1000*float64(ms1.NumGC-ms0.NumGC), float64(ph.ops)))
	set("trace.throughput_ratio", per(ph.rate, base.rate))
	set("op.latency_p90_ms", ph.p90)
	set("op.latency_p99_ms", ph.p99)
	set("host.ref_compute_ms", refMS)

	if p, ok := dep.(layerProber); ok {
		extra, err := p.probeLayers()
		if err != nil {
			return nil, err
		}
		for name, m := range extra {
			out[name] = m
		}
	}
	return out, nil
}

// addVerifyLayer fills the verify metrics from everything verified since
// the traced half began, the post-run verification included.
func addVerifyLayer(out map[string]metric) {
	c := counters()
	seg := c["audit.verify.segment.latency"]
	if seg.Value > 0 {
		out["audit.verify_segment_ms_p50"] = metric{float64(seg.P50) / 1e6, "ms"}
	}
	if n := c["audit.verify.entries"].Value; n > 0 {
		out["audit.verify_bytes_per_entry"] = metric{float64(c["audit.verify.bytes"].Value) / float64(n), "B/entry"}
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// replayGitPairs times the SSM and SQL layers alone on git-audit's pair
// mix (pushes of one ref update), trimming every 25 pairs as the service
// does. It returns the median HandlePair time and the median time
// of one INSERT, in microseconds.
func replayGitPairs(pairs int, seed int64) (pairUS, insertUS float64, err error) {
	m := gitssm.New()
	db := sqldb.New()
	if _, err := db.Exec(m.Schema()); err != nil {
		return 0, 0, err
	}
	inserts := map[string]string{}
	var pairT, insT latHist
	for i := 1; i <= pairs; i++ {
		cid := fmt.Sprintf("c%016x0%08d", uint64(seed), i)
		req := httpparse.NewRequest("POST", "/git/r0/git-receive-pack", []byte("update main "+cid+"\n"))
		reqB, rspB := req.Bytes(), httpparse.NewResponse(200, []byte("ok")).Bytes()
		t0 := time.Now()
		tuples, err := m.HandlePair(&ssm.State{Time: int64(i), DB: db}, reqB, rspB)
		pairT.add(time.Since(t0))
		if err != nil {
			return 0, 0, err
		}
		for _, tu := range tuples {
			q, ok := inserts[tu.Table]
			if !ok {
				q = fmt.Sprintf("INSERT INTO %s VALUES (%s)", tu.Table,
					strings.TrimSuffix(strings.Repeat("?,", len(tu.Values)), ","))
				inserts[tu.Table] = q
			}
			t1 := time.Now()
			if _, err := db.Exec(q, tu.Values...); err != nil {
				return 0, 0, err
			}
			insT.add(time.Since(t1))
		}
		if i%gitCheckEvery == 0 {
			for _, q := range m.TrimQueries() {
				if _, err := db.Exec(q); err != nil {
					return 0, 0, err
				}
			}
		}
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	return us(pairT.quantile(0.5)), us(insT.quantile(0.5)), nil
}
