package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"libseal/internal/asyncall"
	"libseal/internal/audit"
)

var endToEnd = []string{"setup_s", "throughput_per_s", "latency_p50_ms", "alloc_kb_per_op", "heap_live_mb"}

// TestShortRuns runs every workload briefly, untraced and traced: each must
// finish with no failed operation, pass its oracles and report every
// metric of its mode.
func TestShortRuns(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 7, seconds: 0.4, trace: trace, short: true, dir: t.TempDir()}
			out, err := run(workloads[name], o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, out.Correct, out.Attempted, out.Failed)
			}
			want := endToEnd
			if trace {
				want = nil
				for m := range perLayerUnits {
					want = append(want, m)
				}
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(out.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := out.Metrics[m]
				if !ok || (!trace && v.Value <= 0) {
					t.Errorf("%s trace=%v: metric %s = %v, %v", name, trace, m, v, ok)
				}
			}
		}
	}
}

func TestCheckBodyRejects(t *testing.T) {
	body := tlsContent(3, 64)
	sum := sha256.Sum256(body)
	if err := checkBody(body, len(body), sum); err != nil {
		t.Fatal(err)
	}
	if checkBody(body, len(body)+1, sum) == nil {
		t.Error("wrong expected length accepted")
	}
	bad := append([]byte(nil), body...)
	bad[10] ^= 1
	if checkBody(bad, len(body), sum) == nil {
		t.Error("tampered body accepted")
	}
}

func TestGitLogOracleRejects(t *testing.T) {
	dep, err := gitWorkload{}.setup(options{seed: 5, short: true}, filepath.Join(t.TempDir(), "git"))
	if err != nil {
		t.Fatal(err)
	}
	d := dep.(*gitDeployment)
	defer d.close()
	ops := &opLog{}
	if err := d.warm(ops); err != nil || ops.failed != 0 {
		t.Fatalf("warm: %v, %d failed", err, ops.failed)
	}
	d.stopServing()
	if err := d.seal.Close(); err != nil {
		t.Fatal(err)
	}
	d.seal = nil

	want := d.lastPushed()
	if bad := verifyGitLog(d.dir, d.encl, d.group, want); len(bad) != 0 {
		t.Fatalf("honest log rejected: %v", bad)
	}
	wrong := map[string]string{}
	for repo := range want {
		wrong[repo] = "c-not-pushed"
	}
	if bad := verifyGitLog(d.dir, d.encl, d.group, wrong); len(bad) == 0 {
		t.Error("wrong expected last push accepted")
	}
	cp := filepath.Join(t.TempDir(), "copy")
	if err := copyDir(d.dir, cp); err != nil {
		t.Fatal(err)
	}
	if err := flipEntryByte(filepath.Join(cp, "git.lseal")); err != nil {
		t.Fatal(err)
	}
	if bad := verifyGitLog(cp, d.encl, d.group, want); len(bad) == 0 {
		t.Error("tampered log accepted")
	}
}

func TestLedgerOraclesReject(t *testing.T) {
	dep, err := ledgerWorkload{}.setup(options{seed: 5, short: true}, filepath.Join(t.TempDir(), "ledger"))
	if err != nil {
		t.Fatal(err)
	}
	d := dep.(*ledgerDeployment)
	defer d.close()
	rl := d.next
	d.next = nil
	ops := &opLog{}
	want, _ := d.appendPhase(rl.log, ops, &latHist{})
	if ops.failed != 0 {
		t.Fatalf("appends failed: %v", ops.firstErrors())
	}
	if err := d.bridge.Call(func(env *asyncall.Env) error { return rl.log.WriteManifest(env) }); err != nil {
		t.Fatal(err)
	}
	rl.stopFeed()
	if err := rl.log.Close(); err != nil {
		t.Fatal(err)
	}
	staged := 0
	for _, s := range want {
		staged += int(s.count)
	}
	pub := d.encl.PublicKey()

	// Offline verify: count oracle.
	rep, err := audit.VerifyPathReport(context.Background(), rl.dir, audit.StreamOptions{
		VerifyOptions: audit.VerifyOptions{Pub: pub, Name: rl.name}, Workers: runtime.GOMAXPROCS(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkVerified(rep, staged); err != nil {
		t.Fatal(err)
	}
	if checkVerified(rep, staged+1) == nil {
		t.Error("wrong expected count accepted")
	}

	// Damaged copies: both must be rejected with the right class.
	if bad := tamperChecks(rl.dir, rl.name, pub); len(bad) != 0 {
		t.Fatalf("tamper oracle: %v", bad)
	}

	// Recovery: a tampered copy must not recover; the honest set must
	// recover to the benchmark's own sums, and a wrong sum must not match.
	cp := filepath.Join(t.TempDir(), "copy")
	if err := copyDir(rl.dir, cp); err != nil {
		t.Fatal(err)
	}
	if err := flipEntryByte(filepath.Join(cp, audit.ShardName(rl.name, 0)+".lseal")); err != nil {
		t.Fatal(err)
	}
	cpCfg := rl.cfg
	cpCfg.Dir = cp
	err = d.bridge.Call(func(env *asyncall.Env) error {
		_, err := audit.RecoverSharded(env, cpCfg, pub)
		return err
	})
	if !errors.Is(err, audit.ErrTampered) {
		t.Errorf("recovering a tampered copy: %v, want ErrTampered", err)
	}
	var rec *audit.ShardedLog
	if err := d.bridge.Call(func(env *asyncall.Env) error {
		var err error
		rec, err = audit.RecoverSharded(env, rl.cfg, pub)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if err := checkSums(rec, want); err != nil {
		t.Fatal(err)
	}
	wrong := map[int64]clientSum{}
	for c, s := range want {
		wrong[c] = clientSum{s.count, s.timeSum + 1}
	}
	if checkSums(rec, wrong) == nil {
		t.Error("wrong expected sums accepted")
	}
}

func TestLatHistQuantiles(t *testing.T) {
	var h latHist
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 500 * time.Microsecond}, {0.99, 990 * time.Microsecond}} {
		got := h.quantile(c.q)
		if d := float64(got-c.want) / float64(c.want); d < -0.01 || d > 0.01 {
			t.Errorf("q%.2f = %v, want %v within 1%%", c.q, got, c.want)
		}
	}
	if histIndex(1<<40) != histBuckets-1 || histIndex(-5) != 0 {
		t.Error("out-of-range values not clamped")
	}
}

// TestQuietestTies checks that ties in steal do not narrow the figures to
// the start of a run: with no steal at all every round counts, and rounds
// tied at the cutoff all count while those with more steal are left out.
func TestQuietestTies(t *testing.T) {
	steal := make([]float64, 40)
	if got := len(quietest(steal)); got != len(steal) {
		t.Errorf("no steal: %d of %d kept", got, len(steal))
	}
	for i := range steal {
		steal[i] = 0.05
	}
	for _, i := range []int{3, 17, 30, 39} {
		steal[i] = 0.01
	}
	steal[5], steal[25] = 0.02, 0.02
	for i := 10; i < 14; i++ {
		steal[i] = 0.03 // tied at the cutoff, the tenth-lowest steal
	}
	want := []int{3, 5, 10, 11, 12, 13, 17, 25, 30, 39}
	if got := quietest(steal); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("kept %v, want %v", got, want)
	}
}

// TestAtZeroSteal checks the fit: on windows whose rate falls linearly
// with steal it recovers the rate at zero steal, stray windows do not move
// it, and without steal it is the median over every window of the run.
func TestAtZeroSteal(t *testing.T) {
	var steal, rate []float64
	for i := 0; i < 200; i++ {
		s := float64(i%9) * 0.05
		steal = append(steal, s)
		rate = append(rate, 3000*(1-1.4*s)+float64(i%7-3))
	}
	rate[17], rate[101] = 10, 1e6
	if got := atZeroSteal(steal, rate); got < 2990 || got > 3010 {
		t.Errorf("rate at zero steal %v, want 3000", got)
	}
	flat := make([]float64, 40)
	var falling []float64
	for i := range flat {
		falling = append(falling, float64(1000-10*i))
	}
	if got, want := atZeroSteal(flat, falling), 805.0; got != want {
		t.Errorf("no steal: %v, want the whole run's median %v", got, want)
	}
}
