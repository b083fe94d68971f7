package main

import (
	"context"
	"crypto/ecdsa"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"libseal/internal/asyncall"
	"libseal/internal/audit"
	"libseal/internal/audit/mirror"
	"libseal/internal/enclave"
	"libseal/internal/rote"
	"libseal/internal/sqldb"
	"libseal/internal/testutil"
)

// audit-ledger settings: two appenders stage fixed-size row groups into a
// 2-shard group-commit log with epoch manifests. BatchDelay is non-zero
// like the repository's other append benches; with two appenders every
// batch waits out the fill timer, a known waste this workload keeps
// visible (audit.flush_on_delay_share).
const (
	ledgerAppenders     = 2
	ledgerShards        = 2
	ledgerRows          = 8   // rows per Stage call
	ledgerGroups        = 500 // Stage calls per appender per round
	ledgerGroupsShort   = 40
	ledgerOpBytes       = 32
	ledgerBatchMax      = 64
	ledgerBatchDelay    = 200 * time.Microsecond
	ledgerManifestEvery = 100 * time.Millisecond
	ledgerSchema        = `CREATE TABLE ops (time INTEGER, client INTEGER, op TEXT);`
	// followTimeout bounds the mirror's catch-up; it is far above what a
	// round needs and only turns a hang into a failed operation.
	followTimeout = 60 * time.Second
)

type ledgerWorkload struct{}

type ledgerDeployment struct {
	dir     string
	groups  int
	payload string
	encl    *enclave.Enclave
	bridge  *asyncall.Bridge
	group   *rote.Group
	rounds  int
	next    *roundLog
	checks  []string
	closed  bool
}

// roundLog is one round's log set with its replication feed, created
// before the round so that the round starts at its first append.
type roundLog struct {
	name, dir string
	cfg       audit.ShardedConfig
	log       *audit.ShardedLog
	feed      *mirror.Feed
	addr      string
	served    chan struct{}
}

// prepare creates the next round's log set and starts its feed on a
// loopback listener. Each round writes a fresh set under its own name, so
// rounds share no counters.
func (d *ledgerDeployment) prepare() error {
	d.rounds++
	rl := &roundLog{name: fmt.Sprintf("ledger%06d", d.rounds)}
	rl.dir = filepath.Join(d.dir, rl.name)
	rl.cfg = audit.ShardedConfig{
		Config: audit.Config{
			Name: rl.name, Schema: ledgerSchema, Mode: audit.ModeDisk, Dir: rl.dir,
			Protector: d.group, FS: pageCacheFS{},
			BatchMax: ledgerBatchMax, BatchDelay: ledgerBatchDelay,
			AnchorTimeout: 5 * time.Second,
		},
		Shards:        ledgerShards,
		ManifestEvery: ledgerManifestEvery,
	}
	if err := os.MkdirAll(rl.dir, 0o755); err != nil {
		return err
	}
	if err := d.bridge.Call(func(env *asyncall.Env) error {
		var err error
		rl.log, err = audit.NewSharded(env, rl.cfg)
		return err
	}); err != nil {
		os.RemoveAll(rl.dir)
		return fmt.Errorf("creating the log: %w", err)
	}
	var err error
	if rl.feed, err = mirror.NewFeed(mirror.FeedConfig{Log: rl.log, Dir: rl.dir, Name: rl.name}); err != nil {
		rl.discard()
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rl.discard()
		return err
	}
	rl.addr = ln.Addr().String()
	rl.served = make(chan struct{})
	go func() {
		defer close(rl.served)
		rl.feed.Serve(ln)
	}()
	d.next = rl
	return nil
}

// stopFeed closes the feed and waits for its server goroutine.
func (rl *roundLog) stopFeed() {
	if rl.feed != nil {
		rl.feed.Close()
	}
	if rl.served != nil {
		<-rl.served
	}
	rl.feed, rl.served = nil, nil
}

// discard releases an unused or failed round log.
func (rl *roundLog) discard() {
	rl.stopFeed()
	if rl.log != nil {
		rl.log.Close()
	}
	os.RemoveAll(rl.dir)
}

// clientSum is one appender's share of a round as the benchmark itself
// counted it: rows staged and the sum of their time column.
type clientSum struct{ count, timeSum int64 }

// roundResult is what one round measured.
type roundResult struct {
	entries, stages, reconnects                 int
	appendDur, followDur, verifyDur, recoverDur time.Duration
	p50, p90, p99                               time.Duration // Stage+Wait
	heapMB                                      float64
}

// perSecond is entries per second over d.
func perSecond(entries int, d time.Duration) float64 { return float64(entries) / d.Seconds() }

func (ledgerWorkload) setup(o options, dir string) (deployment, error) {
	d := &ledgerDeployment{dir: dir, groups: ledgerGroups}
	if o.short {
		d.groups = ledgerGroupsShort
	}
	b := make([]byte, ledgerOpBytes/2)
	rand.New(rand.NewSource(o.seed)).Read(b)
	d.payload = fmt.Sprintf("%x", b)
	var err error
	d.encl, d.bridge, err = testutil.NewBridge(testutil.BridgeOptions{
		MaxThreads: 32, Cost: enclave.DefaultCostModel(),
	})
	if err != nil {
		return nil, err
	}
	if d.group, err = rote.NewGroup(1, 0); err != nil {
		d.bridge.Close()
		return nil, err
	}
	if err := d.prepare(); err != nil {
		d.bridge.Close()
		return nil, err
	}
	return d, nil
}

// warm runs one untimed round, on which the tamper oracles also run.
func (d *ledgerDeployment) warm(ops *opLog) error {
	_, err := d.round(ops, true)
	return err
}

// measure runs whole rounds until dur has elapsed. Each round reads the
// host's steal over its own span; its append rate and Stage+Wait
// percentiles, the rates of its other phases and its heap reading are
// reported as medians over the quietest rounds (see quietest).
func (d *ledgerDeployment) measure(dur time.Duration, ops *opLog) (*phase, error) {
	ph := &phase{}
	var rounds []*roundResult
	var steal []float64
	reconnects := 0
	t0 := time.Now()
	for {
		m := newStealMeter()
		r, err := d.round(ops, false)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
		steal = append(steal, m.next())
		ph.ops += r.entries
		ph.entries += r.entries
		ph.reqs += r.stages
		reconnects += r.reconnects
		if time.Since(t0) >= dur {
			break
		}
	}
	var rate, p50, p90, p99, heaps, follow, verify, recov []float64
	for _, i := range quietest(steal) {
		r := rounds[i]
		rate = append(rate, perSecond(r.entries, r.appendDur))
		p50 = append(p50, ms(r.p50))
		p90 = append(p90, ms(r.p90))
		p99 = append(p99, ms(r.p99))
		heaps = append(heaps, r.heapMB)
		follow = append(follow, perSecond(r.entries, r.followDur))
		verify = append(verify, perSecond(r.entries, r.verifyDur))
		recov = append(recov, perSecond(r.entries, r.recoverDur))
	}
	ph.windows = len(rounds)
	ph.rate, ph.p50, ph.p90, ph.p99 = median(rate), median(p50), median(p90), median(p99)
	ph.heapLive = median(heaps)
	ph.layer = map[string]float64{
		"ledger.follow_entries_per_s":  median(follow),
		"ledger.verify_entries_per_s":  median(verify),
		"ledger.recover_entries_per_s": median(recov),
		"mirror.reconnects":            float64(reconnects),
	}
	return ph, nil
}

// round runs the four phases on one fresh log: append, mirror catch-up,
// close and collect, offline verify then recover. Operations that fail are
// counted in ops; an error return means the round could not be run at all.
func (d *ledgerDeployment) round(ops *opLog, tamper bool) (*roundResult, error) {
	rl := d.next
	d.next = nil
	defer os.RemoveAll(rl.dir)
	name, dir, cfg, log := rl.name, rl.dir, rl.cfg, rl.log
	res := &roundResult{}

	// Phase 1: appends.
	lat := &latHist{}
	want, appendDur := d.appendPhase(log, ops, lat)
	res.p50, res.p90, res.p99 = lat.quantile(0.50), lat.quantile(0.90), lat.quantile(0.99)
	for _, s := range want {
		res.entries += int(s.count)
		res.stages += int(s.count) / ledgerRows
	}
	res.appendDur = appendDur
	ops.done(d.bridge.Call(func(env *asyncall.Env) error { return log.WriteManifest(env) }))

	// Phase 2: a mirror catches up from byte zero.
	followDur, st, ferr := d.follow(rl.addr, name, res.entries)
	ops.done(ferr)
	res.followDur = followDur
	// Status counts sessions after the first; the mirror.reconnects
	// telemetry counter also counts the session that Stop ends.
	res.reconnects = st.Reconnects
	if ferr == nil && st.Entries != res.entries {
		ops.wrong("%s: mirror verified %d entries, %d staged", name, st.Entries, res.entries)
	}
	res.heapMB = liveHeapMB()

	// Phase 3: close the writer, release it, collect.
	rl.stopFeed()
	ops.done(log.Close())
	rl.log, log = nil, nil
	runtime.GC()

	if tamper {
		d.checks = append(d.checks, tamperChecks(dir, name, d.encl.PublicKey())...)
	}

	// Phase 4: offline verify, then recover.
	t0 := time.Now()
	rep, verr := audit.VerifyPathReport(context.Background(), dir, audit.StreamOptions{
		VerifyOptions: audit.VerifyOptions{Pub: d.encl.PublicKey(), Name: name},
		Workers:       runtime.GOMAXPROCS(0),
	})
	res.verifyDur = time.Since(t0)
	ops.done(verr)
	if verr == nil {
		if err := checkVerified(rep, res.entries); err != nil {
			ops.wrong("%s: %v", name, err)
		}
	}

	t0 = time.Now()
	var rec *audit.ShardedLog
	rerr := d.bridge.Call(func(env *asyncall.Env) error {
		var err error
		rec, err = audit.RecoverSharded(env, cfg, d.encl.PublicKey())
		return err
	})
	res.recoverDur = time.Since(t0)
	ops.done(rerr)
	if rerr == nil {
		if err := checkSums(rec, want); err != nil {
			ops.wrong("%s: recovered %v", name, err)
		}
		rec.Close()
	}
	if err := d.prepare(); err != nil {
		return nil, err
	}
	return res, nil
}

// appendPhase runs the appenders, filing each Stage+Wait latency in lat,
// and returns their own per-client counts and the phase's wall time.
func (d *ledgerDeployment) appendPhase(log *audit.ShardedLog, ops *opLog, lat *latHist) (map[int64]clientSum, time.Duration) {
	// One connection key per shard, so each appender owns a shard.
	keys := make([]uint64, ledgerAppenders)
	for c := range keys {
		for log.ShardFor(keys[c]) != c%ledgerShards {
			keys[c]++
		}
	}
	sums := make([]clientSum, ledgerAppenders)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < ledgerAppenders; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rows := make([]audit.Row, ledgerRows)
			next := int64(1)
			for g := 0; g < d.groups; g++ {
				first := next
				for j := range rows {
					rows[j] = audit.Row{Table: "ops", Values: []any{next, int64(c), d.payload}}
					next++
				}
				s := time.Now()
				err := d.bridge.Call(func(env *asyncall.Env) error {
					tk, err := log.Stage(env, keys[c], rows)
					if err != nil {
						return err
					}
					if err := tk.Wait(env); err != nil {
						return err
					}
					return log.ManifestIfDue(env)
				})
				took := time.Since(s)
				ops.done(err)
				if err != nil {
					next = first
					continue
				}
				lat.add(took)
				for v := first; v < next; v++ {
					sums[c].count++
					sums[c].timeSum += v
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	want := map[int64]clientSum{}
	for c := range sums {
		want[int64(c)] = sums[c]
	}
	return want, elapsed
}

// follow starts a mirror against the feed and times its catch-up to the
// staged entry count.
func (d *ledgerDeployment) follow(addr, name string, staged int) (time.Duration, mirror.Status, error) {
	ctx := context.Background()
	t0 := time.Now()
	m, err := mirror.Start(ctx, mirror.Config{
		Addr: addr, Name: name, Pub: d.encl.PublicKey(), BackoffMin: 10 * time.Millisecond,
	})
	if err != nil {
		return 0, mirror.Status{}, fmt.Errorf("mirror start: %w", err)
	}
	defer m.Stop(ctx)
	for {
		s := m.Status()
		switch {
		case s.Err != nil:
			return time.Since(t0), s, fmt.Errorf("mirror: %w", s.Err)
		case s.CaughtUp && s.LagBytes == 0 && s.Entries >= staged:
			return time.Since(t0), s, nil
		case time.Since(t0) > followTimeout:
			return time.Since(t0), s, fmt.Errorf("mirror stuck at %d of %d entries", s.Entries, staged)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkVerified is the offline-verify oracle: the verified count equals
// what the benchmark staged.
func checkVerified(rep *audit.Report, staged int) error {
	if rep.TotalEntries != staged {
		return fmt.Errorf("verify counted %d entries, %d staged", rep.TotalEntries, staged)
	}
	return nil
}

// checkSums is the recovery oracle: per client, the recovered database's
// COUNT(*) and SUM(time) equal the benchmark's own counts.
func checkSums(log *audit.ShardedLog, want map[int64]clientSum) error {
	res, err := log.Query(`SELECT client, COUNT(*), SUM(time) FROM ops GROUP BY client`)
	if err != nil {
		return err
	}
	got := map[int64]clientSum{}
	for _, row := range res.Rows {
		if len(row) != 3 || row[0].Kind() != sqldb.KindInt || row[1].Kind() != sqldb.KindInt || row[2].Kind() != sqldb.KindInt {
			return fmt.Errorf("unexpected row %v", row)
		}
		got[row[0].Int64()] = clientSum{row[1].Int64(), row[2].Int64()}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d clients in the database, %d staged", len(got), len(want))
	}
	for c, w := range want {
		if got[c] != w {
			return fmt.Errorf("client %d: count/sum %d/%d, staged %d/%d", c, got[c].count, got[c].timeSum, w.count, w.timeSum)
		}
	}
	return nil
}

// tamperChecks verifies damaged copies of a closed log set: a flipped byte
// inside an entry must fail with ErrTampered, and one shard cut back to an
// earlier commit point must fail the set with ErrBadCounter, because a
// later manifest attests more.
func tamperChecks(dir, name string, pub *ecdsa.PublicKey) []string {
	var bad []string
	check := func(what string, want error, damage func(copyDir string) error) {
		cp := dir + "-" + what
		defer os.RemoveAll(cp)
		if err := copyDir(dir, cp); err != nil {
			bad = append(bad, fmt.Sprintf("%s: copy: %v", what, err))
			return
		}
		if err := damage(cp); err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", what, err))
			return
		}
		_, err := audit.VerifyPathReport(context.Background(), cp, audit.StreamOptions{
			VerifyOptions: audit.VerifyOptions{Pub: pub, Name: name},
		})
		if !errors.Is(err, want) {
			bad = append(bad, fmt.Sprintf("%s: verify returned %v, want %v", what, err, want))
		}
	}
	check("flip", audit.ErrTampered, func(cp string) error {
		return flipEntryByte(filepath.Join(cp, audit.ShardName(name, 0)+".lseal"))
	})
	check("cut", audit.ErrBadCounter, func(cp string) error {
		return cutToEarlierCommit(filepath.Join(cp, audit.ShardName(name, 1)+".lseal"))
	})
	return bad
}

// Record framing of a log file, read here independently of the program:
// a 12-byte magic, then records of one type byte, a 4-byte big-endian
// length and the payload. 'E' records carry entries, 'S' records close a
// commit point.
const logMagicLen = 12

type rec struct {
	typ        byte
	start, end int64 // payload bounds
}

func readRecs(path string) ([]byte, []rec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var recs []rec
	for off := int64(logMagicLen); off+5 <= int64(len(data)); {
		n := int64(data[off+1])<<24 | int64(data[off+2])<<16 | int64(data[off+3])<<8 | int64(data[off+4])
		start := off + 5
		if start+n > int64(len(data)) {
			return nil, nil, fmt.Errorf("%s: record at %d overruns the file", path, off)
		}
		recs = append(recs, rec{data[off], start, start + n})
		off = start + n
	}
	return data, recs, nil
}

// flipEntryByte inverts the last payload byte of the file's third entry.
func flipEntryByte(path string) error {
	data, recs, err := readRecs(path)
	if err != nil {
		return err
	}
	seen := 0
	for _, r := range recs {
		if r.typ == 'E' && r.end > r.start {
			if seen++; seen == 3 {
				data[r.end-1] ^= 0xFF
				return os.WriteFile(path, data, 0o644)
			}
		}
	}
	return fmt.Errorf("%s: fewer than 3 entries", path)
}

// cutToEarlierCommit truncates the file right after its middle commit
// point, a prefix that verifies on its own.
func cutToEarlierCommit(path string) error {
	_, recs, err := readRecs(path)
	if err != nil {
		return err
	}
	var commits []int64
	for _, r := range recs {
		if r.typ == 'S' {
			commits = append(commits, r.end)
		}
	}
	if len(commits) < 3 {
		return fmt.Errorf("%s: only %d commit points", path, len(commits))
	}
	return os.Truncate(path, commits[len(commits)/2])
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// settle does nothing: audit-ledger reads its heap inside each round,
// while the log is open.
func (*ledgerDeployment) settle(*opLog) {}

func (d *ledgerDeployment) finish() []string {
	d.close()
	return d.checks
}

func (d *ledgerDeployment) close() {
	if d.closed {
		return
	}
	d.closed = true
	if d.next != nil {
		d.next.discard()
	}
	d.bridge.Close()
}
