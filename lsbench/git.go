package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	"libseal/internal/asyncall"
	"libseal/internal/audit"
	"libseal/internal/core"
	"libseal/internal/enclave"
	"libseal/internal/httpparse"
	"libseal/internal/netsim"
	"libseal/internal/resilience"
	"libseal/internal/rote"
	"libseal/internal/services/apache"
	"libseal/internal/services/gitserver"
	"libseal/internal/ssm/gitssm"
	"libseal/internal/testutil"
	"libseal/internal/tlsterm"
)

// git-audit settings. The log settings are libseal-server's defaults
// (disk mode, one shard, no group commit, checks and trims every 25
// pairs, breaker after 5 quorum failures, staging budget 256).
const (
	gitClients    = 2
	gitRound      = 10 // pushes per round
	gitCheckEvery = 25
	// gitBackendCost is the simulated Git backend's CPU work per request.
	// It is small so that LibSEAL, not the backend spin, dominates.
	gitBackendCost = 100 * time.Microsecond
)

type gitWorkload struct{}

// gitDeployment is Apache in reverse-proxy mode on enclave TLS in front of
// the Git backend, auditing through the Git SSM into a disk-mode log.
type gitDeployment struct {
	net     *netsim.Network
	encl    *enclave.Enclave
	bridge  *asyncall.Bridge
	group   *rote.Group
	seal    *core.LibSEAL
	front   *apache.Server
	backend *apache.Server
	dir     string
	seed    int64
	clients []*gitClient
	closed  bool
}

// gitClient is one persistent client pushing to its own repository. It
// remembers what it pushed, which is the oracle for the log's content.
type gitClient struct {
	http *testutil.HTTPClient
	repo string
	tag  string
	n    int    // pushes so far
	last string // commit ID of the last push
}

func (gitWorkload) setup(o options, dir string) (deployment, error) {
	d := &gitDeployment{net: netsim.NewNetwork(), dir: dir, seed: o.seed}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	env, err := testutil.NewCertEnv("libseal.test")
	if err != nil {
		return nil, err
	}
	d.encl, d.bridge, err = testutil.NewBridge(testutil.BridgeOptions{
		MaxThreads: 32, Cost: enclave.DefaultCostModel(),
	})
	if err != nil {
		return nil, err
	}
	if d.group, err = rote.NewGroup(1, 0); err != nil {
		return nil, err
	}
	prot := resilience.NewBreakerProtector("rote.breaker", d.group, resilience.BreakerConfig{
		Threshold: 5, Cooldown: 5 * time.Second,
	})
	d.seal, err = core.New(d.bridge, core.Config{
		TLS:               tlsterm.LibraryConfig{Cert: env.Cert, Key: env.Key, Opts: tlsterm.AllOptimizations()},
		Module:            gitssm.New(),
		AuditMode:         audit.ModeDisk,
		AuditDir:          dir,
		AuditFS:           pageCacheFS{},
		Protector:         prot,
		CheckEvery:        gitCheckEvery,
		CheckMinInterval:  time.Second,
		DegradedLimit:     64,
		AnchorTimeout:     2 * time.Second,
		RecoverMaxLag:     1,
		AuditMaxStaged:    256,
		AuditAdmitTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}

	backend := gitserver.NewServer()
	backend.ProcessingCost = gitBackendCost
	if d.backend, err = serve(d.net, "git-backend:80", apache.Config{
		Terminator: tlsterm.PlainTerminator{}, Handler: backend.Handler(),
	}); err != nil {
		return nil, err
	}
	if d.front, err = serve(d.net, "front:443", apache.Config{
		Terminator: d.seal.TLS().Terminator(),
		Handler:    &apache.ReverseProxy{Dial: func() (net.Conn, error) { return d.net.Dial("git-backend:80") }},
		KeepAlive:  true,
	}); err != nil {
		return nil, err
	}

	cfg := env.ClientConfig("libseal.test")
	for w := 0; w < gitClients; w++ {
		d.clients = append(d.clients, &gitClient{
			http: testutil.NewHTTPClient(func() (net.Conn, error) { return d.net.Dial("front:443") }, cfg, true),
			repo: fmt.Sprintf("r%d", w),
			tag:  fmt.Sprintf("%016x%d", uint64(o.seed), w),
		})
	}
	// The deployment is up once each client has its connection and an
	// answer to a first request.
	for _, c := range d.clients {
		first := &opLog{}
		c.push(first, func(time.Duration) {})
		if errs := first.firstErrors(); len(errs) > 0 {
			return nil, fmt.Errorf("first push: %s", errs[0])
		}
	}
	ok = true
	return d, nil
}

// round sends one round of pushes.
func (c *gitClient) round(ops *opLog, rec func(lat time.Duration)) {
	for i := 0; i < gitRound; i++ {
		c.push(ops, rec)
	}
}

// push sends one push of the next commit. Ref advertisements are left out
// of the mix: a GET through the reverse proxy fails now and then (see
// README, "Left out").
func (c *gitClient) push(ops *opLog, rec func(lat time.Duration)) {
	c.n++
	cid := fmt.Sprintf("c%s%08d", c.tag, c.n)
	req := httpparse.NewRequest("POST", "/git/"+c.repo+"/git-receive-pack", []byte("update main "+cid+"\n"))
	t0 := time.Now()
	rsp, err := c.http.Do(req)
	lat := time.Since(t0)
	if err == nil && rsp.Status != 200 {
		err = fmt.Errorf("POST %s: status %d: %.120q", req.Path, rsp.Status, rsp.Body)
	}
	ops.done(err)
	if err != nil {
		// The connection state is unknown after a failure, and so is
		// whether the commit landed; the log check skips the repository
		// until a later push succeeds.
		c.http.Close()
		c.last = ""
		return
	}
	c.last = cid
	rec(lat)
	if string(rsp.Body) != "ok" {
		ops.wrong("%s: push reply %q", c.repo, rsp.Body)
	}
}

func (d *gitDeployment) warm(ops *opLog) error {
	runClients(len(d.clients), 0, func(w int, rec func(time.Duration)) { d.clients[w].round(ops, rec) })
	return nil
}

func (d *gitDeployment) measure(dur time.Duration, ops *opLog) (*phase, error) {
	ph := runClients(len(d.clients), dur, func(w int, rec func(time.Duration)) { d.clients[w].round(ops, rec) })
	ph.entries = ph.ops
	return ph, nil
}

// settle stops serving and drops the simulated network and the Git
// backend. The backend keeps every pushed commit, about 7 MiB over a 20 s
// run, so a reading that included it would grow with the requests served
// and read a faster LibSEAL as a larger heap. The log oracle needs
// neither.
func (d *gitDeployment) settle(*opLog) {
	d.stopServing()
	d.net = nil
}

// finish closes the service and verifies its log strictly: chain,
// signatures under the enclave key, counter freshness against the group,
// and that the last retained update of each repository is what its
// client last pushed.
func (d *gitDeployment) finish() []string {
	var bad []string
	violations := len(d.seal.Violations())
	gaps := d.seal.AuditStatus().Gaps
	d.stopServing()
	seal := d.seal
	d.seal = nil
	if err := seal.Close(); err != nil {
		bad = append(bad, fmt.Sprintf("closing the audit log: %v", err))
	}
	if violations != 0 {
		bad = append(bad, fmt.Sprintf("%d invariant violations on an honest service", violations))
	}
	if gaps != 0 {
		bad = append(bad, fmt.Sprintf("%d degraded gaps", gaps))
	}
	bad = append(bad, verifyGitLog(d.dir, d.encl, d.group, d.lastPushed())...)
	d.close()
	return bad
}

func (d *gitDeployment) lastPushed() map[string]string {
	want := map[string]string{}
	for _, c := range d.clients {
		want[c.repo] = c.last
	}
	return want
}

// verifyGitLog is the post-run oracle of git-audit.
func verifyGitLog(dir string, encl *enclave.Enclave, group *rote.Group, want map[string]string) []string {
	got := map[string]string{}
	rep, err := audit.VerifyPathReport(context.Background(), dir, audit.StreamOptions{
		VerifyOptions: audit.VerifyOptions{Pub: encl.PublicKey(), Protector: group, Name: "git"},
		Workers:       runtime.GOMAXPROCS(0),
		OnSegment: func(s audit.SegmentInfo) error {
			for _, e := range s.Entries {
				if e.Table == "updates" && len(e.Values) == 5 {
					got[e.Values[1].TextVal()] = e.Values[3].TextVal()
				}
			}
			return nil
		},
	})
	if err != nil {
		return []string{fmt.Sprintf("strict verify of the git log: %v", err)}
	}
	var bad []string
	if rep.TotalEntries == 0 {
		bad = append(bad, "strict verify: empty git log")
	}
	for repo, cid := range want {
		if cid != "" && got[repo] != cid {
			bad = append(bad, fmt.Sprintf("log's last update of %s is %q, client pushed %s", repo, got[repo], cid))
		}
	}
	return bad
}

func (d *gitDeployment) stopServing() {
	for _, c := range d.clients {
		c.http.Close()
	}
	if d.front != nil {
		d.front.Close()
		d.front = nil
	}
	if d.backend != nil {
		d.backend.Close()
		d.backend = nil
	}
}

func (d *gitDeployment) close() {
	if d.closed {
		return
	}
	d.closed = true
	d.stopServing()
	if d.seal != nil {
		d.seal.Close()
	}
	if d.bridge != nil {
		d.bridge.Close()
	}
}

// gitReplayPairs is the length of the SSM/SQL replay of the traced run.
const gitReplayPairs = 20000

func (d *gitDeployment) probeLayers() (map[string]metric, error) {
	pair, ins, err := replayGitPairs(gitReplayPairs, d.seed)
	if err != nil {
		return nil, fmt.Errorf("ssm/sqldb replay: %w", err)
	}
	return map[string]metric{"ssm.pair_us": {pair, "us"}, "sqldb.insert_us": {ins, "us"}}, nil
}
