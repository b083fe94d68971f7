package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net"
	"time"

	"libseal/internal/asyncall"
	"libseal/internal/core"
	"libseal/internal/enclave"
	"libseal/internal/httpparse"
	"libseal/internal/netsim"
	"libseal/internal/services/apache"
	"libseal/internal/testutil"
	"libseal/internal/tlsterm"
)

// tls-static settings: LibSEAL-process (enclave TLS, no audit log) serving
// one fixed body; each connection reconnects after tlsPerConn requests so
// handshakes stay a fixed share of the work.
const (
	tlsClients     = 2
	tlsPerConn     = 20
	tlsContentSize = 4096
)

type tlsWorkload struct{}

// tlsDeployment is Apache serving one fixed body on enclave TLS, with
// LibSEAL terminating TLS and no audit module.
type tlsDeployment struct {
	net     *netsim.Network
	bridge  *asyncall.Bridge
	seal    *core.LibSEAL
	front   *apache.Server
	clients []*testutil.HTTPClient
	size    int
	sum     [32]byte
	closed  bool
}

// tlsContent generates the served body from the seed.
func tlsContent(seed int64, size int) []byte {
	b := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func (tlsWorkload) setup(o options, dir string) (deployment, error) {
	content := tlsContent(o.seed, tlsContentSize)
	d := &tlsDeployment{net: netsim.NewNetwork(), size: len(content), sum: sha256.Sum256(content)}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()
	env, err := testutil.NewCertEnv("libseal.test")
	if err != nil {
		return nil, err
	}
	if _, d.bridge, err = testutil.NewBridge(testutil.BridgeOptions{
		MaxThreads: 32, Cost: enclave.DefaultCostModel(),
	}); err != nil {
		return nil, err
	}
	if d.seal, err = core.New(d.bridge, core.Config{
		TLS: tlsterm.LibraryConfig{Cert: env.Cert, Key: env.Key, Opts: tlsterm.AllOptimizations()},
	}); err != nil {
		return nil, err
	}
	if d.front, err = serve(d.net, "front:443", apache.Config{
		Terminator: d.seal.TLS().Terminator(),
		Handler:    &apache.StaticHandler{Content: content},
		KeepAlive:  true,
	}); err != nil {
		return nil, err
	}
	cfg := env.ClientConfig("libseal.test")
	for w := 0; w < tlsClients; w++ {
		c := testutil.NewHTTPClient(func() (net.Conn, error) { return d.net.Dial("front:443") }, cfg, true)
		d.clients = append(d.clients, c)
		if err := firstRequest(c, "/static"); err != nil {
			return nil, err
		}
	}
	ok = true
	return d, nil
}

// firstRequest connects a client and checks that the service answers.
func firstRequest(c *testutil.HTTPClient, path string) error {
	rsp, err := c.Do(httpparse.NewRequest("GET", path, nil))
	if err != nil {
		return fmt.Errorf("first request: %w", err)
	}
	if rsp.Status != 200 {
		return fmt.Errorf("first request: status %d", rsp.Status)
	}
	return nil
}

// round serves one connection's worth of requests and then disconnects, so
// the next round starts with a fresh handshake.
func (d *tlsDeployment) round(w int, ops *opLog, rec func(lat time.Duration)) {
	c := d.clients[w]
	defer c.Close()
	for i := 0; i < tlsPerConn; i++ {
		t0 := time.Now()
		rsp, err := c.Do(httpparse.NewRequest("GET", "/static", nil))
		lat := time.Since(t0)
		if err == nil && rsp.Status != 200 {
			err = fmt.Errorf("GET /static: status %d: %.120q", rsp.Status, rsp.Body)
		}
		ops.done(err)
		if err != nil {
			c.Close()
			continue
		}
		rec(lat)
		if err := checkBody(rsp.Body, d.size, d.sum); err != nil {
			ops.wrong("%v", err)
		}
	}
}

// checkBody is the tls-static oracle: the body has the generated
// content's length and SHA-256.
func checkBody(body []byte, size int, sum [32]byte) error {
	if len(body) != size {
		return fmt.Errorf("body of %d bytes, want %d", len(body), size)
	}
	if got := sha256.Sum256(body); !bytes.Equal(got[:], sum[:]) {
		return fmt.Errorf("body SHA-256 %x, want %x", got[:8], sum[:8])
	}
	return nil
}

func (d *tlsDeployment) warm(ops *opLog) error {
	runClients(len(d.clients), 0, func(w int, rec func(time.Duration)) { d.round(w, ops, rec) })
	return nil
}

func (d *tlsDeployment) measure(dur time.Duration, ops *opLog) (*phase, error) {
	return runClients(len(d.clients), dur, func(w int, rec func(time.Duration)) { d.round(w, ops, rec) }), nil
}

// settle stops serving and drops the simulated network.
func (d *tlsDeployment) settle(*opLog) {
	d.stopServing()
	d.net = nil
}

func (d *tlsDeployment) stopServing() {
	for _, c := range d.clients {
		c.Close()
	}
	if d.front != nil {
		d.front.Close()
		d.front = nil
	}
}

func (d *tlsDeployment) finish() []string {
	d.close()
	return nil
}

func (d *tlsDeployment) close() {
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
