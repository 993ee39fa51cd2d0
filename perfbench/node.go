package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"medley/internal/harness"
	"medley/internal/service"
)

// saturateSessions is how many SubmitCtx callers service-saturate runs:
// enough requests per 1 ms tick to keep both CPUs of a 2-CPU machine busy,
// and well under the 4096-request pool, so nothing is shed.
const saturateSessions = 512

// nodeConfig is medleyd's default configuration: 1<<16 buckets per shard,
// a 4096-request pool, a 1 ms tick, a 4096-entry dedup window, a 4-shard
// change feed and group commit on.
func nodeConfig(be service.Backend) service.NodeConfig {
	return service.NodeConfig{
		Backend:    be,
		Service:    service.Config{PoolSize: 4096, Tick: time.Millisecond, DedupWindow: 4096},
		FeedShards: 4,
	}
}

const nodeBuckets = 1 << 16

// serviceMix is the repository's service-mixed scenario: Zipf(1.2) keys,
// 90/10 point mixes with transfers interleaved 4:1.
func serviceMix() (harness.Dist, harness.Mix, error) {
	sc, err := harness.LookupScenario("service-mixed")
	if err != nil {
		return harness.Dist{}, harness.Mix{}, err
	}
	return sc.Dist, sc.Phases[0].Mix, nil
}

// nodeRig is a service.Node over the store, with its sessions.
type nodeRig struct {
	st       store
	traced   *tracedBackend // nil when untraced
	node     *service.Node
	sessions []*session
	after    func(*session, int64) // traced span linking, nil when untraced

	// http-light only
	servers []*http.Server
	served  []chan struct{}
	drivers []*service.HTTPDriver
}

// newNodeRig builds the store, the sessions and the node. link, used only
// when traced, builds the span linker from the sessions.
func newNodeRig(seed int64, traced bool, sessions int, link func([]*session) linker) (*nodeRig, error) {
	dist, mix, err := serviceMix()
	if err != nil {
		return nil, err
	}
	keys := preloadKeys(seed)
	st, err := newStore(nodeBuckets, keys)
	if err != nil {
		return nil, err
	}
	r := &nodeRig{st: st}
	for i := 0; i < sessions; i++ {
		s := newSession(i, sessions, dist, mix, seed)
		if traced {
			s.slot = &slot{}
		}
		r.sessions = append(r.sessions, s)
	}
	preloadModels(sessionModels(r.sessions), keys)
	var be service.Backend = st
	if traced {
		r.traced = &tracedBackend{store: st, link: link(r.sessions)}
		be = r.traced
	}
	if r.node, err = service.NewNode(nodeConfig(be)); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *nodeRig) window(d time.Duration) windowResult {
	return runWindow(r.sessions, d, r.after)
}

// check runs once every call has returned: every drawn commit ticket must
// have settled, and the store must hold exactly the acknowledged writes.
func (r *nodeRig) check() error {
	if err := verifyFeed(r.node.Feed()); err != nil {
		return err
	}
	return verifyState(sessionModels(r.sessions), r.st)
}

func (r *nodeRig) counters() counters {
	c := runtimeCounters()
	c.program = snapshot(r.node.Service().MetricsSnapshot())
	fs := r.node.Feed().Stats()
	c.feed = feedCounters{drawn: fs.Drawn, cancelled: fs.Cancelled, entries: fs.Entries}
	for _, d := range r.drivers {
		c.retries += d.Stats().Retries
	}
	if r.traced != nil {
		c.exec = r.traced.drainExec()
	}
	return c
}

// layerMetrics adds what both Node workloads share: core, kv exec spans,
// the service pipeline and the change feed.
func (r *nodeRig) layerMetrics(m metricSet, w *windowResult, before, after counters) {
	coreMetrics(m, w, before, after)
	ex := &after.exec
	m.usQuantiles("kv.exec_us", &ex.spans)
	m.ratio("kv.exec_busy_share", "ratio", float64(ex.busyNs), float64(w.elapsed)*float64(runtime.GOMAXPROCS(0)))
	m.ratio("kv.txns_per_exec_call", "txn/call", float64(ex.txns), float64(ex.calls))

	d := func(name string) float64 { return float64(after.program[name] - before.program[name]) }
	offered := d("svc_accepted") + d("svc_shed")
	m.ratio("service.batch_coalesce", "txn/batch", d("svc_batched_txns"), d("svc_batches"))
	if share := pathShares(before, after)[1]; !math.IsNaN(share) {
		m.set("service.group_handoff_share", "ratio", share)
	}
	m.ratio("service.shed_share", "ratio", d("svc_shed"), offered)
	m.ratio("service.dedup_claims_per_req", "claims/req", d("svc_dedup_claims"), offered)

	m.ratio("cdc.entries_per_write_txn", "entries/txn", float64(after.feed.entries-before.feed.entries), float64(w.writeTxns))
	m.ratio("cdc.cancel_share", "ratio", float64(after.feed.cancelled-before.feed.cancelled), float64(after.feed.drawn-before.feed.drawn))
}

func (r *nodeRig) close() {
	for i, srv := range r.servers {
		_ = srv.Close() // closes the listener and every connection
		<-r.served[i]
	}
	for _, d := range r.drivers {
		_ = d.Close()
	}
	r.node.Close()
}

// saturate is service-saturate: saturateSessions goroutines call
// SubmitCtx, each request with a unique ID as the HTTP client's carry.
type saturate struct{ *nodeRig }

func setupSaturate(seed int64, traced bool) (instance, error) {
	r, err := newNodeRig(seed, traced, saturateSessions, identityLinker)
	if err != nil {
		return nil, err
	}
	svc := r.node.Service()
	ctx := context.Background()
	for _, s := range r.sessions {
		prefix := []byte("s" + strconv.Itoa(s.tid) + "-")
		var seq uint64
		s.call = func(s *session) error {
			seq++
			id := string(strconv.AppendUint(prefix, seq, 36))
			return svc.SubmitCtx(ctx, id, s.kops, s.res[:len(s.kops)])
		}
	}
	if traced {
		r.after = linkInProc
	}
	return saturate{r}, nil
}

func (s saturate) layerMetrics(m metricSet, w *windowResult, before, after counters) {
	s.nodeRig.layerMetrics(m, w, before, after)
	m.usQuantiles("service.submit_us", &w.lat)
	m.usQuantiles("service.wait_us", &w.wait)
}

// httpLight is http-light: nproc HTTPDriver sessions, each over its own
// keep-alive connection to its own loopback listener serving the node's
// handler. One listener per session lets the traced run attribute every
// handler span to the session that caused it.
type httpLight struct{ *nodeRig }

func setupHTTP(seed int64, traced bool) (instance, error) {
	n := runtime.GOMAXPROCS(0)
	r, err := newNodeRig(seed, traced, n, fingerprintLinker)
	if err != nil {
		return nil, err
	}
	h := r.node.Handler()
	for _, s := range r.sessions {
		if err := r.serve(s, h); err != nil {
			r.close()
			return nil, err
		}
	}
	if traced {
		r.after = linkHTTP
	}
	return httpLight{r}, nil
}

// serve starts one loopback listener for s and points a driver session at
// it.
func (r *nodeRig) serve(s *session, h http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	if s.slot != nil {
		h = &tracedHandler{inner: h, slot: s.slot}
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns http.ErrServerClosed once closed
	}()
	r.servers = append(r.servers, srv)
	r.served = append(r.served, done)
	drv := service.NewHTTPDriver("http://" + ln.Addr().String())
	r.drivers = append(r.drivers, drv)
	if err := drv.Start(); err != nil {
		return fmt.Errorf("driver: %w", err)
	}
	sess, err := drv.NewSession()
	if err != nil {
		return err
	}
	s.call = func(s *session) error { return sess.Do(s.kops, s.res[:len(s.kops)]) }
	return nil
}

func (h httpLight) layerMetrics(m metricSet, w *windowResult, before, after counters) {
	h.nodeRig.layerMetrics(m, w, before, after)
	m.usQuantiles("http.rtt_us", &w.lat)
	m.usQuantiles("http.handler_us", &w.handler)
	if w.transport.n > 0 {
		m.set("http.transport_us_p50", "us", w.transport.quantile(0.5)/1e3)
	}
	if w.handlerSelf.n > 0 {
		m.set("http.handler_self_us_p50", "us", w.handlerSelf.quantile(0.5)/1e3)
	}
	m.ratio("http.retries_per_kreq", "1/kreq", 1000*float64(after.retries-before.retries), float64(w.calls))
}
