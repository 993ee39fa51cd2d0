package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"medley/internal/harness"
	"medley/internal/kv"
)

// Sizing shared by every workload: the paper's 1M-key range, half of it
// preloaded with key == value.
const (
	keyRange = 1 << 20
	preloads = keyRange / 2
	// system is the store under every workload: Medley's hash map over 8
	// shards under one transaction manager.
	system = "medley-hash@8"
)

// preloadKeys draws the preloaded half of the key range from the seed.
func preloadKeys(seed int64) []uint64 {
	perm := rand.New(rand.NewSource(seed)).Perm(keyRange)[:preloads]
	keys := make([]uint64, len(perm))
	for i, k := range perm {
		keys[i] = uint64(k)
	}
	return keys
}

// paperMix is the paper's 2:1:1 get:insert:remove in 1-10-op transactions,
// with one transfer in five transactions.
var paperMix = harness.Mix{
	Ratio: harness.Ratio{Get: 2, Insert: 1, Remove: 1}, TxMin: 1, TxMax: 10,
	Mixed: 4, Transfer: 1,
}

// store is the part of a harness system the workloads use. It is also
// what the traced backend forwards: executors, plus the three capabilities
// the service and the benchmark probe a backend for.
type store interface {
	harness.ExecutorSystem
	harness.Snapshotter
	harness.ShardCounter
	harness.MetricsSnapshotter
}

func newStore(buckets int, keys []uint64) (store, error) {
	sys, err := harness.NewSystem(system, harness.SystemOpts{Buckets: buckets, KeyRange: keyRange})
	if err != nil {
		return nil, err
	}
	st, ok := sys.(store)
	if !ok {
		return nil, fmt.Errorf("system %s lacks executors, snapshots, shard counts or metrics", system)
	}
	st.Preload(keys)
	return st, nil
}

// embedded is embedded-uniform: nproc sessions, each calling ExecBatch on
// its own executor. The service, the wire and the change feed are
// bypassed.
type embedded struct {
	st       store
	stop     func()
	sessions []*session
}

func setupEmbedded(seed int64, traced bool) (instance, error) {
	keys := preloadKeys(seed)
	// 1M buckets in total, as in the paper: each shard gets 1/8.
	st, err := newStore(1<<17, keys)
	if err != nil {
		return nil, err
	}
	e := &embedded{st: st, stop: st.Start()}
	n := runtime.GOMAXPROCS(0)
	for i := 0; i < n; i++ {
		s := newSession(i, n, harness.Dist{Kind: harness.DistUniform}, paperMix, seed)
		var ex kv.Executor
		s.call = func(s *session) error {
			if ex == nil {
				ex = st.NewExecutor() // created on the first call, reused by every window
			}
			return ex.ExecBatch(s.kops, s.res[:len(s.kops)])
		}
		e.sessions = append(e.sessions, s)
	}
	preloadModels(sessionModels(e.sessions), keys)
	return e, nil
}

func (e *embedded) window(d time.Duration) windowResult {
	return runWindow(e.sessions, d, nil)
}

func (e *embedded) check() error { return verifyState(sessionModels(e.sessions), e.st) }

func (e *embedded) counters() counters {
	c := runtimeCounters()
	c.program = snapshot(e.st.MetricsSnapshot())
	return c
}

// layerMetrics: the session's call is the ExecBatch span itself.
func (e *embedded) layerMetrics(m metricSet, w *windowResult, before, after counters) {
	coreMetrics(m, w, before, after)
	m.usQuantiles("kv.exec_us", &w.lat)
	m.ratio("kv.exec_busy_share", "ratio", float64(w.callNs), float64(w.elapsed)*float64(runtime.GOMAXPROCS(0)))
	m.ratio("kv.txns_per_exec_call", "txn/call", float64(w.txns), float64(w.calls))
}

func (e *embedded) close() { e.stop() }

func sessionModels(sessions []*session) []*model {
	ms := make([]*model, len(sessions))
	for i, s := range sessions {
		ms[i] = s.model
	}
	return ms
}

func snapshot(ms []harness.Metric) map[string]uint64 {
	out := make(map[string]uint64, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Value
	}
	return out
}

// coreMetrics derives the transaction-core and EBR metrics from the
// store's counter deltas; each ratio is left out when its base is zero.
func coreMetrics(m metricSet, w *windowResult, before, after counters) {
	d := func(name string) float64 { return float64(after.program[name] - before.program[name]) }
	commits := d("tx_commits")
	m.ratio("core.commits_per_attempt", "ratio", commits, d("tx_begins"))
	m.ratio("core.helps_per_ktxn", "1/ktxn", 1000*d("tx_help_events"), float64(w.txns))
	m.ratio("core.fastpath_share", "ratio", d("tx_commits_fastpath"), commits)
	if share := pathShares(before, after)[0]; !math.IsNaN(share) {
		m.set("core.group_share", "ratio", share)
	}
	m.ratio("core.txns_per_group", "txn/group", d("tx_grouped_txns"), d("tx_group_commits"))
	m.ratio("ebr.pool_hit_ratio", "ratio", d("pool_hits"), d("pool_gets"))
	m.ratio("ebr.reclaim_ratio", "ratio", d("ebr_reclaimed"), d("ebr_retired"))
}
