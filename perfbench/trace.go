package main

import (
	"net/http"
	"sync"
	"sync/atomic"

	"medley/internal/cdc"
	"medley/internal/kv"
)

// This file holds the traced run's wrappers. They time the calls into a
// layer from outside the program: the backend's executors (ExecBatch and
// ExecGroup, which the service's workers call) and the node's HTTP
// handler. Each wrapper forwards exactly the capabilities of what it
// wraps, because the service type-asserts them: an executor wrapper that
// hid kv.GroupExecutor or SetChangeFeed would silently send the traced run
// down another path.

// slot links one session's in-flight call to the spans the wrappers
// record for it. A session has at most one call in flight.
type slot struct {
	execNs     atomic.Int64  // linked exec span, 0 until recorded
	fp         atomic.Uint64 // fingerprint of the call's ops (HTTP link)
	handlerNs  atomic.Int64  // last handler span (HTTP)
	handlerSeq atomic.Uint64 // handler spans recorded (HTTP)
}

// linker finds the session slot a batch executed by a worker belongs to,
// or nil.
type linker func(ops []kv.Op) *slot

// identityLinker links by the identity of the ops slice: SubmitCtx hands
// the caller's slice to the worker unchanged, and each session reuses one
// slice for every call.
func identityLinker(sessions []*session) linker {
	m := make(map[*kv.Op]*slot, len(sessions))
	for _, s := range sessions {
		m[&s.kops[:1][0]] = s.slot
	}
	return func(ops []kv.Op) *slot {
		if len(ops) == 0 {
			return nil
		}
		return m[&ops[0]]
	}
}

// fingerprintLinker links by the content of the ops: the HTTP handler
// decodes a fresh slice, so identity is lost on the wire. Two sessions
// with identical batches in flight take the spans in turn, which costs
// nothing: identical batches have the same work.
func fingerprintLinker(sessions []*session) linker {
	slots := make([]*slot, len(sessions))
	for i, s := range sessions {
		slots[i] = s.slot
	}
	return func(ops []kv.Op) *slot {
		fp := fingerprint(ops)
		for _, sl := range slots {
			if sl.fp.Load() == fp && sl.execNs.Load() == 0 {
				return sl
			}
		}
		return nil
	}
}

// fingerprint hashes what the wire carries of each op (FNV-1a): gets and
// deletes travel without a value.
func fingerprint(ops []kv.Op) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	for i := range ops {
		mix(uint64(ops[i].Kind))
		mix(ops[i].Key)
		if ops[i].Kind == kv.OpPut || ops[i].Kind == kv.OpAdd || ops[i].Kind == kv.OpScan {
			mix(ops[i].Val)
		}
	}
	return h
}

// execStats is what one traced executor saw.
type execStats struct {
	spans  hist
	calls  uint64
	txns   uint64
	busyNs int64
}

func (e *execStats) record(d int64, txns int) {
	e.spans.add(d)
	e.calls++
	e.txns += uint64(txns)
	e.busyNs += d
}

// tracedExec wraps an executor that has ExecBatch only.
type tracedExec struct {
	inner kv.Executor
	link  linker
	execStats
}

func (e *tracedExec) ExecBatch(ops []kv.Op, res []kv.Result) error {
	t0 := now()
	err := e.inner.ExecBatch(ops, res)
	d := now() - t0
	e.record(d, 1)
	if sl := e.link(ops); sl != nil {
		sl.execNs.Store(d)
	}
	return err
}

// feedAttacher is the executor capability the service attaches its change
// feed through.
type feedAttacher interface {
	SetChangeFeed(*cdc.Feed) bool
}

// tracedStoreExec wraps a store executor that can also group-commit and
// take a change feed, and forwards both.
type tracedStoreExec struct {
	*tracedExec
	group kv.GroupExecutor
	feed  feedAttacher
}

// ExecGroup times the whole group: every member's result is released when
// the group returns, so the group's span is each member's exec span.
func (e *tracedStoreExec) ExecGroup(batches []kv.Batch, errs []error) {
	t0 := now()
	e.group.ExecGroup(batches, errs)
	d := now() - t0
	e.record(d, len(batches))
	for i := range batches {
		if sl := e.link(batches[i].Ops); sl != nil {
			sl.execNs.Store(d)
		}
	}
}

func (e *tracedStoreExec) SetChangeFeed(f *cdc.Feed) bool { return e.feed.SetChangeFeed(f) }

// tracedBackend wraps a backend so that every executor it hands out is
// traced. Executors are created on the service's worker goroutines; the
// stats they record are read only once the window's calls have returned.
type tracedBackend struct {
	store
	link linker

	mu    sync.Mutex
	execs []*tracedExec
}

func (b *tracedBackend) NewExecutor() kv.Executor {
	inner := b.store.NewExecutor()
	te := &tracedExec{inner: inner, link: b.link}
	b.mu.Lock()
	b.execs = append(b.execs, te)
	b.mu.Unlock()
	g, canGroup := inner.(kv.GroupExecutor)
	f, canFeed := inner.(feedAttacher)
	switch {
	case canGroup && canFeed:
		return &tracedStoreExec{tracedExec: te, group: g, feed: f}
	case !canGroup && !canFeed:
		return te
	}
	panic("perfbench: executor with only one of ExecGroup and SetChangeFeed has no traced wrapper")
}

// drainExec merges and resets the executors' stats: it returns the spans
// recorded since the previous drain.
func (b *tracedBackend) drainExec() execStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	var t execStats
	for _, e := range b.execs {
		t.spans.merge(&e.spans)
		t.calls += e.calls
		t.txns += e.txns
		t.busyNs += e.busyNs
		e.execStats = execStats{}
	}
	return t
}

// tracedHandler times the node's HTTP handler for one session's listener.
type tracedHandler struct {
	inner http.Handler
	slot  *slot
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := now()
	h.inner.ServeHTTP(w, r)
	// The session waits for handlerSeq to move before it reads the span.
	h.slot.handlerNs.Store(now() - t0)
	h.slot.handlerSeq.Add(1)
}
