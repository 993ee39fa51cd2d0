package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"medley/internal/harness"
	"medley/internal/kv"
	"medley/internal/service"
)

var epoch = time.Now()

// now is monotonic nanoseconds since process start.
func now() int64 { return int64(time.Since(epoch)) }

// maxOps bounds a generated transaction (the mixes draw at most 10 ops);
// sessions size their op slices once so the slice identity is stable.
const maxOps = 16

// session is one closed-loop caller: it generates a transaction, calls the
// entry point, waits for the reply, journals the acknowledged writes and
// repeats. Everything it records is its own until the window ends.
type session struct {
	tid   int
	gen   *harness.TxGen
	model *model
	kops  []kv.Op
	res   []kv.Result
	call  func(s *session) error
	slot  *slot // traced runs only

	st        windowResult // this window's record (elapsed unused)
	seqBefore uint64       // handler spans recorded before this call (HTTP)
}

func newSession(tid, senders int, dist harness.Dist, mix harness.Mix, seed int64) *session {
	return &session{
		tid:   tid,
		gen:   harness.NewTxGen(dist, keyRange, mix, seed+int64(tid)*7919+1),
		model: newModel(tid, senders),
		kops:  make([]kv.Op, 0, maxOps),
		res:   make([]kv.Result, maxOps),
	}
}

// reset clears the session's record, keeping the histogram rows it has
// allocated.
func (s *session) reset() {
	st := &s.st
	for _, h := range []*hist{&st.lat, &st.wait, &st.handler, &st.transport, &st.handlerSelf} {
		h.reset()
	}
	*st = windowResult{lat: st.lat, wait: st.wait, handler: st.handler, transport: st.transport,
		handlerSelf: st.handlerSelf}
}

// loop runs calls until stop is set. after, when non-nil, runs after every
// successful call with its duration (traced runs link spans there).
func (s *session) loop(stop *atomic.Bool, after func(s *session, d int64)) {
	start := now()
	st := &s.st
	for !stop.Load() {
		ops := s.gen.Next()
		s.model.partition(ops)
		s.kops = harness.KvOps(s.kops, ops)
		if s.slot != nil {
			s.slot.execNs.Store(0)
			s.slot.fp.Store(fingerprint(s.kops))
			s.seqBefore = s.slot.handlerSeq.Load()
		}
		t0 := now()
		err := s.call(s)
		d := now() - t0
		st.calls++
		st.callNs += d
		if err != nil {
			st.failed++
			st.lat.add(histMax) // a failed call counts above every latency
			if service.IsInDoubt(err) {
				s.model.taint(s.kops)
			}
			continue
		}
		st.lat.add(d)
		st.txns++
		if s.model.commitWrites(s.kops) {
			st.writeTxns++
		}
		if after != nil {
			after(s, d)
		}
	}
	st.wallNs = now() - start
}

// windowResult is what sessions recorded over one window.
type windowResult struct {
	elapsed   time.Duration
	lat       hist
	calls     uint64
	failed    uint64
	txns      uint64
	writeTxns uint64
	callNs    int64
	wallNs    int64

	wait, handler, transport, handlerSelf hist
	unlinked                              uint64
}

func (w *windowResult) tps() float64 { return float64(w.txns) / w.elapsed.Seconds() }

// runWindow starts every session behind one gate, stops them after d and
// merges what they recorded.
func runWindow(sessions []*session, d time.Duration, after func(*session, int64)) windowResult {
	var stop atomic.Bool
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for _, s := range sessions {
		s.reset()
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			<-gate
			s.loop(&stop, after)
		}(s)
	}
	t0 := time.Now()
	close(gate)
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	w := windowResult{elapsed: time.Since(t0)}
	for _, s := range sessions {
		w.add(&s.st)
	}
	return w
}

// add folds o into w.
func (w *windowResult) add(o *windowResult) {
	w.elapsed += o.elapsed
	w.lat.merge(&o.lat)
	w.calls += o.calls
	w.failed += o.failed
	w.txns += o.txns
	w.writeTxns += o.writeTxns
	w.callNs += o.callNs
	w.wallNs += o.wallNs
	w.wait.merge(&o.wait)
	w.handler.merge(&o.handler)
	w.transport.merge(&o.transport)
	w.handlerSelf.merge(&o.handlerSelf)
	w.unlinked += o.unlinked
}

// subWindow is the length of the windows a measurement is cut into. The
// end-to-end figures are medians over them, so a burst of interference
// from outside the process moves one sub-window, not the result.
const subWindow = time.Second

// measurement is a measured stretch: its sub-windows and their sum.
type measurement struct {
	total windowResult
	subs  []windowResult
}

func measure(inst instance, d time.Duration) measurement {
	n := int(d / subWindow)
	if n < 1 {
		n = 1
	}
	var m measurement
	for i := 0; i < n; i++ {
		w := inst.window(d / time.Duration(n))
		m.total.add(&w)
		m.subs = append(m.subs, w)
	}
	return m
}

// median returns the median over the sub-windows of f.
func (m *measurement) median(f func(w *windowResult) float64) float64 {
	xs := make([]float64, len(m.subs))
	for i := range m.subs {
		xs[i] = f(&m.subs[i])
	}
	return median(xs)
}

// linkInProc is the traced service-saturate hook: the call's wait is its
// submit time minus its linked exec span.
func linkInProc(s *session, d int64) {
	ex := s.slot.execNs.Load()
	if ex == 0 {
		s.st.unlinked++
		return
	}
	s.st.wait.add(d - ex)
}

// linkHTTP is the traced http-light hook: it waits for the handler span of
// this call, then splits the round trip into transport (rtt - handler)
// and the handler's own time (handler - exec).
func linkHTTP(s *session, d int64) {
	for s.slot.handlerSeq.Load() <= s.seqBefore {
		runtime.Gosched()
	}
	h := s.slot.handlerNs.Load()
	s.st.handler.add(h)
	s.st.transport.add(d - h)
	ex := s.slot.execNs.Load()
	if ex == 0 {
		s.st.unlinked++
		return
	}
	s.st.handlerSelf.add(h - ex)
}
