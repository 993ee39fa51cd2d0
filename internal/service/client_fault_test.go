package service

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"medley/internal/faultnet"
	"medley/internal/harness"
	"medley/internal/kv"
)

// hijackKill yanks the connection under a response and closes it with
// RST: the client sees a transport error with no server answer — the
// "executed but the answer died" shape the retry machinery exists for.
func hijackKill(w http.ResponseWriter, r *http.Request) {
	_, _ = io.Copy(io.Discard, r.Body)
	hj, ok := w.(http.Hijacker)
	if !ok {
		panic("test server not hijackable")
	}
	conn, _, err := hj.Hijack()
	if err != nil {
		return
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	conn.Close()
}

// TestHTTPDriverRetriesTransportWithSameID pins the retry loop: transport
// errors are retried under MaxRetries with the SAME request ID on every
// attempt (the ID is what makes the server-side dedup window able to
// answer the retry), and the eventual success returns decoded results.
func TestHTTPDriverRetriesTransportWithSameID(t *testing.T) {
	var attempts atomic.Int64
	var mu sync.Mutex
	var ids []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req BatchRequest
		if err := readBatch(r, &req); err != nil {
			t.Errorf("decode: %v", err)
			return
		}
		mu.Lock()
		ids = append(ids, req.ID)
		mu.Unlock()
		if attempts.Add(1) <= 2 {
			hijackKill(w, r)
			return
		}
		_, _ = w.Write([]byte(`{"results":[{"val":7,"ok":true}]}`))
	}))
	defer ts.Close()

	d := NewHTTPDriverConfig(ts.URL, HTTPDriverConfig{
		MaxRetries: 3, BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond,
		BreakerThreshold: -1,
	})
	sess, err := d.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	res := make([]kv.Result, 1)
	if err := sess.Do([]kv.Op{{Kind: kv.OpGet, Key: 7}}, res); err != nil {
		t.Fatalf("err = %v, want nil after retries", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("%d attempts, want 3", got)
	}
	if got := d.Stats().Retries; got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
	if res[0].Val != 7 || !res[0].Ok {
		t.Errorf("result = %+v, want {7 true}", res[0])
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ids) != 3 || ids[0] == "" || len(ids[0]) > MaxRequestID {
		t.Fatalf("ids = %q, want 3 non-empty bounded ids", ids)
	}
	if ids[1] != ids[0] || ids[2] != ids[0] {
		t.Errorf("retries changed the request ID: %q", ids)
	}
}

func readBatch(r *http.Request, req *BatchRequest) error {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, req)
}

// TestHTTPDriverInDoubtAfterTransportExhaustion pins the in-doubt
// classification: when every attempt dies on the wire, the final error
// must say so — the request may have executed, and verifiers need to
// taint its keys rather than assume either outcome.
func TestHTTPDriverInDoubtAfterTransportExhaustion(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(hijackKill))
	defer ts.Close()

	d := NewHTTPDriverConfig(ts.URL, HTTPDriverConfig{
		MaxRetries: 1, BackoffBase: time.Millisecond, BreakerThreshold: -1,
	})
	sess, _ := d.NewSession()
	err := sess.Do([]kv.Op{{Kind: kv.OpPut, Key: 1, Val: 1}}, nil)
	if err == nil {
		t.Fatal("want error from a server that never answers")
	}
	if !IsInDoubt(err) {
		t.Fatalf("err = %v, want in-doubt", err)
	}
	if !errors.Is(err, errTransport) {
		t.Fatalf("err = %v, want wrapped transport cause", err)
	}
	st := d.Stats()
	if st.InDoubt != 1 || st.Retries != 1 {
		t.Errorf("stats = %+v, want 1 in-doubt, 1 retry", st)
	}
}

// TestHTTPDriverDeadlineStopsRetrying pins the client-side deadline: a
// generous retry allowance still stops at the configured deadline with
// harness.ErrExpired, and the outcome stays in doubt (attempts did reach
// the network).
func TestHTTPDriverDeadlineStopsRetrying(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(hijackKill))
	defer ts.Close()

	d := NewHTTPDriverConfig(ts.URL, HTTPDriverConfig{
		Deadline: 50 * time.Millisecond, MaxRetries: 1000, RetryBudget: -1,
		BackoffBase: 8 * time.Millisecond, BackoffCap: 8 * time.Millisecond,
		BreakerThreshold: -1,
	})
	sess, _ := d.NewSession()
	start := time.Now()
	err := sess.Do([]kv.Op{{Kind: kv.OpGet, Key: 1}}, nil)
	if !errors.Is(err, harness.ErrExpired) {
		t.Fatalf("err = %v, want harness.ErrExpired", err)
	}
	if !IsInDoubt(err) {
		t.Fatalf("err = %v, want in-doubt (attempts reached the wire)", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline honored after %v, want ~50ms", elapsed)
	}
	if got := d.Stats().Expired; got != 1 {
		t.Errorf("expired = %d, want 1", got)
	}
}

// TestHTTPDriverBreakerOpensAndRecovers pins the breaker state machine:
// consecutive transport errors open it, an open breaker fails fast
// without touching the network, and after the cooldown a healthz probe
// on a recovered server closes it again.
func TestHTTPDriverBreakerOpensAndRecovers(t *testing.T) {
	var down atomic.Bool
	down.Store(true)
	var batchAttempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			hijackKill(w, r)
			return
		}
		switch r.URL.Path {
		case "/healthz":
			_, _ = w.Write([]byte(`{"system":"fake","shards":1}`))
		default:
			batchAttempts.Add(1)
			_, _ = w.Write([]byte(`{"results":[{"val":1,"ok":true}]}`))
		}
	}))
	defer ts.Close()

	d := NewHTTPDriverConfig(ts.URL, HTTPDriverConfig{
		MaxRetries: -1, BackoffBase: time.Millisecond,
		BreakerThreshold: 3, BreakerCooldown: 50 * time.Millisecond,
	})
	sess, _ := d.NewSession()
	ops := []kv.Op{{Kind: kv.OpGet, Key: 1}}

	for i := 0; i < 3; i++ {
		if err := sess.Do(ops, nil); err == nil || errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("attempt %d: err = %v, want a transport error before the breaker opens", i, err)
		}
	}
	if got := d.Stats().BreakerOpens; got != 1 {
		t.Fatalf("breaker opens = %d, want 1 after threshold", got)
	}

	if err := sess.Do(ops, nil); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker: err = %v, want ErrCircuitOpen", err)
	}

	down.Store(false)
	time.Sleep(60 * time.Millisecond) // past the cooldown: next attempt probes
	res := make([]kv.Result, 1)
	if err := sess.Do(ops, res); err != nil {
		t.Fatalf("recovered server: err = %v, want nil (probe should close the breaker)", err)
	}
	if got := batchAttempts.Load(); got != 1 {
		t.Errorf("batch attempts while open/recovered = %d, want 1 (open breaker must not touch the network)", got)
	}
	if got := d.Stats().BreakerOpens; got != 1 {
		t.Errorf("breaker opens = %d, want still 1", got)
	}
}

// TestHTTPDriverStartBounded pins the satellite contract: Start against
// a dead address fails within StartTimeout with an error that names the
// unreachable base URL instead of polling forever.
func TestHTTPDriverStartBounded(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here anymore

	d := NewHTTPDriverConfig("http://"+addr, HTTPDriverConfig{StartTimeout: 200 * time.Millisecond})
	start := time.Now()
	err = d.Start()
	if err == nil {
		t.Fatal("Start succeeded against a dead address")
	}
	if !strings.Contains(err.Error(), "unreachable") || !strings.Contains(err.Error(), addr) {
		t.Errorf("err = %v, want the unreachable address named", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("Start took %v, want bounded by the 200ms StartTimeout", elapsed)
	}
}

// transferThroughFault runs the seeded-fault scenario once: a real store
// behind the HTTP server, reached through a faultnet proxy armed to eat
// exactly one response — the canonical "transfer executed, answer died"
// fault. The client retries; the returned balances show whether the
// retry re-executed the transfer (duplication) or was answered from the
// dedup window (exactly-once).
func transferThroughFault(t *testing.T, window int) (bal1, bal2 uint64, st HTTPDriverStats) {
	t.Helper()
	svc := New(kvBackend(t, "medley-hash@2"), Config{
		Workers: 2, DedupWindow: window,
	})
	defer svc.Close()
	ts := httptest.NewServer(Handler(svc))
	defer ts.Close()

	proxy, err := faultnet.New("127.0.0.1:0", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// Seed and final reads bypass the proxy: only the transfer is faulted.
	direct := NewHTTPDriver(ts.URL)
	dsess, err := direct.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	seed := []kv.Op{
		{Kind: kv.OpPut, Key: 1, Val: 1000},
		{Kind: kv.OpPut, Key: 2, Val: 1000},
	}
	if err := dsess.Do(seed, nil); err != nil {
		t.Fatal(err)
	}

	d := NewHTTPDriverConfig("http://"+proxy.Addr(), HTTPDriverConfig{
		MaxRetries: 4, BackoffBase: time.Millisecond, BackoffCap: 5 * time.Millisecond,
		BreakerThreshold: -1,
	})
	sess, err := d.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	proxy.ResetNextResponses(1) // the transfer's first answer dies on the wire

	amt := uint64(100)
	transfer := []kv.Op{
		{Kind: kv.OpAdd, Key: 1, Val: -amt},
		{Kind: kv.OpAdd, Key: 2, Val: amt},
	}
	if err := sess.Do(transfer, nil); err != nil {
		t.Fatalf("transfer through fault: %v", err)
	}

	res := make([]kv.Result, 2)
	if err := dsess.Do([]kv.Op{{Kind: kv.OpGet, Key: 1}, {Kind: kv.OpGet, Key: 2}}, res); err != nil {
		t.Fatal(err)
	}
	return res[0].Val, res[1].Val, d.Stats()
}

// TestRetryDuplicatesWithoutDedupWindow is the seeded-fault half the
// dedup window exists to fix: with the window disabled, the retry of a
// transfer whose answer was eaten re-executes it — the money moves
// twice. This test documents the failure mode; its sibling below proves
// the window removes it under the identical fault.
func TestRetryDuplicatesWithoutDedupWindow(t *testing.T) {
	bal1, bal2, st := transferThroughFault(t, 0)
	if st.Retries == 0 {
		t.Fatal("injected fault never fired: no retry happened")
	}
	if bal1 != 800 || bal2 != 1200 {
		t.Fatalf("balances = %d/%d, want 800/1200 (the documented duplication: both attempts executed)", bal1, bal2)
	}
}

// TestRetryExactlyOnceWithDedupWindow is the acceptance half: same
// seeded fault, dedup window enabled — the retry is answered from the
// window, the transfer lands exactly once.
func TestRetryExactlyOnceWithDedupWindow(t *testing.T) {
	bal1, bal2, st := transferThroughFault(t, 4096)
	if st.Retries == 0 {
		t.Fatal("injected fault never fired: no retry happened")
	}
	if bal1 != 900 || bal2 != 1100 {
		t.Fatalf("balances = %d/%d, want 900/1100 (exactly-once across the retry)", bal1, bal2)
	}
}
