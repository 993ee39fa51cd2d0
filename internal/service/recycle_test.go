package service

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"medley/internal/kv"
)

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// TestDedupWindowAllocs pins a warm window at zero allocations: every
// claim evicts a settled, never-watched entry and reuses it, results
// slice included.
func TestDedupWindowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not enforced under -race")
	}
	const window = 64
	w := newDedupWindow(window)
	ids := make([]string, 2*window)
	for i := range ids {
		ids[i] = "req-" + strconv.Itoa(i)
	}
	res := []kv.Result{{Val: 1, Ok: true}, {Val: 2, Ok: true}}
	i := 0
	cycle := func() {
		e, prior := w.claim(ids[i%len(ids)])
		if prior != nil {
			t.Fatalf("claim %d answered by a prior entry", i)
		}
		w.complete(e, res, nil)
		i++
	}
	for range 2 * len(ids) {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("warm claim+complete allocates %.2f objects, want 0", allocs)
	}
}

// submitAllocsBudget is the pinned steady-state allocation count of one
// SubmitCtx with an ID over fakeBackend: the promise is recycled, the
// dedup entry reused, and a drain allocates nothing.
const submitAllocsBudget = 0

// TestSubmitCtxAllocs enforces submitAllocsBudget.
func TestSubmitCtxAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not enforced under -race")
	}
	const window = 64
	s := New(&fakeBackend{}, Config{Workers: 1, DedupWindow: window})
	defer s.Close()
	ids := make([]string, 2*window)
	for i := range ids {
		ids[i] = "req-" + strconv.Itoa(i)
	}
	ops := oneOp(7)
	res := make([]kv.Result, 1)
	ctx := context.Background()
	i := 0
	submit := func() {
		if err := s.SubmitCtx(ctx, ids[i%len(ids)], ops, res); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range 4 * len(ids) {
		submit()
	}
	if allocs := testing.AllocsPerRun(1000, submit); allocs > submitAllocsBudget {
		t.Fatalf("SubmitCtx allocates %.2f objects, budget %d", allocs, submitAllocsBudget)
	}
}

// stampBackend's executions stamp every result with the op's key (high
// 32 bits) and a unique execution number (low 32 bits), recording which
// key each execution number ran for.
type stampBackend struct {
	fakeBackend
	runs  atomic.Uint64
	keyOf []atomic.Uint64 // execution number → key+1
}

func (b *stampBackend) NewExecutor() kv.Executor { return (*stampExec)(b) }

type stampExec stampBackend

func (e *stampExec) ExecBatch(ops []kv.Op, res []kv.Result) error {
	n := e.runs.Add(1)
	key := ops[0].Key
	e.keyOf[n].Store(key + 1)
	for i := range res {
		res[i] = kv.Result{Val: key<<32 | n, Ok: true}
	}
	return nil
}

// TestDedupRecyclingStress races same-ID retries against eviction through
// windows of 1 and 2, so entries are recycled while retries look them up
// and park on them. Every answer, executed or a window hit, must carry
// results stamped by a real execution of the request's own ID: a hit
// that read a recycled entry would carry another ID's stamp. Run under
// -race, the detector also reports any read of an entry (or a recycled
// request) that overlaps its reuse.
func TestDedupRecyclingStress(t *testing.T) {
	for _, window := range []int{1, 2} {
		t.Run("window="+strconv.Itoa(window), func(t *testing.T) {
			parallelism := 100 * runtime.GOMAXPROCS(0)
			iters := 40
			if testing.Short() {
				iters = 10
			}
			const keys = 4
			be := &stampBackend{
				keyOf: make([]atomic.Uint64, parallelism*iters+1),
			}
			s := New(be, Config{DedupWindow: window})
			defer s.Close()

			start := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(parallelism)
			for g := 0; g < parallelism; g++ {
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					res := make([]kv.Result, 2)
					<-start
					for i := 0; i < iters; i++ {
						key := uint64(rng.Intn(keys))
						ctx, cancel := context.Background(), context.CancelFunc(func() {})
						if g%4 == 0 {
							// Some retries carry a deadline, exercising
							// expiry, abandon and the bounded park.
							ctx, cancel = context.WithTimeout(ctx, time.Millisecond)
						}
						ops := []kv.Op{{Kind: kv.OpAdd, Key: key, Val: 1}, {Kind: kv.OpGet, Key: key}}
						clear(res)
						err := s.SubmitCtx(ctx, "id-"+strconv.FormatUint(key, 10), ops, res)
						cancel()
						if errors.Is(err, ErrExpired) {
							continue
						}
						if err != nil {
							t.Errorf("submit key %d: %v", key, err)
							return
						}
						for _, r := range res {
							n := r.Val & (1<<32 - 1)
							if r.Val>>32 != key || n == 0 || be.keyOf[n].Load() != key+1 {
								t.Errorf("key %d answered with result %#x: not an execution of its own ID", key, r.Val)
								return
							}
						}
						if res[0] != res[1] {
							t.Errorf("key %d: results %v from two executions", key, res)
							return
						}
					}
				}(g)
			}
			close(start)
			wg.Wait()
			if s.dedupHits.Load() == 0 {
				t.Fatal("no window hits: the retries never raced the window")
			}
		})
	}
}

// TestRequestRecyclingStress drives the promise pool through every
// disposition at once: executed (solo and grouped), expired at drain or
// at the worker, and shed at a tiny pool. Each caller checks it got its
// own results; under -race, any dispatcher or worker access to a request
// after its done send would overlap the submitter's reset of the recycled
// request and be reported.
func TestRequestRecyclingStress(t *testing.T) {
	be := &groupBackend{}
	s := New(be, Config{PoolSize: 32, Workers: 2})
	defer s.Close()
	parallelism := 100 * runtime.GOMAXPROCS(0)
	iters := 40
	if testing.Short() {
		iters = 10
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(parallelism)
	for g := 0; g < parallelism; g++ {
		go func(g int) {
			defer wg.Done()
			res := make([]kv.Result, 1)
			<-start
			for i := 0; i < iters; i++ {
				key := uint64(groupFailKey + 1 + g*iters + i)
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if i%3 == 0 {
					ctx, cancel = context.WithTimeout(ctx, 100*time.Microsecond)
				}
				res[0] = kv.Result{}
				err := s.SubmitCtx(ctx, "", oneOp(key), res)
				cancel()
				switch {
				case errors.Is(err, ErrShed), errors.Is(err, ErrExpired):
				case err != nil:
					t.Errorf("submit %d: %v", key, err)
					return
				case res[0] != (kv.Result{Val: key, Ok: true}):
					t.Errorf("submit %d: result %+v is not its own", key, res[0])
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
}
