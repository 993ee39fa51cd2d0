package cdc

import (
	"sync"
	"testing"
)

func readAll(t *testing.T, f *Feed, shard int, from uint64) []Entry {
	t.Helper()
	var out []Entry
	buf := make([]Entry, 4)
	for {
		got, err := f.ReadFrom(shard, from, buf)
		if err != nil {
			t.Fatalf("ReadFrom(%d, %d): %v", shard, from, err)
		}
		if len(got) == 0 {
			return out
		}
		out = append(out, got...)
		from = got[len(got)-1].Seq + 1
	}
}

func TestFeedOrderAndSeqs(t *testing.T) {
	f := New(2, 8, nil)
	t1 := f.DrawTicket()
	t2 := f.DrawTicket()
	if t1 != 1 || t2 != 2 {
		t.Fatalf("tickets = %d, %d, want 1, 2", t1, t2)
	}

	// Publish out of order: t2 first must park until t1 settles.
	f.Publish(t2, []Write{{Key: 2, Val: 20}, {Key: 4, Val: 40}})
	if got := readAll(t, f, 0, 1); len(got) != 0 {
		t.Fatalf("shard 0 admitted %v before ticket 1 settled", got)
	}
	f.Publish(t1, []Write{{Key: 0, Val: 10}, {Key: 3, Val: 30}})

	s0 := readAll(t, f, 0, 1)
	if len(s0) != 3 {
		t.Fatalf("shard 0 entries = %v, want 3", s0)
	}
	// Ticket order on the shard: t1's keys 0 then t2's keys 2, 4.
	wantKeys := []uint64{0, 2, 4}
	wantTx := []uint64{1, 2, 2}
	for i, e := range s0 {
		if e.Seq != uint64(i+1) {
			t.Errorf("entry %d seq = %d, want dense %d", i, e.Seq, i+1)
		}
		if e.Key != wantKeys[i] || e.TxID != wantTx[i] {
			t.Errorf("entry %d = %+v, want key %d txid %d", i, e, wantKeys[i], wantTx[i])
		}
	}
	s1 := readAll(t, f, 1, 1)
	if len(s1) != 1 || s1[0].Key != 3 || s1[0].Seq != 1 {
		t.Fatalf("shard 1 entries = %v, want key 3 at seq 1", s1)
	}
}

func TestFeedCancelFillsHole(t *testing.T) {
	f := New(1, 8, nil)
	t1 := f.DrawTicket()
	t2 := f.DrawTicket()
	f.Publish(t2, []Write{{Key: 7, Val: 70}})
	if got := readAll(t, f, 0, 1); len(got) != 0 {
		t.Fatalf("admitted %v across unsettled hole", got)
	}
	f.CancelTicket(t1)
	got := readAll(t, f, 0, 1)
	if len(got) != 1 || got[0].Key != 7 || got[0].TxID != t2 {
		t.Fatalf("after cancel got %v, want key 7 from ticket %d", got, t2)
	}
	st := f.Stats()
	if st.Cancelled != 1 || st.Published != 1 || st.Pending != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFeedTombstoneAndAbsoluteValues(t *testing.T) {
	f := New(1, 8, nil)
	ta := f.DrawTicket()
	f.Publish(ta, []Write{{Key: 5, Val: 50}, {Key: 5, Del: true}})
	got := readAll(t, f, 0, 1)
	if len(got) != 2 {
		t.Fatalf("entries = %v", got)
	}
	if got[0].Del || got[0].Val != 50 {
		t.Fatalf("first entry = %+v, want val 50", got[0])
	}
	if !got[1].Del {
		t.Fatalf("second entry = %+v, want tombstone", got[1])
	}
}

func TestFeedCompaction(t *testing.T) {
	const cap = 4
	f := New(1, cap, nil)
	for i := 0; i < 10; i++ {
		tk := f.DrawTicket()
		f.Publish(tk, []Write{{Key: uint64(i), Val: uint64(i)}})
	}
	if head := f.Head(0); head != 10 {
		t.Fatalf("head = %d, want 10", head)
	}
	// Oldest retained is 10-4+1 = 7; reading from 1 must demand a snapshot.
	if _, err := f.ReadFrom(0, 1, make([]Entry, 4)); err != ErrCompacted {
		t.Fatalf("ReadFrom(1) err = %v, want ErrCompacted", err)
	}
	if _, err := f.ReadFrom(0, 6, make([]Entry, 4)); err != ErrCompacted {
		t.Fatalf("ReadFrom(6) err = %v, want ErrCompacted", err)
	}
	got, err := f.ReadFrom(0, 7, make([]Entry, 8))
	if err != nil || len(got) != 4 {
		t.Fatalf("ReadFrom(7) = %v, %v, want 4 entries", got, err)
	}
	for i, e := range got {
		if e.Seq != uint64(7+i) || e.Key != uint64(6+i) {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
	// Beyond head: caught up, empty, no error.
	got, err = f.ReadFrom(0, 11, make([]Entry, 4))
	if err != nil || len(got) != 0 {
		t.Fatalf("ReadFrom(11) = %v, %v, want empty", got, err)
	}
	if st := f.Stats(); st.Compacted != 6 {
		t.Fatalf("compacted = %d, want 6", st.Compacted)
	}
}

func TestFeedNotify(t *testing.T) {
	f := New(1, 8, nil)
	ch := f.Notify()
	select {
	case <-ch:
		t.Fatal("notify fired with no admission")
	default:
	}
	tk := f.DrawTicket()
	f.Publish(tk, []Write{{Key: 1, Val: 1}})
	select {
	case <-ch:
	default:
		t.Fatal("notify did not fire on admission")
	}
	// Cancel-only settling admits nothing and must not wake readers.
	ch = f.Notify()
	f.CancelTicket(f.DrawTicket())
	select {
	case <-ch:
		t.Fatal("notify fired on cancel-only drain")
	default:
	}
}

func TestFeedConcurrent(t *testing.T) {
	const (
		writers = 8
		perW    = 500
	)
	f := New(4, writers*perW+1, nil)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				tk := f.DrawTicket()
				if i%5 == 4 {
					f.CancelTicket(tk)
					continue
				}
				f.Publish(tk, []Write{{Key: tk, Val: tk * 10}})
			}
		}(w)
	}
	wg.Wait()

	st := f.Stats()
	if st.Pending != 0 {
		t.Fatalf("pending = %d after all settled", st.Pending)
	}
	wantPub := uint64(writers * perW * 4 / 5)
	if st.Published != wantPub || st.Entries != wantPub {
		t.Fatalf("published = %d entries = %d, want %d", st.Published, st.Entries, wantPub)
	}
	total := 0
	for s := 0; s < f.ShardCount(); s++ {
		entries := readAll(t, f, s, 1)
		var lastTx uint64
		for _, e := range entries {
			if e.TxID <= lastTx {
				t.Fatalf("shard %d ticket order violated: %d after %d", s, e.TxID, lastTx)
			}
			lastTx = e.TxID
			if e.Val != e.Key*10 {
				t.Fatalf("shard %d entry %+v corrupt", s, e)
			}
		}
		total += len(entries)
	}
	if uint64(total) != wantPub {
		t.Fatalf("total entries read = %d, want %d", total, wantPub)
	}
}

func TestFeedReadFromNilBuf(t *testing.T) {
	// A nil (zero-capacity) buffer must not read as a permanently empty
	// feed — ReadFrom allocates a default-sized batch instead. Regression:
	// callers passing nil silently saw zero entries forever.
	f := New(1, 8, nil)
	t1 := f.DrawTicket()
	f.Publish(t1, []Write{{Key: 1, Val: 10}, {Key: 2, Val: 20}})
	got, err := f.ReadFrom(0, 1, nil)
	if err != nil {
		t.Fatalf("ReadFrom(nil buf): %v", err)
	}
	if len(got) != 2 || got[0].Key != 1 || got[1].Key != 2 {
		t.Fatalf("ReadFrom(nil buf) = %v, want keys 1, 2", got)
	}
}

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// TestPublishInOrderAllocs pins the common admission path at zero
// allocations: a ticket published as the next one due goes straight from
// the caller's slice into the rings, and with no armed reader there is no
// notify channel to replace.
func TestPublishInOrderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not enforced under -race")
	}
	f := New(4, 1024, nil)
	writes := []Write{{Key: 1, Val: 10}, {Key: 2, Val: 20}, {Key: 7, Del: true}}
	allocs := testing.AllocsPerRun(1000, func() {
		f.Publish(f.DrawTicket(), writes)
	})
	if allocs != 0 {
		t.Fatalf("in-order Publish allocates %.2f objects, want 0", allocs)
	}
	if st := f.Stats(); st.Pending != 0 || st.Entries != 3*st.Published {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFeedNotifyArmedWakes pins the on-demand notify channel from the
// reader's side: a channel armed before an admission is closed by it,
// and a channel armed while caught up is closed by Close.
func TestFeedNotifyArmedWakes(t *testing.T) {
	f := New(2, 8, nil)
	woke := make(chan struct{})
	ch := f.Notify()
	go func() {
		<-ch
		close(woke)
	}()
	f.Publish(f.DrawTicket(), []Write{{Key: 1, Val: 1}})
	<-woke

	ch = f.Notify()
	select {
	case <-ch:
		t.Fatal("re-armed channel already closed before any admission")
	default:
	}
	woke = make(chan struct{})
	go func() {
		<-ch
		close(woke)
	}()
	f.Close()
	<-woke
	select {
	case <-f.Notify():
	default:
		t.Fatal("Notify after Close returned an open channel")
	}
}

// TestFeedOutOfOrderCopiesWrites pins the reorder buffer's copy: an
// early publication parks a copy of its writes, so the caller may reuse
// its slice at once, and admission still follows ticket order.
func TestFeedOutOfOrderCopiesWrites(t *testing.T) {
	f := New(1, 16, nil)
	t1, t2, t3 := f.DrawTicket(), f.DrawTicket(), f.DrawTicket()
	buf := []Write{{Key: 30, Val: 300}}
	f.Publish(t3, buf)
	buf[0] = Write{Key: 20, Val: 200}
	f.Publish(t2, buf)
	if st := f.Stats(); st.Pending != 2 {
		t.Fatalf("pending = %d, want 2 parked publications", st.Pending)
	}
	buf[0] = Write{Key: 10, Val: 100}
	f.Publish(t1, buf)
	buf[0] = Write{Key: 99, Val: 999}

	got := readAll(t, f, 0, 1)
	want := []Entry{
		{Seq: 1, Key: 10, Val: 100, TxID: t1},
		{Seq: 2, Key: 20, Val: 200, TxID: t2},
		{Seq: 3, Key: 30, Val: 300, TxID: t3},
	}
	if len(got) != len(want) {
		t.Fatalf("entries = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if st := f.Stats(); st.Pending != 0 {
		t.Fatalf("pending = %d after the hole filled", st.Pending)
	}
}
