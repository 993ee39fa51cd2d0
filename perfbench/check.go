package main

import (
	"fmt"

	"medley/internal/cdc"
	"medley/internal/harness"
	"medley/internal/kv"
)

// model is one session's record of the keys it alone writes: writes are
// partitioned with harness.PartitionKey, so session tid of S owns the keys
// k with k%S == tid and knows their committed state exactly. It is dense
// (indexed by k/S) so that journaling an acknowledged batch inside the
// measured window is two array stores per write, with no map traffic and
// no allocation; after the window it is folded into a harness.WireJournal
// and diffed against the store by harness.VerifyWire.
type model struct {
	tid, senders int
	val          []uint64
	present      []bool
	tainted      map[uint64]struct{} // keys of calls whose outcome is unknown
}

func newModel(tid, senders int) *model {
	n := int(keyRange)/senders + 1
	return &model{tid: tid, senders: senders, val: make([]uint64, n), present: make([]bool, n)}
}

// partition maps the write keys of a generated transaction into the
// session's residue class; reads keep their generated keys.
func (m *model) partition(ops []harness.Op) {
	for i := range ops {
		if ops[i].Kind == harness.OpInsert || ops[i].Kind == harness.OpRemove {
			ops[i].Key = harness.PartitionKey(ops[i].Key, m.tid, m.senders, keyRange)
		}
	}
}

// commitWrites folds an acknowledged batch, in operation order, and
// reports whether it wrote.
func (m *model) commitWrites(ops []kv.Op) bool {
	wrote := false
	for i := range ops {
		switch ops[i].Kind {
		case kv.OpPut:
			j := ops[i].Key / uint64(m.senders)
			m.val[j], m.present[j] = ops[i].Val, true
			wrote = true
		case kv.OpDelete:
			m.present[ops[i].Key/uint64(m.senders)] = false
			wrote = true
		}
	}
	return wrote
}

// taint records the write keys of a call whose outcome is unknown: the
// check excludes them on both sides.
func (m *model) taint(ops []kv.Op) {
	if m.tainted == nil {
		m.tainted = make(map[uint64]struct{})
	}
	for _, op := range ops {
		if op.Kind != kv.OpGet && op.Kind != kv.OpScan {
			m.tainted[op.Key] = struct{}{}
		}
	}
}

// preloadModels records the initial key == value entries in the models
// of the sessions that own them.
func preloadModels(models []*model, keys []uint64) {
	n := uint64(len(models))
	for _, k := range keys {
		m := models[k%n]
		m.val[k/n], m.present[k/n] = k, true
	}
}

// journal folds the model into a harness.WireJournal.
func (m *model) journal() *harness.WireJournal {
	j := harness.NewWireJournal()
	ops := make([]kv.Op, 0, 512)
	for i, ok := range m.present {
		if !ok {
			continue
		}
		key := uint64(i*m.senders + m.tid)
		ops = append(ops, kv.Op{Kind: kv.OpPut, Key: key, Val: m.val[i]})
		if len(ops) == cap(ops) {
			j.Commit(ops)
			ops = ops[:0]
		}
	}
	j.Commit(ops)
	ops = ops[:0]
	for k := range m.tainted {
		ops = append(ops, kv.Op{Kind: kv.OpPut, Key: k})
	}
	j.Taint(ops)
	return j
}

// verifyState diffs the sessions' models against the store's live state.
func verifyState(models []*model, snap harness.Snapshotter) error {
	journals := make([]*harness.WireJournal, len(models))
	for i, m := range models {
		journals[i] = m.journal()
	}
	fc, _ := harness.VerifyWire(journals, snap.StateSnapshot)
	if v := fc.Violations(); v > 0 {
		return fmt.Errorf("state check: %d violations over %d model entries (missing %d, mismatched %d, leaked %d)",
			v, fc.ModelEntries, fc.Missing, fc.Mismatched, fc.Leaked)
	}
	return nil
}

// verifyFeed checks, once quiesced, that every commit ticket drawn was
// settled: none parked in the reorder buffer, each published or cancelled.
func verifyFeed(f *cdc.Feed) error {
	st := f.Stats()
	if st.Pending != 0 || st.Drawn != st.Published+st.Cancelled {
		return fmt.Errorf("feed check: drawn %d, published %d, cancelled %d, pending %d",
			st.Drawn, st.Published, st.Cancelled, st.Pending)
	}
	return nil
}
