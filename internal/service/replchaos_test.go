package service

import (
	"testing"
	"time"

	"medley/internal/harness"
)

// Scaled-down replica chaos runs: the committed BENCH_replica.json runs
// the full scenarios; these pin that the runner's machinery works at
// test scale.

func TestRunReplicaChaosFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	res, err := RunReplicaChaos(ReplicaChaosConfig{
		System: "medley-hash@2",
		// Size the backend to the test: the default 1<<20 buckets make the
		// bootstrap snapshot scans too slow for the race detector on small
		// runners.
		SystemOpts: harness.SystemOpts{Buckets: 1 << 12, KeyRange: 1 << 12},
		Service:    Config{Workers: 2, DedupWindow: 4096},
		Client:     HTTPDriverConfig{Deadline: 2 * time.Second, RetryBudget: -1},
		FeedShards: 2,
		Failovers:  2,
		Senders:    4,
		Rate:       600,
		Duration:   1500 * time.Millisecond,
		KeyRange:   1 << 12,
		Preload:    256,
		Seed:       1,
		Mix:        harness.Mix{Ratio: harness.Ratio{Get: 8, Insert: 2, Remove: 1}, TxMin: 1, TxMax: 4, Mixed: 1},
	})
	if err != nil {
		t.Fatalf("RunReplicaChaos: %v", err)
	}
	if res.Failovers != 2 {
		t.Errorf("failovers = %d, want 2", res.Failovers)
	}
	if res.Completed == 0 {
		t.Fatal("no transactions completed")
	}
	// The driver must have followed the leadership: at least one failover
	// sweep per run confirmed a live leader — usually by swapping the
	// base to the promoted node, but a sweep that runs after the NEXT
	// promotion rebinds the dead address finds its existing base leading
	// again and rightly swaps nothing (a recovery, not a swap).
	if res.DriverFailovers+res.DriverRecoveries == 0 {
		t.Error("driver never re-confirmed leadership after a kill")
	}
	if v := res.Violations(); v != 0 {
		t.Errorf("divergence violations = %d (%+v), want 0", v, res.Verify)
	}
	// Low bar at test scale; the committed scenario budgets 0.99.
	if res.Availability < 0.5 {
		t.Errorf("availability = %.3f, suspiciously low", res.Availability)
	}
	t.Logf("failover: completed=%d avail=%.4f lost=%d tainted=%d driverFO=%d recov=%d downtime=%v",
		res.Completed, res.Availability, res.LostWrites, res.Tainted,
		res.DriverFailovers, res.DriverRecoveries, time.Duration(res.DowntimeNs))
}

func TestRunReplicaChaosLag(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	res, err := RunReplicaChaos(ReplicaChaosConfig{
		System:       "medley-hash@2",
		SystemOpts:   harness.SystemOpts{Buckets: 1 << 12, KeyRange: 1 << 12},
		Service:      Config{Workers: 2, DedupWindow: 4096},
		Client:       HTTPDriverConfig{Deadline: 2 * time.Second, RetryBudget: -1},
		FeedShards:   2,
		MaxLag:       8,
		MaxSilence:   120 * time.Millisecond,
		Partitions:   2,
		PartitionDur: 400 * time.Millisecond,
		Senders:      4,
		Rate:         800,
		Duration:     1800 * time.Millisecond,
		KeyRange:     1 << 12,
		Preload:      256,
		Seed:         2,
		Mix:          harness.Mix{Ratio: harness.Ratio{Get: 12, Insert: 2, Remove: 1}, TxMin: 1, TxMax: 4, Mixed: 1},
	})
	if err != nil {
		t.Fatalf("RunReplicaChaos: %v", err)
	}
	if res.Partitions != 2 {
		t.Errorf("partitions = %d, want 2", res.Partitions)
	}
	// The partition must have built observable lag past the bound, and
	// lagging reads must have been refused and redirected.
	if res.MaxReplayLag <= 8 {
		t.Errorf("max replay lag = %d, want > MaxLag (partition never bit)", res.MaxReplayLag)
	}
	if res.StaleRejections == 0 {
		t.Error("no stale read was rejected during the partition")
	}
	// Lag mode loses nothing: catch-up after heal must converge exactly.
	if res.LostWrites != 0 {
		t.Errorf("lost writes = %d in lag mode, want 0", res.LostWrites)
	}
	if v := res.Violations(); v != 0 {
		t.Errorf("divergence violations = %d (%+v), want 0", v, res.Verify)
	}
	t.Logf("lag: completed=%d avail=%.4f maxLag=%d stale=%d tainted=%d",
		res.Completed, res.Availability, res.MaxReplayLag, res.StaleRejections, res.Tainted)
}
