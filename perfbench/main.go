// Command perfbench is the repository benchmark. It drives one workload
// through a public entry point of the NBTC stack for a fixed window, checks
// the store against what every session was acknowledged, and prints one
// JSON result line:
//
//	embedded-uniform  kv.Executor.ExecBatch on a harness system
//	service-saturate  service.Service.SubmitCtx on a service.Node
//	http-light        POST /v1/batch through service.HTTPDriver against
//	                  Node.Handler() on loopback listeners
//
// Every workload is a closed loop: each session waits for its reply before
// sending the next transaction. With -trace 0 the result carries the
// end-to-end metrics; with -trace 1 it carries per-layer metrics, taken by
// timing the calls into each layer from outside the program, and the
// tracing overhead against an untraced window of the same run. The result
// holds the layers every workload exercises; the service, change-feed and
// wire layers that only some workloads reach are printed on a comment line
// before it.
//
// Usage (perfbench/run.py builds and runs it from the repository root):
//
//	perfbench -workload http-light -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSet collects metrics; a metric whose base is zero is left out,
// never reported as 0.
type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// ratio sets num/den, or nothing when den is zero.
func (m metricSet) ratio(name, unit string, num, den float64) {
	if den != 0 {
		m.set(name, unit, num/den)
	}
}

// usQuantiles sets name_p50 and name_p99 in microseconds from h, or
// nothing when h is empty.
func (m metricSet) usQuantiles(name string, h *hist) {
	if h.n == 0 {
		return
	}
	m.set(name+"_p50", "us", h.quantile(0.50)/1e3)
	m.set(name+"_p99", "us", h.quantile(0.99)/1e3)
}

// workload is one named load shape. setup builds a fresh instance;
// traced instances carry the per-layer wrappers.
type workload struct {
	name  string
	setup func(seed int64, traced bool) (instance, error)
}

// instance is a set-up workload, ready to run windows against.
type instance interface {
	// window runs every session for d and returns what they recorded.
	window(d time.Duration) windowResult
	// check verifies, once quiesced, that the store holds exactly what the
	// sessions were acknowledged.
	check() error
	// counters snapshots the cumulative program counters a traced run
	// differences around its window.
	counters() counters
	// layerMetrics adds the per-layer metrics of a traced window.
	layerMetrics(m metricSet, w *windowResult, before, after counters)
	close()
}

var workloads = []workload{
	{name: "embedded-uniform", setup: setupEmbedded},
	{name: "service-saturate", setup: setupSaturate},
	{name: "http-light", setup: setupHTTP},
}

const (
	// setupReps is how many times a -trace 0 run builds its instance;
	// setup_s is the median.
	setupReps = 5
	// warmup runs before every measured window, so caches fill and lazy
	// set-up finishes before timing.
	warmup = time.Second
)

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	commit := flag.String("commit", "unknown", "source revision, for provenance")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	printProvenance(*name, *seed, *trace, *commit)

	d := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(wl, *seed, d)
	} else {
		res, err = runPlain(wl, *seed, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runPlain is the untraced run: setup_s from setupReps builds, then one
// warm-up and one measured window on the last build.
func runPlain(wl *workload, seed int64, d time.Duration) (result, error) {
	var inst instance
	setups := make([]float64, setupReps)
	for i := range setups {
		if inst != nil {
			inst.close()
			inst = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = wl.setup(seed, false); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups[i] = time.Since(t0).Seconds()
	}
	defer inst.close()

	inst.window(warmup)
	ms := measure(inst, d)
	w := &ms.total
	checkErr := inst.check()
	reportCheck(checkErr)
	runtime.GC()

	m := metricSet{}
	m.set("setup_s", "s", median(setups))
	m.set("throughput_tps", "txn/s", ms.median((*windowResult).tps))
	m.set("latency_p50_us", "us", ms.median(func(w *windowResult) float64 { return w.lat.quantile(0.50) / 1e3 }))
	m.set("latency_p90_us", "us", ms.median(func(w *windowResult) float64 { return w.lat.quantile(0.90) / 1e3 }))
	m.set("success_share", "ratio", 1-float64(w.failed)/float64(w.calls))
	m.set("heap_live_mb", "MB", float64(readUint64("/gc/heap/live:bytes"))/(1<<20))
	fewest := w.lat.n
	for i := range ms.subs {
		fewest = min(fewest, ms.subs[i].lat.beyond(0.90))
	}
	fmt.Printf("# window: %.3fs in %d sub-windows (throughput and latency are medians over them), calls %d (failed %d), txns %d\n",
		w.elapsed.Seconds(), len(ms.subs), w.calls, w.failed, w.txns)
	fmt.Printf("# latency samples %d, fewest beyond p90 in a sub-window %d; whole-window p99 %.1f us with %d beyond (per-layer runs report p99)\n",
		w.lat.n, fewest, w.lat.quantile(0.99)/1e3, w.lat.beyond(0.99))
	fmt.Printf("# setups (s): %v\n", setups)
	return result{Correct: checkErr == nil, Attempted: w.calls, Failed: w.failed, Metrics: m}, nil
}

// runTraced splits the time between an untraced and a traced instance,
// each with its own warm-up, and reports the traced window's per-layer
// metrics plus the tracing overhead between the two.
func runTraced(wl *workload, seed int64, d time.Duration) (result, error) {
	half := d / 2
	plain, err := wl.setup(seed, false)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	plain.window(warmup)
	pBefore := plain.counters()
	pm := measure(plain, half)
	pAfter := plain.counters()
	plainErr := plain.check()
	reportCheck(plainErr)
	plain.close()
	runtime.GC()

	inst, err := wl.setup(seed, true)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	defer inst.close()
	inst.window(warmup)
	before := inst.counters()
	tm := measure(inst, half)
	after := inst.counters()
	w, pw := &tm.total, &pm.total
	tracedErr := inst.check()
	reportCheck(tracedErr)
	pathErr := samePath(pathShares(pBefore, pAfter), pathShares(before, after))
	if pathErr != nil {
		fmt.Println("# correctness violation:", pathErr)
	}

	m := metricSet{}
	inst.layerMetrics(m, w, before, after)
	m.ratio("mem.allocs_per_txn", "allocs/txn", float64(after.allocs-before.allocs), float64(w.txns))
	m.ratio("mem.gc_pause_share", "ratio", float64(after.gcPauseNs-before.gcPauseNs), float64(w.elapsed))
	m.ratio("client.overhead_share", "ratio", float64(w.wallNs-w.callNs), float64(w.wallNs))
	m.set("trace.overhead_share", "ratio", 1-tm.median((*windowResult).tps)/pm.median((*windowResult).tps))
	res, err := splitLayers(m)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("# untraced window: %.3fs, txns %d, %.0f txn/s; traced window: %.3fs, calls %d (failed %d), txns %d, %.0f txn/s, unlinked spans %d\n",
		pw.elapsed.Seconds(), pw.txns, pw.tps(), w.elapsed.Seconds(), w.calls, w.failed, w.txns, w.tps(), w.unlinked)
	return result{
		Correct:   plainErr == nil && tracedErr == nil && pathErr == nil,
		Attempted: pw.calls + w.calls,
		Failed:    pw.failed + w.failed,
		Metrics:   res,
	}, nil
}

// perLayer are the per-layer metrics of the result line, as BENCHMARK.json
// declares them: the layers every workload exercises, so each workload
// reports each one.
var perLayer = []string{
	"core.commits_per_attempt", "core.helps_per_ktxn", "core.fastpath_share", "core.group_share",
	"kv.exec_us_p50", "kv.exec_us_p99", "kv.exec_busy_share", "kv.txns_per_exec_call",
	"mem.allocs_per_txn", "mem.gc_pause_share", "ebr.pool_hit_ratio", "ebr.reclaim_ratio",
	"client.overhead_share", "trace.overhead_share",
}

// splitLayers moves the perLayer metrics out of m into the result's set and
// prints the rest, the layers only some workloads exercise (service, change
// feed, wire), on a comment line; a metric a workload does not exercise
// stays absent there. A perLayer metric that was not measured is an error.
func splitLayers(m metricSet) (metricSet, error) {
	res := metricSet{}
	for _, name := range perLayer {
		v, ok := m[name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", name)
		}
		res[name] = v
		delete(m, name)
	}
	b, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# workload-specific layers: %s\n", b)
	return res, nil
}

// pathShares are the two figures that show which commit path a window
// took: grouped transactions over logical commits in the core, and requests
// the service handed to ExecGroup. Each is NaN when its base is zero.
func pathShares(before, after counters) [2]float64 {
	d := func(name string) float64 { return float64(after.program[name] - before.program[name]) }
	share := func(num, den float64) float64 {
		if den == 0 {
			return math.NaN()
		}
		return num / den
	}
	commits, groups, grouped := d("tx_commits"), d("tx_group_commits"), d("tx_grouped_txns")
	return [2]float64{
		share(grouped, commits-groups+grouped),
		share(d("svc_grouped_txns"), d("svc_executed")+d("svc_errors")),
	}
}

// samePath fails when the traced window took another commit path than the
// untraced one: a wrapper that hid a capability the service type-asserts
// would show here.
func samePath(plain, traced [2]float64) error {
	for i, name := range []string{"core.group_share", "service.group_handoff_share"} {
		a, b := plain[i], traced[i]
		if math.IsNaN(a) != math.IsNaN(b) || math.Abs(a-b) > 0.1 {
			return fmt.Errorf("traced run took another commit path: %s %.3f untraced, %.3f traced", name, a, b)
		}
	}
	fmt.Printf("# commit path: core.group_share %.3f untraced, %.3f traced; service.group_handoff_share %.3f untraced, %.3f traced\n",
		plain[0], traced[0], plain[1], traced[1])
	return nil
}

func reportCheck(err error) {
	if err != nil {
		fmt.Println("# correctness violation:", err)
	} else {
		fmt.Println("# correctness: store matches every acknowledged write")
	}
}

// counters is a snapshot of cumulative program counters.
type counters struct {
	allocs    uint64
	gcPauseNs uint64
	program   map[string]uint64 // the stack's own metrics snapshot
	feed      feedCounters
	retries   uint64    // HTTP driver retries
	exec      execStats // traced exec spans since the previous snapshot
}

type feedCounters struct {
	drawn, cancelled, entries uint64
}

// runtimeCounters fills the process-wide memory counters.
func runtimeCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{allocs: readUint64("/gc/heap/allocs:objects"), gcPauseNs: ms.PauseTotalNs}
}

func readUint64(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// printProvenance records what produced the numbers.
func printProvenance(workload string, seed int64, trace int, commit string) {
	p := map[string]any{
		"workload":   workload,
		"seed":       seed,
		"trace":      trace,
		"commit":     commit,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
	b, _ := json.Marshal(p)
	fmt.Printf("# provenance: %s\n", b)
}

// cpuModel reads the processor name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
