package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"hstoragedb/internal/dss"
	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/engine/storagemgr"
	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/obs"
)

// repCtx is one repetition of a workload: its phase boundaries, what it
// measured, and — when traced — the registry and profile attached to it.
type repCtx struct {
	// input selects the generated inputs: query parameters or client
	// key streams.
	input  int64
	traced bool

	// setup is the process CPU time of set-up and setupWall its wall
	// time; run is the wall time of the measured phase.
	setup, setupWall, run time.Duration
	// cpuTime is the process CPU time (user + system, all threads) of
	// the measured phase. Unlike run, it leaves out time the host took
	// the CPU away.
	cpuTime    time.Duration
	allocBytes uint64
	// peakRSS is the resident-set peak of the repetition in MB.
	peakRSS float64
	// calibCPU is the CPU time of the calibUnits units of calibration
	// work sampleHost ran in the repetition; excludedWall is their wall
	// time in the current phase.
	calibCPU     time.Duration
	calibUnits   int
	excludedWall time.Duration
	// sim is the virtual makespan of the measured phase; opLat holds
	// the virtual latency of every op that completed in it; recovery is
	// the virtual redo-recovery time after the end-of-run crash.
	sim      time.Duration
	opLat    []time.Duration
	recovery time.Duration

	// attempted counts ops, failed the ones that returned a
	// non-retryable error or a wrong answer. errs and wrong name them.
	attempted, failed int64
	errs, wrong       []string

	// Traced repetitions only. set is the observability set attached
	// to the program; nil when untraced, so every instrument is inert.
	set   *obs.Set
	layer map[string]float64
	cpu   map[string]int64
	spans []span
	prof  []byte

	start    time.Time
	runStart time.Time
	mem0     runtime.MemStats
	cpu0     time.Duration // process CPU time at the start of the current phase
	inst     *engine.Instance
	before   counters
	profBuf  bytes.Buffer
}

// span is one host-time interval the benchmark recorded around a call
// into the program, in nanoseconds since the repetition started.
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	Dur   int64  `json:"dur_ns"`
}

func newRepCtx(input int64, traced bool) *repCtx {
	c := &repCtx{input: input, traced: traced, start: time.Now(), cpu0: processCPU()}
	if traced {
		c.set = &obs.Set{Reg: obs.NewRegistry()}
		c.layer = map[string]float64{}
	}
	c.sampleHost(3)
	return c
}

// beginRun ends set-up and starts the measured phase. inst is the
// instance whose counters the per-layer metrics take deltas of.
func (c *repCtx) beginRun(inst *engine.Instance) error {
	c.sampleHost(3)
	c.setupWall = time.Since(c.start) - c.excludedWall
	c.setup = processCPU() - c.cpu0
	c.excludedWall = 0
	c.inst = inst
	if c.traced {
		c.set.Reg.Reset()
		c.before = readCounters(inst)
		c.profBuf.Reset()
		if err := pprof.StartCPUProfile(&c.profBuf); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	runtime.ReadMemStats(&c.mem0)
	c.cpu0 = processCPU()
	c.runStart = time.Now()
	return nil
}

// endRun ends the measured phase. ops is the number of ops it attempted
// and retries the deadlock retries they took.
func (c *repCtx) endRun(ops, retries int64) error {
	c.sampleHost(3)
	c.run = time.Since(c.runStart) - c.excludedWall
	c.cpuTime = processCPU() - c.cpu0
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	c.allocBytes = mem.TotalAlloc - c.mem0.TotalAlloc
	inst := c.inst
	c.inst = nil // the repetition's database must not outlive it
	if !c.traced {
		return nil
	}
	pprof.StopCPUProfile()
	c.prof = append([]byte(nil), c.profBuf.Bytes()...)
	cpu, err := cpuByModule(c.prof)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	c.cpu = cpu
	c.layerMetrics(inst, c.set.Reg.Snapshot(), readCounters(inst), ops, retries)
	return nil
}

// span runs f and, in a traced repetition, records its host time.
func (c *repCtx) span(name string, f func() error) error {
	if !c.traced {
		return f()
	}
	t := time.Now()
	err := f()
	c.spans = append(c.spans, span{Name: name, Start: int64(t.Sub(c.start)), Dur: int64(time.Since(t))})
	return err
}

// fail records a failed op.
func (c *repCtx) fail(format string, args ...any) {
	c.failed++
	c.errs = append(c.errs, fmt.Sprintf(format, args...))
}

// wrongAnswer records an op whose answer failed its check.
func (c *repCtx) wrongAnswer(format string, args ...any) {
	c.failed++
	c.wrong = append(c.wrong, fmt.Sprintf(format, args...))
}

// finish derives the span and recovery metrics once the repetition,
// verification included, is over.
func (c *repCtx) finish() {
	if !c.traced {
		return
	}
	p50 := func(unit time.Duration, names ...string) float64 {
		var ds []time.Duration
		for _, s := range c.spans {
			for _, n := range names {
				if s.Name == n {
					ds = append(ds, time.Duration(s.Dur))
				}
			}
		}
		return float64(quantile(ds, 0.5)) / float64(unit)
	}
	c.layer["host.op_ms"] = p50(time.Millisecond, "query", "rf", "txn")
	c.layer["host.query_ms"] = p50(time.Millisecond, "query")
	c.layer["host.rf_ms"] = p50(time.Millisecond, "rf")
	c.layer["host.txn_us"] = p50(time.Microsecond, "txn")
	c.layer["host.checkpoint_ms"] = p50(time.Millisecond, "checkpoint")
	c.layer["host.recovery_ms"] = p50(time.Millisecond, "recovery")
	c.layer["sim.recovery_ms"] = ms(c.recovery)
}

// counters are the program's own statistics the per-layer metrics take
// measured-phase deltas of.
type counters struct {
	sys   hybrid.Snapshot
	types map[policy.RequestType]storagemgr.TypeStats
	maint storagemgr.MaintStats
}

func readCounters(inst *engine.Instance) counters {
	return counters{sys: inst.Sys.Stats(), types: inst.Mgr.TypeStats(), maint: inst.Mgr.MaintStats()}
}

// layerUnits lists the per-layer metrics of the JSON line that are read
// from the registry, the program's statistics and the benchmark's spans,
// with their units. The cpu.* shares, trace.overhead and fail_frac are
// added by perLayer.
var layerUnits = map[string]string{
	"host.op_ms":                "ms",
	"bufferpool.hit_ratio":      "ratio",
	"bufferpool.evictions":      "count",
	"bufferpool.writeback":      "count",
	"cache.hit_ratio":           "ratio",
	"cache.evictions":           "count",
	"cache.write_allocs":        "count",
	"policy.blocks.sequential":  "%",
	"policy.blocks.random":      "%",
	"policy.blocks.temp":        "%",
	"policy.blocks.update":      "%",
	"policy.blocks.log":         "%",
	"iosched.background_grants": "count",
	"iosched.coalesced":         "count",
	"iosched.prefetch_hits":     "count",
	"iosched.boosted":           "count",
	"device.busy_s.ssd":         "s",
	"device.busy_s.hdd":         "s",
	"device.blocks.hdd":         "count",
	"wal.flushes_per_commit":    "ratio",
	"wal.pagewrites_per_commit": "ratio",
	"txn.groupcommit_batch":     "count",
	"lockmgr.waits_per_txn":     "ratio",
	"lockmgr.deadlocks":         "count",
	"retry_frac":                "ratio",
	"lsm.write_amp":             "ratio",
	"lsm.flushes":               "count",
	"lsm.compactions":           "count",
	"lsm.compaction_blocks":     "count",
	"lsm.trim_blocks":           "count",
}

// layerReportUnits are per-layer times that some workload has no use
// for: no query on the transactional workloads, no transaction,
// checkpoint or recovery on tpch-power, no log-band wait where the log
// never queues. Such a time reads 0 on every run there, so the report
// prints them and the JSON line leaves them out; host.op_ms covers the
// per-op host time on every workload. Snapshot reads come only from
// oltp-commit's OrderStatus, which BENCHMARK.json holds back, so they
// read 0 on every gated workload and are reported the same way.
var layerReportUnits = map[string]string{
	"bufferpool.snapshot_reads": "count",
	"host.query_ms":             "ms",
	"host.rf_ms":                "ms",
	"host.txn_us":               "us",
	"host.checkpoint_ms":        "ms",
	"host.recovery_ms":          "ms",
	"sim.recovery_ms":           "ms",
	"iosched.wait_p50_ms.log":   "ms",
	"iosched.wait_p99_ms.log":   "ms",
}

// layerMetrics fills c.layer from the measured phase's registry
// snapshot (the registry was reset when the phase began) and from the
// deltas of the program's own statistics.
func (c *repCtx) layerMetrics(inst *engine.Instance, snap []obs.Metric, after counters, ops, retries int64) {
	reg := regView(snap)
	l := c.layer
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	hit, miss := reg.sum("bufferpool.hit"), reg.sum("bufferpool.miss")
	l["bufferpool.hit_ratio"] = ratio(hit, hit+miss)
	l["bufferpool.evictions"] = reg.sum("bufferpool.evictions")
	l["bufferpool.writeback"] = reg.sum("bufferpool.writeback")
	l["bufferpool.snapshot_reads"] = reg.sum("bufferpool.snapshot.reads")

	chit, cmiss := reg.sum("cache.hits"), reg.sum("cache.misses")
	l["cache.hit_ratio"] = ratio(chit, chit+cmiss)
	l["cache.evictions"] = reg.sum("cache.evictions")
	l["cache.write_allocs"] = float64(after.sys.WriteAllocs - c.before.sys.WriteAllocs)

	var blocks [5]float64
	var allBlocks float64
	for i, t := range policy.RequestTypes() {
		blocks[i] = float64(after.types[t].Blocks - c.before.types[t].Blocks)
		allBlocks += blocks[i]
	}
	for i, name := range []string{"sequential", "random", "temp", "update", "log"} {
		l["policy.blocks."+name] = 100 * ratio(blocks[i], allBlocks)
	}

	logClass := fmt.Sprintf("class=%d", int(dss.ClassLog))
	logWait := reg.hist("iosched.band.wait", logClass)
	l["iosched.wait_p50_ms.log"] = logWait.QuantileF(0.50) / 1e6
	l["iosched.wait_p99_ms.log"] = logWait.QuantileF(0.99) / 1e6
	l["iosched.background_grants"] = reg.sum("iosched.background.grants")
	l["iosched.coalesced"] = reg.sum("iosched.coalesced")
	l["iosched.prefetch_hits"] = reg.sum("iosched.prefetch.hits")
	l["iosched.boosted"] = reg.sum("iosched.boosted")

	if d := inst.Sys.SSD(); d != nil {
		l["device.busy_s.ssd"] = reg.sum("device.busytime", "dev="+d.Spec().Name) / 1e9
	}
	if d := inst.Sys.HDD(); d != nil {
		dev := "dev=" + d.Spec().Name
		l["device.busy_s.hdd"] = reg.sum("device.busytime", dev) / 1e9
		l["device.blocks.hdd"] = reg.sum("device.blocks.read", dev) + reg.sum("device.blocks.write", dev)
	}

	commits := reg.sum("txn.commits")
	l["wal.flushes_per_commit"] = ratio(reg.sum("wal.flushes"), commits)
	l["wal.pagewrites_per_commit"] = ratio(reg.sum("wal.pagewrites"), commits)
	batch := reg.hist("wal.groupcommit.batch")
	l["txn.groupcommit_batch"] = ratio(float64(batch.Sum), float64(batch.Count))
	l["lockmgr.waits_per_txn"] = ratio(reg.sum("lockmgr.wait"), float64(ops))
	l["lockmgr.deadlocks"] = reg.sum("lockmgr.deadlocks")
	l["retry_frac"] = ratio(float64(retries), float64(ops))

	m0, m1 := c.before.maint, after.maint
	flushW := float64(m1.FlushWriteBlocks - m0.FlushWriteBlocks)
	compW := float64(m1.CompactionWriteBlocks - m0.CompactionWriteBlocks)
	l["lsm.write_amp"] = ratio(flushW+compW, flushW)
	l["lsm.flushes"] = float64(m1.Flushes - m0.Flushes)
	l["lsm.compactions"] = float64(m1.Compactions - m0.Compactions)
	l["lsm.compaction_blocks"] = compW + float64(m1.CompactionReadBlocks-m0.CompactionReadBlocks)
	l["lsm.trim_blocks"] = float64(m1.TrimBlocks - m0.TrimBlocks)
}

// regView answers aggregate queries over a registry snapshot. Metric
// names are canonical: name{k1=v1,k2=v2}.
type regView []obs.Metric

// match reports whether canonical carries name and every wanted label.
func match(canonical, name string, labels []string) bool {
	base, rest, _ := strings.Cut(canonical, "{")
	if base != name {
		return false
	}
	have := strings.Split(strings.TrimSuffix(rest, "}"), ",")
	for _, want := range labels {
		found := false
		for _, h := range have {
			found = found || h == want
		}
		if !found {
			return false
		}
	}
	return true
}

// sum adds every counter or gauge named name that carries the labels.
func (v regView) sum(name string, labels ...string) float64 {
	var total int64
	for _, m := range v {
		if m.Kind != "histogram" && match(m.Name, name, labels) {
			total += m.Value
		}
	}
	return float64(total)
}

// hist merges every histogram named name that carries the labels.
func (v regView) hist(name string, labels ...string) obs.Histogram {
	var out obs.Histogram
	first := true
	for _, m := range v {
		if m.Kind != "histogram" || !match(m.Name, name, labels) {
			continue
		}
		if first {
			out, first = m.Hist, false
		} else {
			out.Merge(m.Hist)
		}
	}
	return out
}

// writeTrace writes the traced repetitions' spans and the last CPU
// profile under dir, for reading with `go tool pprof`.
func (r *runResult) writeTrace(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var spans [][]span
	var prof []byte
	for _, c := range r.reps {
		if c.traced {
			spans = append(spans, c.spans)
			prof = c.prof
		}
	}
	js, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.json"), js, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "cpu.pprof"), prof, 0o644)
}

// processCPU is the CPU time the process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
