// Command perfbench is the repository's benchmark. It drives three
// closed-loop workloads through the engine's public Go APIs and measures
// them on both of the system's clocks: the virtual clock the storage model
// advances (the paper's answer) and the host clock the simulator spends
// (its own cost).
//
//	perfbench --workload tpch-power|oltp-commit|lsm-update --seed N --seconds S --trace 0|1
//
// One invocation repeats the workload — fresh dataset, fresh instance,
// same seed-derived inputs — until --seconds have passed, checks every
// answer of every repetition, and reports medians over the repetitions.
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it
// alternates untraced and traced repetitions: the traced ones attach a CPU
// profile and an obs registry from outside the program and yield the
// per-layer metrics, and the untraced ones give the tracing overhead.
// The last line of standard output is one JSON object; the lines before
// it are a human-readable report. A wrong answer exits 1 after printing.
// See NOTES.md for what each metric means and which layer moves it.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one of the benchmark's closed-loop workloads (NOTES.md
// says why each was chosen).
type workload struct {
	name string
	// procs is the most Ps the workload runs on: 1 for the single
	// stream, 2 for the multi-client workloads.
	procs int
	// heldBack, when set, says why BENCHMARK.json leaves the workload
	// out. It still runs by name and counts every failure.
	heldBack string
	// rep runs one repetition: set-up, measured phase, verification.
	rep func(c *repCtx) error
}

func workloads(sz sizes, refs tpchRefs) []workload {
	return []workload{
		{"tpch-power", 1, "", func(c *repCtx) error { return tpchPowerRep(c, sz, refs) }},
		{"oltp-commit", 2, "OrderStatus snapshot reads fail now and then on an uncommitted frame with no covering version (bufferpool MVCC defect)",
			func(c *repCtx) error { return oltpCommitRep(c, sz) }},
		{"lsm-update", 2, "", func(c *repCtx) error { return lsmUpdateRep(c, sz) }},
	}
}

func main() {
	name := flag.String("workload", "", "workload: tpch-power, oltp-commit or lsm-update")
	seed := flag.Int64("seed", 0, "workload seed: derives every generated input")
	seconds := flag.Float64("seconds", 30, "repeat the workload until this many wall seconds have passed")
	trace := flag.Int("trace", 0, "1: alternate untraced and traced repetitions and print per-layer metrics")
	record := flag.Bool("record-tpch-refs", false, "recompute perfbench/tpch_ref.json under all three storage modes and exit")
	flag.Parse()

	if *record {
		pinProcs(2)
		if err := recordTPCHRefs(fullSize, "perfbench/tpch_ref.json"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var refs tpchRefs
	if *name == "tpch-power" {
		var err error
		if refs, err = loadTPCHRefs("perfbench/tpch_ref.json"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	var w *workload
	for _, cand := range workloads(fullSize, refs) {
		if cand.name == *name {
			w = &cand
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q or --trace %d\n", *name, *trace)
		os.Exit(2)
	}

	procs := pinProcs(w.procs)
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d %s\n", w.name, *seed, *seconds, *trace, runMeta(procs))
	if w.heldBack != "" {
		fmt.Printf("held back from BENCHMARK.json: %s\n", w.heldBack)
	}
	res, err := measure(*w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *trace == 1 {
		if err := res.writeTrace(fmt.Sprintf(".bench_build/perfbench/trace-%s-seed%d", w.name, *seed)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			os.Exit(1)
		}
	}
	res.report(os.Stdout, *trace == 1)
	line, err := json.Marshal(res.jsonLine(*trace == 1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.correct() {
		os.Exit(1)
	}
}

// pinProcs caps GOMAXPROCS at min(max, nproc). Virtual results of the
// multi-client workloads depend on it (goroutine interleaving decides
// lock and group-commit outcomes), so every host runs the clients on the
// same number of Ps. The single stream, tpch-power, asks for one P: a
// second would only run idle-priority GC workers, whose CPU time follows
// the host's load rather than the program's work.
func pinProcs(max int) int {
	n := runtime.NumCPU()
	if n > max {
		n = max
	}
	runtime.GOMAXPROCS(n)
	return n
}

// runResult is everything one invocation measured.
type runResult struct {
	reps []*repCtx // untraced and traced, in run order
}

// measure repeats w until budget has passed (at least three untraced
// repetitions, plus at least one traced one when tracing). Repetition i
// runs input set seed+i, so a run's medians sample several input sets
// and depend less on any one of them.
func measure(w workload, seed int64, budget time.Duration, trace bool) (*runResult, error) {
	res := &runResult{}
	start := time.Now()
	for i := 0; ; i++ {
		traced := trace && i%2 == 1
		// Start every repetition from the same heap and resident state,
		// so the previous repetition's garbage and pages are not charged
		// to this one.
		resetPeakRSS()
		c := newRepCtx(seed+int64(i), traced)
		if err := w.rep(c); err != nil {
			return nil, fmt.Errorf("%s repetition %d: %w", w.name, i+1, err)
		}
		c.peakRSS = peakRSSMB()
		c.finish()
		res.reps = append(res.reps, c)
		untraced, tracedN := res.count()
		enough := untraced >= 3 && (!trace || tracedN >= 1)
		if enough && time.Since(start) >= budget {
			return res, nil
		}
	}
}

func (r *runResult) count() (untraced, traced int) {
	for _, c := range r.reps {
		if c.traced {
			traced++
		} else {
			untraced++
		}
	}
	return untraced, traced
}

func (r *runResult) correct() bool {
	for _, c := range r.reps {
		if len(c.wrong) > 0 {
			return false
		}
	}
	return true
}

// medianOf returns the median of f over the selected repetitions.
func (r *runResult) medianOf(traced bool, f func(*repCtx) float64) float64 {
	var xs []float64
	for _, c := range r.reps {
		if c.traced == traced {
			xs = append(xs, f(c))
		}
	}
	return median(xs)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the gated metrics from the untraced repetitions.
func (r *runResult) endToEnd() map[string]metric {
	m := func(f func(*repCtx) float64) float64 { return r.medianOf(false, f) }
	return map[string]metric{
		"setup_s":       {m(func(c *repCtx) float64 { return c.refCPU(c.setup) }), "s"},
		"cpu_s":         {m(func(c *repCtx) float64 { return c.refCPU(c.cpuTime) }), "s"},
		"alloc_mb":      {m(func(c *repCtx) float64 { return float64(c.allocBytes) / 1e6 }), "MB"},
		"max_rss_mb":    {m(func(c *repCtx) float64 { return c.peakRSS }), "MB"},
		"sim_s":         {m(func(c *repCtx) float64 { return c.sim.Seconds() }), "s"},
		"sim_ops_per_s": {m(func(c *repCtx) float64 { return float64(len(c.opLat)) / c.sim.Seconds() }), "1/s"},
		"sim_op_p50_ms": {ms(centralMean(r.pooledLat(), 0.49, 0.51)), "ms"},
		"sim_op_p99_ms": {ms(quantile(r.pooledLat(), 0.99)), "ms"},
	}
}

// ungated are end-to-end metrics the report prints but the JSON line
// does not gate. Wall times (run_s, setup_wall_s) swing with the host's
// load far more than any bound, and raw CPU times (setup_cpu_s,
// run_cpu_s) with the host's speed (see NOTES.md); the gated setup_s
// and cpu_s are CPU times scaled to the reference host by host_speed.
// fail_frac is 0 on a healthy run (the JSON line carries it as
// attempted/failed), and tpch-power has no log to recover.
func (r *runResult) ungated() map[string]metric {
	m := func(f func(*repCtx) float64) float64 { return r.medianOf(false, f) }
	out := map[string]metric{
		"run_s":        {m(func(c *repCtx) float64 { return c.run.Seconds() }), "s"},
		"setup_wall_s": {m(func(c *repCtx) float64 { return c.setupWall.Seconds() }), "s"},
		"run_cpu_s":    {m(func(c *repCtx) float64 { return c.cpuTime.Seconds() }), "s"},
		"setup_cpu_s":  {m(func(c *repCtx) float64 { return c.setup.Seconds() }), "s"},
		"host_speed":   {m(func(c *repCtx) float64 { return c.hostSpeed() }), "ratio"},
		"fail_frac":    {r.failFrac(), "ratio"},
	}
	if rec := r.medianOf(false, func(c *repCtx) float64 { return ms(c.recovery) }); rec > 0 {
		out["sim_recovery_ms"] = metric{rec, "ms"}
	}
	return out
}

// pooledLat gathers the op latencies of every untraced repetition.
func (r *runResult) pooledLat() []time.Duration {
	var all []time.Duration
	for _, c := range r.reps {
		if !c.traced {
			all = append(all, c.opLat...)
		}
	}
	return all
}

// perLayer computes the traced metrics: medians over the traced
// repetitions, CPU shares over all their profile samples pooled, and the
// tracing overhead as traced run_s over untraced run_s.
func (r *runResult) perLayer() map[string]metric {
	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{r.medianOf(true, func(c *repCtx) float64 { return c.layer[name] }), unit}
	}
	samples := map[string]int64{}
	var total int64
	for _, c := range r.reps {
		for mod, n := range c.cpu {
			samples[mod] += n
			total += n
		}
	}
	for _, mod := range cpuModules {
		share := 0.0
		if total > 0 {
			share = 100 * float64(samples[mod]) / float64(total)
		}
		out["cpu."+mod] = metric{share, "%"}
	}
	run := func(traced bool) float64 {
		return r.medianOf(traced, func(c *repCtx) float64 { return c.run.Seconds() })
	}
	out["trace.overhead"] = metric{run(true) / run(false), "ratio"}
	out["fail_frac"] = metric{r.failFrac(), "ratio"}
	return out
}

// layerReport computes the per-layer metrics the report prints but the
// JSON line leaves out (see layerReportUnits).
func (r *runResult) layerReport() map[string]metric {
	out := make(map[string]metric, len(layerReportUnits))
	for name, unit := range layerReportUnits {
		out[name] = metric{r.medianOf(true, func(c *repCtx) float64 { return c.layer[name] }), unit}
	}
	return out
}

func (r *runResult) totals() (attempted, failed int64) {
	for _, c := range r.reps {
		attempted += c.attempted
		failed += c.failed
	}
	return attempted, failed
}

func (r *runResult) failFrac() float64 {
	a, f := r.totals()
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

// jsonLine is the final output line.
func (r *runResult) jsonLine(trace bool) map[string]any {
	attempted, failed := r.totals()
	metrics := r.endToEnd()
	if trace {
		metrics = r.perLayer()
	}
	return map[string]any{
		"correct":   r.correct(),
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	}
}

// report prints the human-readable lines that precede the JSON line:
// each repetition's figures, every failure and wrong answer by name, the
// sample count behind the percentiles, and every metric with its unit.
func (r *runResult) report(out *os.File, trace bool) {
	untraced, traced := r.count()
	attempted, failed := r.totals()
	fmt.Fprintf(out, "repetitions: %d untraced, %d traced; ops attempted %d, failed %d (fail_frac %.6f)\n",
		untraced, traced, attempted, failed, r.failFrac())
	fmt.Fprintf(out, "latency samples behind the percentiles: %d\n", len(r.pooledLat()))
	for i, c := range r.reps {
		fmt.Fprintf(out, "repetition %d traced=%v: host_speed=%.3f rss_mb=%.1f setup_cpu_s=%.4f setup_wall_s=%.4f run_s=%.4f run_cpu_s=%.4f alloc_mb=%.1f sim_s=%.4f p50_ms=%.4f p99_ms=%.4f ops=%d\n",
			i+1, c.traced, c.hostSpeed(), c.peakRSS, c.setup.Seconds(), c.setupWall.Seconds(), c.run.Seconds(), c.cpuTime.Seconds(), float64(c.allocBytes)/1e6, c.sim.Seconds(),
			ms(quantile(c.opLat, 0.5)), ms(quantile(c.opLat, 0.99)), len(c.opLat))
		for _, e := range c.errs {
			fmt.Fprintf(out, "failed op: %s\n", e)
		}
		for _, e := range c.wrong {
			fmt.Fprintf(out, "WRONG ANSWER: %s\n", e)
		}
	}
	printMetrics(out, r.endToEnd())
	printMetrics(out, r.ungated())
	if trace {
		printMetrics(out, r.perLayer())
		printMetrics(out, r.layerReport())
	}
}

func printMetrics(out *os.File, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// maxRSSMB is the process's peak resident set so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of ds (0 when empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// centralMean is the mean of the samples ranked between the lo and hi
// quantiles. Virtual latencies are discrete (many transactions take the
// same CPU charge plus the same log force), so a bare p50 is often one
// repeated value; the mean of the central 2% still tracks the median
// but also moves when part of that band moves.
func centralMean(ds []time.Duration, lo, hi float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	a, b := int(lo*float64(len(s))), int(hi*float64(len(s)))+1
	if b > len(s) {
		b = len(s)
	}
	var sum time.Duration
	for _, d := range s[a:b] {
		sum += d
	}
	return sum / time.Duration(b-a)
}

// sizes scales the workloads: fullSize is the benchmark, the smoke test
// runs tinySize.
type sizes struct {
	tpchSF  float64
	clients int

	oltpSF                                   float64
	oltpPerRound, oltpWarmRounds, oltpRounds int

	lsmAccounts                           int64
	lsmPad, lsmPoolPages, lsmCacheBlocks  int
	lsmPerRound, lsmWarmRounds, lsmRounds int
}

var fullSize = sizes{
	tpchSF:  0.02, // 2541 data pages
	clients: 4,

	oltpSF:         0.01,
	oltpPerRound:   50, // 200 transactions between checkpoints
	oltpWarmRounds: 2,
	oltpRounds:     60, // 12 000 measured transactions

	lsmAccounts:    8192,
	lsmPad:         800, // ~9 rows per page: ~10x the 96-page pool
	lsmPoolPages:   96,
	lsmCacheBlocks: 160,
	lsmPerRound:    38, // ~150 commits between checkpoints
	lsmWarmRounds:  13,
	lsmRounds:      53, // 8056 measured transactions
}

// runMeta records what the virtual results depend on besides the seed:
// GOMAXPROCS, the host's CPU count, the Go version and the source.
// The commit comes from the build's VCS stamp when there is one; the
// source digest identifies the tree when there is not.
func runMeta(procs int) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				defer func() { commit += "+modified" }()
			}
		}
	}
	return fmt.Sprintf("gomaxprocs=%d nproc=%d go=%s commit=%s source=%s",
		procs, runtime.NumCPU(), runtime.Version(), commit, sourceDigest("."))
}

// sourceDigest hashes every Go source and module file under root, so
// runs of one tree can be matched without a VCS.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil)[:8])
}
