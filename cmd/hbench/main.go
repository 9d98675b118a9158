// Command hbench regenerates the tables and figures of the hStorage-DB
// paper's evaluation (Section 6) against the simulated hybrid storage
// system.
//
// Usage:
//
//	hbench -exp all
//	hbench -exp fig5,fig6,table5 -sf 0.02 -cache 0.7
//	hbench -exp txnscale -workers 1,2,4,8 -json metrics.json
//	hbench -exp iosched -trace trace.json -metrics
//
// Experiments: fig4, fig5, table4, fig6, table5, table6, fig9, table7,
// fig11 (includes table8), table9, fig12, oltp, iosched, txnscale,
// tenants, htap, shards, lsm, hotpath, all.
//
// With -json, every experiment's structured results are also written to
// the given file as one versioned JSON document (schema "hbench/v1")
// keyed by experiment id, so successive runs can be compared
// mechanically (see cmd/benchdiff).
//
// With -trace, every layer of the run — I/O scheduler queueing, device
// service, buffer pool miss fills, lock waits, WAL flushes and
// checkpoints, group commits — records spans on the simulated clock into
// a bounded ring buffer, written at exit as Chrome trace-event JSON
// (load it in Perfetto or chrome://tracing). -tracecap bounds the ring;
// -tracesample 1/N-samples the per-request spans. Traces of a
// fixed-seed run are deterministic when every request is sampled
// (-tracesample 1, the default).
//
// With -metrics, the full metrics registry — dotted-name counters,
// gauges, and latency histograms from all layers — is dumped to stdout
// after the experiments finish, and embedded in the -json document when
// both are given.
//
// -cpuprofile and -memprofile write host-side pprof profiles of the whole
// run (the simulator's own cost, not the simulated time):
//
//	hbench -exp fig11 -sf 0.02 -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof -top cpu.out
//	go tool pprof -sample_index=alloc_space -top mem.out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"hstoragedb/internal/dss"
	"hstoragedb/internal/experiments"
	"hstoragedb/internal/obs"
)

// benchSchema versions the -json document layout. Bump it when the
// top-level shape changes; cmd/benchdiff refuses files it doesn't know.
const benchSchema = "hbench/v1"

// benchFile is the versioned -json document.
type benchFile struct {
	Schema      string             `json:"schema"`
	Config      experiments.Config `json:"config"`
	Experiments map[string]any     `json:"experiments"`
	Metrics     map[string]any     `json:"metrics,omitempty"`
}

func main() {
	log.SetFlags(0)
	exp := flag.String("exp", "all", "comma-separated experiment ids (fig4 fig5 table4 fig6 table5 table6 fig9 table7 fig11 table9 fig12 oltp iosched txnscale tenants htap shards lsm hotpath all)")
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor")
	cache := flag.Float64("cache", 0.7, "SSD cache size as a fraction of total data pages")
	bp := flag.Float64("bp", 0.04, "buffer pool size as a fraction of total data pages")
	workMem := flag.Int("workmem", 3000, "blocking-operator memory budget in tuples")
	seed := flag.Int64("seed", 0, "query parameter seed")
	streams := flag.Int("streams", 3, "query streams in the throughput and iosched tests")
	txns := flag.Int("txns", 150, "transactions per configuration in the OLTP/iosched experiments; total transactions per sweep point in txnscale (split across workers)")
	workersFlag := flag.String("workers", "1,2,4,8", "comma-separated worker counts for the txnscale experiment")
	tenantsFlag := flag.String("tenants", "4,2,1,1", "comma-separated tenant weights for the tenants experiment (tenant IDs 1..n)")
	scanBlocks := flag.Int("scanblocks", 3000, "per-tenant scan-stream demand in blocks for the tenants experiment")
	scanRounds := flag.Int("scanrounds", 6, "revenue sweeps by the analytics stream in the htap experiment")
	shardsFlag := flag.String("shards", "1,2,4", "comma-separated shard counts for the shards experiment (counts below 1 are clamped to 1)")
	xshard := flag.Float64("xshard", 0.2, "fraction of cross-shard transfers in the shards experiment's cross-shard arm (clamped into [0,1])")
	jsonPath := flag.String("json", "", "write per-experiment metrics to this file as versioned JSON (schema hbench/v1)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file of every layer's spans (open in Perfetto)")
	traceCap := flag.Int("tracecap", 0, "trace ring-buffer capacity in spans (0 = default 65536; oldest spans drop first)")
	traceSample := flag.Int("tracesample", 1, "record per-request spans for 1 in N requests (1 = all; >1 trades fidelity for memory)")
	metricsDump := flag.Bool("metrics", false, "dump the metrics registry (counters, gauges, histograms) to stdout after the run")
	cpuProfile := flag.String("cpuprofile", "", "write a host CPU profile of the run to this file (read it with go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a host heap profile to this file at exit (go tool pprof -sample_index=alloc_space for bytes allocated)")
	flag.Parse()

	traceSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "trace" {
			traceSet = true
		}
	})
	if traceSet && *tracePath == "" {
		log.Fatal("-trace needs an output path, e.g. -trace trace.json")
	}
	if *tracePath == "" && (*traceCap != 0 || *traceSample != 1) {
		log.Fatal("-tracecap/-tracesample only make sense with -trace")
	}
	if *traceSample < 1 {
		log.Fatal("-tracesample must be >= 1")
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}

	// The observability set is shared by every instance the experiments
	// build: the registry accumulates across experiments, the tracer
	// keeps the most recent spans up to its capacity.
	var set *obs.Set
	if *tracePath != "" || *metricsDump {
		set = &obs.Set{Reg: obs.NewRegistry()}
		if *tracePath != "" {
			set.Tracer = obs.NewTracer(obs.TraceConfig{Capacity: *traceCap, SampleEvery: *traceSample})
		}
	}

	cfg := experiments.Config{
		SF:              *sf,
		CacheRatio:      *cache,
		BufferPoolRatio: *bp,
		WorkMem:         *workMem,
		Seed:            *seed,
		Obs:             set,
	}

	workers, err := parseWorkers(*workersFlag)
	if err != nil {
		log.Fatalf("-workers: %v", err)
	}
	tenantSpecs, err := parseTenants(*tenantsFlag)
	if err != nil {
		log.Fatalf("-tenants: %v", err)
	}
	shardCounts, err := parseShards(*shardsFlag)
	if err != nil {
		log.Fatalf("-shards: %v", err)
	}
	*xshard = clampXShard(*xshard)

	want := map[string]bool{}
	for _, id := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(strings.ToLower(id))] = true
	}
	all := want["all"]
	has := func(id string) bool { return all || want[id] }

	fmt.Printf("hbench: SF=%g cache=%.0f%% of data, bp=%.0f%%, workmem=%d tuples\n",
		cfg.SF, 100*cfg.CacheRatio, 100*cfg.BufferPoolRatio, cfg.WorkMem)
	fmt.Println("loading dataset...")
	env, err := experiments.NewEnv(cfg)
	if err != nil {
		log.Fatalf("load: %v", err)
	}
	fmt.Printf("loaded: %d data pages (%.1f MB)\n\n", env.Data, float64(env.Data)*8/1024)

	// metrics accumulates each experiment's structured results for -json.
	metrics := map[string]any{}

	ran := false
	run := func(id string, f func() (any, error)) {
		if !has(id) {
			return
		}
		ran = true
		result, err := f()
		if err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		metrics[id] = result
		fmt.Println()
	}

	run("fig4", func() (any, error) {
		shares, err := env.Fig4()
		if err != nil {
			return nil, err
		}
		fmt.Print(experiments.FormatFig4(shares))
		return shares, nil
	})
	run("fig5", func() (any, error) {
		rows, err := env.Fig5()
		if err != nil {
			return nil, err
		}
		fmt.Print(experiments.FormatModeTimes("Figure 5: sequential-dominated queries (Q1, Q5, Q11, Q19)", rows))
		return rows, nil
	})
	run("table4", func() (any, error) {
		rows, err := env.Table4()
		if err != nil {
			return nil, err
		}
		fmt.Print(experiments.FormatTable4(rows))
		return rows, nil
	})
	run("fig6", func() (any, error) {
		rows, err := env.Fig6()
		if err != nil {
			return nil, err
		}
		fmt.Print(experiments.FormatModeTimes("Figure 6: random-dominated queries (Q9, Q21)", rows))
		return rows, nil
	})
	run("table5", func() (any, error) {
		rows, err := env.Table5()
		if err != nil {
			return nil, err
		}
		fmt.Print(experiments.FormatPrioTable("Table 5: Q9 random-request cache statistics (hStorage-DB)",
			map[string][]experiments.PrioRow{"hStorage-DB": rows}, []string{"hStorage-DB"}))
		return rows, nil
	})
	run("table6", func() (any, error) {
		hs, lru, err := env.Table6()
		if err != nil {
			return nil, err
		}
		fmt.Print(experiments.FormatPrioTable("Table 6: Q21 cache statistics",
			map[string][]experiments.PrioRow{"hStorage-DB": hs, "LRU": lru},
			[]string{"hStorage-DB", "LRU"}))
		return map[string]any{"hstorage": hs, "lru": lru}, nil
	})
	run("fig9", func() (any, error) {
		rows, err := env.Fig9()
		if err != nil {
			return nil, err
		}
		fmt.Print(experiments.FormatModeTimes("Figure 9: temp-data query (Q18)", rows))
		return rows, nil
	})
	run("table7", func() (any, error) {
		hs, lru, err := env.Table7()
		if err != nil {
			return nil, err
		}
		fmt.Print(experiments.FormatPrioTable("Table 7: Q18 cache statistics (temp reads vs sequential)",
			map[string][]experiments.PrioRow{"hStorage-DB": hs, "LRU": lru},
			[]string{"hStorage-DB", "LRU"}))
		return map[string]any{"hstorage": hs, "lru": lru}, nil
	})
	run("fig11", func() (any, error) {
		res, err := env.Fig11()
		if err != nil {
			return nil, err
		}
		fmt.Print(experiments.FormatFig11(res))
		return res, nil
	})
	run("oltp", func() (any, error) {
		runs, err := env.OLTPAll(*txns)
		if err != nil {
			return nil, err
		}
		fmt.Print(experiments.FormatOLTP(runs))
		return runs, nil
	})
	run("iosched", func() (any, error) {
		runs, err := env.IOSchedAll(*streams, *txns)
		if err != nil {
			return nil, err
		}
		fmt.Print(experiments.FormatIOSched(runs))
		return runs, nil
	})
	run("txnscale", func() (any, error) {
		runs, err := env.TxnScaleAll(workers, *txns)
		if err != nil {
			return nil, err
		}
		fmt.Print(experiments.FormatTxnScale(runs))
		return runs, nil
	})
	run("tenants", func() (any, error) {
		// -txns is the total across tenants, at least one each: a tiny
		// -txns must bound the run, not fall through to the default.
		perTenant := *txns / len(tenantSpecs)
		if perTenant < 1 {
			perTenant = 1
		}
		runs, err := env.TenantsAll(tenantSpecs, *scanBlocks, perTenant)
		if err != nil {
			return nil, err
		}
		fmt.Print(experiments.FormatTenants(runs))
		return runs, nil
	})
	run("htap", func() (any, error) {
		// Eight OLTP workers split -txns between them while the
		// analytics session runs -scanrounds revenue sweeps. The
		// interference contrast needs sustained writer pressure, so at
		// least 30 transactions per worker run regardless of the
		// (shared) -txns default.
		perWorker := *txns / 8
		if perWorker < 30 {
			perWorker = 30
		}
		runs, err := env.HTAPAll(8, perWorker, *scanRounds)
		if err != nil {
			return nil, err
		}
		fmt.Print(experiments.FormatHTAP(runs))
		return runs, nil
	})
	run("shards", func() (any, error) {
		// The largest -workers entry drives every sweep point; -txns is
		// the cluster-wide total per point, as in txnscale. The sweep is
		// self-contained (it builds its own accounts clusters, not the
		// TPC-H env) but shares the observability set, so per-shard
		// labelled series land in -metrics/-trace output.
		runs, err := experiments.ShardsAll(shardCounts, workers[len(workers)-1], *txns, *xshard, *seed, set)
		if err != nil {
			return nil, err
		}
		fmt.Print(experiments.FormatShards(runs))
		return runs, nil
	})
	run("lsm", func() (any, error) {
		// Storage-backend comparison: heap vs LSM under the write-heavy
		// update mix, with the compaction-classification ablation as the
		// third arm. Self-contained (it builds its own single-shard
		// accounts clusters, not the TPC-H env) but shares the
		// observability set. The largest -workers entry drives the run;
		// -txns is the per-arm total.
		runs, err := experiments.LSMAll(workers[len(workers)-1], *txns, *seed, set)
		if err != nil {
			return nil, err
		}
		fmt.Print(experiments.FormatLSM(runs))
		return runs, nil
	})
	run("hotpath", func() (any, error) {
		// Scheduler hot-path microbenchmark: wall-clock ns/op and
		// allocs/op for the pick/grant engine (indexed vs the reference
		// linear picker), opportunistic-submit scaling, and the
		// deterministic anticipatory HDD arm. Self-contained — it builds
		// its own schedulers and ignores the TPC-H env.
		res := experiments.HotpathAll()
		fmt.Print(experiments.FormatHotpath(res))
		return res, nil
	})
	if has("table9") || has("fig12") {
		ran = true
		tEnv, err := experiments.NewEnv(cfg.ThroughputConfig())
		if err != nil {
			log.Fatalf("throughput env: %v", err)
		}
		t9, err := tEnv.Table9(*streams)
		if err != nil {
			log.Fatalf("table9: %v", err)
		}
		if has("table9") {
			metrics["table9"] = t9
			fmt.Println(experiments.FormatTable9(t9))
		}
		if has("fig12") {
			f12, err := tEnv.Fig12(t9)
			if err != nil {
				log.Fatalf("fig12: %v", err)
			}
			metrics["fig12"] = f12
			fmt.Println(experiments.FormatFig12(f12))
		}
	}

	if !ran {
		fmt.Fprintf(os.Stderr, "no experiment matched %q\n", *exp)
		os.Exit(2)
	}

	if *metricsDump {
		fmt.Println("metrics registry:")
		fmt.Print(set.Reg.Format())
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatalf("-trace: %v", err)
		}
		if err := set.Tracer.WriteChromeTrace(f); err != nil {
			log.Fatalf("-trace: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("-trace: %v", err)
		}
		if n := set.Tracer.Dropped(); n > 0 {
			fmt.Printf("trace written to %s (%d spans; ring overflowed, oldest %d dropped — raise -tracecap)\n",
				*tracePath, set.Tracer.Len(), n)
		} else {
			fmt.Printf("trace written to %s (%d spans)\n", *tracePath, set.Tracer.Len())
		}
	}
	if *jsonPath != "" {
		doc := benchFile{Schema: benchSchema, Config: cfg, Experiments: metrics}
		if *metricsDump {
			doc.Metrics = set.Reg.JSONSnapshot()
		}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			log.Fatalf("-json: marshal: %v", err)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			log.Fatalf("-json: %v", err)
		}
		fmt.Printf("metrics written to %s\n", *jsonPath)
	}
	if err := stopProfiles(); err != nil {
		log.Fatal(err)
	}
}

// parseTenants parses the -tenants flag: a comma-separated list of
// positive tenant weights, assigned to tenant IDs 1..n in order.
func parseTenants(s string) ([]experiments.TenantSpec, error) {
	var out []experiments.TenantSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		w, err := strconv.ParseFloat(part, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad tenant weight %q", part)
		}
		out = append(out, experiments.TenantSpec{ID: dss.TenantID(len(out) + 1), Weight: w})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no tenant weights")
	}
	return out, nil
}

// parseShards parses the -shards flag: a comma-separated list of shard
// counts. Malformed entries are errors; counts below one are clamped to
// a single shard (the same tolerance -txns gets), since a zero-shard
// cluster has no meaning but the sweep can still run.
func parseShards(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad shard count %q", part)
		}
		if n < 1 {
			n = 1
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no shard counts")
	}
	return out, nil
}

// clampXShard clamps the cross-shard fraction into [0,1]; NaN becomes 0.
func clampXShard(x float64) float64 {
	if !(x > 0) { // catches NaN too
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// parseWorkers parses the -workers flag: a comma-separated list of
// positive worker counts.
func parseWorkers(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad worker count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no worker counts")
	}
	return out, nil
}
