package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// tinySize runs every workload in well under a second.
var tinySize = sizes{
	tpchSF:  0.002,
	clients: 2,

	oltpSF:         0.002,
	oltpPerRound:   5,
	oltpWarmRounds: 1,
	oltpRounds:     3,

	lsmAccounts:    512,
	lsmPad:         800,
	lsmPoolPages:   16,
	lsmCacheBlocks: 32,
	lsmPerRound:    5,
	lsmWarmRounds:  1,
	lsmRounds:      3,
}

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string, names []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	return endToEnd, perLayer, names
}

// sameMetrics checks that got holds exactly the declared names, each
// with its declared unit and a finite value.
func sameMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not printed", what, name)
		case m.Unit != unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", what, name, m.Value)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s printed but not declared", what, name)
		}
	}
}

func tinyRefs(t *testing.T) tpchRefs {
	t.Helper()
	refs, err := computeTPCHRefs(tinySize.tpchSF, tpchParamSets)
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

func TestSmokeEveryMetricPrinted(t *testing.T) {
	endToEnd, perLayer, names := declared(t)
	ws := workloads(tinySize, tinyRefs(t))
	var gated []string
	for _, w := range ws {
		if w.heldBack == "" {
			gated = append(gated, w.name)
		}
	}
	if strings.Join(gated, ",") != strings.Join(names, ",") {
		t.Fatalf("gated workloads %v, BENCHMARK.json declares %v", gated, names)
	}
	for _, w := range ws {
		for _, trace := range []bool{false, true} {
			res, err := measure(w, 1, 0, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.correct() {
				t.Fatalf("%s trace=%v: wrong answers: %v", w.name, trace, res.reps[0].wrong)
			}
			line := res.jsonLine(trace)
			if a := line["attempted"].(int64); a < 1 {
				t.Errorf("%s: attempted %d", w.name, a)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			sameMetrics(t, w.name, line["metrics"].(map[string]metric), want)
			for name, m := range line["metrics"].(map[string]metric) {
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
				}
			}
		}
	}
}

func TestCPUSharesSumTo100(t *testing.T) {
	ws := workloads(tinySize, nil)
	res, err := measure(ws[2], 1, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, mod := range cpuModules {
		sum += res.perLayer()["cpu."+mod].Value
	}
	if sum != 0 && math.Abs(sum-100) > 1e-6 {
		t.Errorf("cpu shares sum to %v%%", sum)
	}
}

func TestCorruptReferenceTripsGate(t *testing.T) {
	refs := tinyRefs(t)
	key := refKey(tinySize.tpchSF, 1%tpchParamSets)
	want := append([]stepAnswer(nil), refs[key]...)
	want[5].Digest = "0000000000000000"
	refs[key] = want
	res, err := measure(workloads(tinySize, refs)[0], 1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.correct() {
		t.Fatal("a corrupted reference digest passed the correctness gate")
	}
	if _, failed := res.totals(); failed == 0 {
		t.Fatal("a wrong answer was not counted as a failed op")
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"hstoragedb/internal/engine/catalog.DecodeTuple":  "catalog",
		"hstoragedb/internal/engine.(*Session).Execute":   "engine",
		"hstoragedb/internal/tpch.(*Dataset).q1.func1":    "tpch",
		"hstoragedb/internal/iosched.(*Scheduler).Submit": "iosched",
		"main.(*closedLoop).run.func1":                    "bench",
		"runtime.mallocgc":                                "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
