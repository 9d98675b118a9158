package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strconv"
	"time"

	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/obs"
	"hstoragedb/internal/tpch"
)

// tpchParamSets is how many query-parameter sets the inputs select
// among: the reference answers are recorded once per set (tpch_ref.json).
const tpchParamSets = 16

func tpchParamSeed(input int64) int64 { return (input%tpchParamSets + tpchParamSets) % tpchParamSets }

// tpchInstance sizes an instance the way the paper's power test does: an
// SSD cache of 0.7x the data and a buffer pool of 4% of it.
func tpchInstance(ds *tpch.Dataset, mode hybrid.Mode, set *obs.Set) (*engine.Instance, error) {
	data := int(ds.DB.Store.TotalPages())
	return ds.DB.NewInstance(engine.InstanceConfig{
		Storage:         hybrid.Config{Mode: mode, CacheBlocks: max(64, data*7/10)},
		BufferPoolPages: max(64, data*4/100),
		WorkMem:         3000,
		CPUPerTuple:     300 * time.Nanosecond,
		Obs:             set,
	})
}

// stepAnswer is the checked outcome of one power-test step: the RF row
// counts, or a query's row count and order-independent result digest.
type stepAnswer struct {
	Step   string `json:"step"`
	Rows   int64  `json:"rows"`
	Digest string `json:"digest,omitempty"`
}

// tpchRefs maps refKey(sf, params) to the reference answers of a power
// test, in step order.
type tpchRefs map[string][]stepAnswer

func refKey(sf float64, params int64) string { return fmt.Sprintf("sf=%g/params=%d", sf, params) }

// tpchPowerRep is one repetition of tpch-power: load, build an
// hStorage-DB instance, run RF1 + the 22 queries in power order + RF2 on
// one stream, and check each step's answer against the reference.
func tpchPowerRep(c *repCtx, sz sizes, refs tpchRefs) error {
	params := tpchParamSeed(c.input)
	want, ok := refs[refKey(sz.tpchSF, params)]
	if !ok {
		return fmt.Errorf("no reference answers for %s", refKey(sz.tpchSF, params))
	}
	ds, err := tpch.Load(sz.tpchSF)
	if err != nil {
		return err
	}
	inst, err := tpchInstance(ds, hybrid.HStorage, c.set)
	if err != nil {
		return err
	}
	if err := c.beginRun(inst); err != nil {
		return err
	}
	steps := powerTest(c, ds, inst, params)
	if err := c.endRun(int64(len(steps)), 0); err != nil {
		return err
	}
	checkPower(c, steps, want)
	return nil
}

// powerStep is one executed step with its raw result.
type powerStep struct {
	label string
	rows  []catalog.Tuple // queries only
	n     int64
	err   error
}

// powerTest runs the power sequence on a fresh session, recording the
// virtual latency of each step and the session clock at the end (the
// Table 8 cell). A failing step is counted and the sequence goes on.
func powerTest(c *repCtx, ds *tpch.Dataset, inst *engine.Instance, params int64) []powerStep {
	sess := inst.NewSession()
	var steps []powerStep
	step := func(st powerStep, start time.Duration) {
		c.attempted++
		if st.err != nil {
			c.fail("%s: %v", st.label, st.err)
		} else {
			c.opLat = append(c.opLat, sess.Clk.Now()-start)
		}
		steps = append(steps, st)
		c.sampleHost(3)
	}
	rf := func(label string, f func(*engine.Session) (int, error)) {
		start := sess.Clk.Now()
		st := powerStep{label: label}
		st.err = c.span("rf", func() error {
			n, err := f(sess)
			st.n = int64(n)
			return err
		})
		step(st, start)
	}

	rf("RF1", ds.RF1)
	for _, q := range tpch.PowerOrder() {
		start := sess.Clk.Now()
		st := powerStep{label: fmt.Sprintf("Q%d", q)}
		st.err = c.span("query", func() error {
			op, err := ds.Query(q, params)
			if err != nil {
				return err
			}
			res, err := sess.Execute(op)
			st.rows, st.n = res.Rows, int64(len(res.Rows))
			return err
		})
		step(st, start)
	}
	rf("RF2", func(s *engine.Session) (int, error) {
		n, err := ds.RF2(s)
		inst.Mgr.Wait(&s.Clk) // the sequence ends when its writes are durable
		return n, err
	})
	c.sim = sess.Clk.Now()
	return steps
}

// answers reduces executed steps to their checked form.
func answers(steps []powerStep) []stepAnswer {
	out := make([]stepAnswer, len(steps))
	for i, st := range steps {
		out[i] = stepAnswer{Step: st.label, Rows: st.n}
		if st.label[0] == 'Q' {
			out[i].Digest = digest(st.rows)
		}
	}
	return out
}

// checkPower compares each step that ran with its reference answer.
func checkPower(c *repCtx, steps []powerStep, want []stepAnswer) {
	got := answers(steps)
	if len(got) != len(want) {
		c.wrongAnswer("power test ran %d steps, reference has %d", len(got), len(want))
		return
	}
	for i, g := range got {
		if steps[i].err == nil && g != want[i] {
			c.wrongAnswer("%s: got rows=%d digest=%s, want rows=%d digest=%s",
				g.Step, g.Rows, g.Digest, want[i].Rows, want[i].Digest)
		}
	}
}

// digest is an order-independent digest of a result multiset: the sum
// of per-row FNV-1a hashes. Floats hash at 10 significant digits.
func digest(rows []catalog.Tuple) string {
	var sum uint64
	var buf []byte
	for _, t := range rows {
		h := fnv.New64a()
		for _, d := range t {
			buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(d.I))
			buf = strconv.AppendFloat(buf, canonFloat(d.F), 'g', 10, 64)
			buf = append(buf, 0)
			buf = append(buf, d.S...)
			buf = append(buf, 0)
			h.Write(buf)
		}
		sum += h.Sum64()
	}
	return fmt.Sprintf("%016x", sum)
}

// canonFloat maps negative zero and NaN to zero, so equal answers hash
// alike.
func canonFloat(f float64) float64 {
	if f == 0 || math.IsNaN(f) {
		return 0
	}
	return f
}

func loadTPCHRefs(path string) (tpchRefs, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading reference answers: %w", err)
	}
	var refs tpchRefs
	if err := json.Unmarshal(b, &refs); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return refs, nil
}

// computeTPCHRefs runs the power test of every parameter set under the
// HDD-only, SSD-only and hStorage-DB modes on fresh datasets. The storage
// mode must not change an answer, so any disagreement is an error.
func computeTPCHRefs(sf float64, sets int64) (tpchRefs, error) {
	refs := tpchRefs{}
	for params := int64(0); params < sets; params++ {
		var first []stepAnswer
		for _, mode := range []hybrid.Mode{hybrid.HStorage, hybrid.SSDOnly, hybrid.HDDOnly} {
			ds, err := tpch.Load(sf)
			if err != nil {
				return nil, err
			}
			inst, err := tpchInstance(ds, mode, nil)
			if err != nil {
				return nil, err
			}
			c := newRepCtx(params, false)
			steps := powerTest(c, ds, inst, params)
			if len(c.errs) > 0 {
				return nil, fmt.Errorf("params %d on %v: %s", params, mode, c.errs[0])
			}
			got := answers(steps)
			if first == nil {
				first = got
				continue
			}
			for i := range got {
				if got[i] != first[i] {
					return nil, fmt.Errorf("params %d: %s differs on %v: %+v vs %+v", params, got[i].Step, mode, got[i], first[i])
				}
			}
		}
		refs[refKey(sf, params)] = first
	}
	return refs, nil
}

// recordTPCHRefs recomputes the committed reference answers.
func recordTPCHRefs(sz sizes, path string) error {
	refs, err := computeTPCHRefs(sz.tpchSF, tpchParamSets)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
