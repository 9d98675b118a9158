package heap

import (
	"fmt"
	"testing"

	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/policy"
)

// benchFile loads rows lineitem-shaped tuples (integer keys, prices,
// dates and short flag/comment strings) into a buffer pool large enough to
// hold every page, so the benchmarks time decode rather than device waits.
func benchFile(b *testing.B, rows int) (*harness, *File, []catalog.RID) {
	b.Helper()
	h := newHarness(b, 4096)
	_ = h.store.Create(1)
	schema := catalog.NewSchema(
		catalog.Column{Name: "orderkey", Type: catalog.Int64},
		catalog.Column{Name: "partkey", Type: catalog.Int64},
		catalog.Column{Name: "quantity", Type: catalog.Float64},
		catalog.Column{Name: "price", Type: catalog.Float64},
		catalog.Column{Name: "discount", Type: catalog.Float64},
		catalog.Column{Name: "returnflag", Type: catalog.String},
		catalog.Column{Name: "shipdate", Type: catalog.Date},
		catalog.Column{Name: "shipmode", Type: catalog.String},
		catalog.Column{Name: "comment", Type: catalog.String},
	)
	f := NewFile(1, schema, policy.Table)
	app := f.NewAppender(&h.clk, h.pool, 0)
	rids := make([]catalog.RID, rows)
	for i := range rids {
		t := catalog.Tuple{
			catalog.IntDatum(int64(i / 4)), catalog.IntDatum(int64(i * 7 % 2000)),
			catalog.FloatDatum(float64(i % 50)), catalog.FloatDatum(float64(i) * 1.5),
			catalog.FloatDatum(0.05), catalog.StringDatum("NRA"[i%3 : i%3+1]),
			catalog.IntDatum(int64(8000 + i%2500)), catalog.StringDatum("TRUCK"),
			catalog.StringDatum(fmt.Sprintf("carefully final deposits %d", i)),
		}
		var err error
		if rids[i], err = app.Append(t); err != nil {
			b.Fatal(err)
		}
	}
	if err := app.Close(); err != nil {
		b.Fatal(err)
	}
	return h, f, rids
}

// BenchmarkHeapFetch: one RID fetch (an index probe's heap access) per op.
func BenchmarkHeapFetch(b *testing.B) {
	h, f, rids := benchFile(b, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rid := rids[(i*7919)%len(rids)]
		if _, err := f.Fetch(&h.clk, h.pool, rid, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeapScan: one full-file scan per op, returning every row
// ("all") or only the ~2% a shipdate predicate accepts ("pred").
func BenchmarkHeapScan(b *testing.B) {
	h, f, _ := benchFile(b, 20000)
	pages := h.store.Pages(1)
	for _, bc := range []struct {
		name string
		pred func(catalog.Tuple, catalog.RID) bool
	}{
		{"all", nil},
		{"pred", func(t catalog.Tuple, _ catalog.RID) bool { return t[6].I < 8050 }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc := f.NewScanner(&h.clk, h.pool, pages)
				for {
					_, _, ok, err := sc.NextMatch(bc.pred)
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						break
					}
				}
			}
		})
	}
}
