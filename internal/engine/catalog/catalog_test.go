package catalog

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func sampleSchema() Schema {
	return NewSchema(
		Column{Name: "id", Type: Int64},
		Column{Name: "price", Type: Float64},
		Column{Name: "name", Type: String},
		Column{Name: "when", Type: Date},
	)
}

func TestSchemaCol(t *testing.T) {
	s := sampleSchema()
	if s.Col("price") != 1 {
		t.Fatalf("price at %d", s.Col("price"))
	}
	if s.Col("missing") != -1 {
		t.Fatal("missing column found")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustCol on missing column did not panic")
		}
	}()
	s.MustCol("missing")
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := sampleSchema()
	in := Tuple{IntDatum(-42), FloatDatum(3.25), StringDatum("héllo"), IntDatum(12345)}
	enc, err := EncodeTuple(nil, s, in)
	if err != nil {
		t.Fatal(err)
	}
	out, n, err := DecodeTuple(enc, s)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d", n, len(enc))
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip %v -> %v", in, out)
	}
}

func TestEncodeArityMismatch(t *testing.T) {
	s := sampleSchema()
	if _, err := EncodeTuple(nil, s, Tuple{IntDatum(1)}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestDecodeTruncated(t *testing.T) {
	s := sampleSchema()
	enc, _ := EncodeTuple(nil, s, Tuple{IntDatum(1), FloatDatum(2), StringDatum("abc"), IntDatum(3)})
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := DecodeTuple(enc[:cut], s); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestDecodeTupleView: the view decode yields the same values as the
// owned decode, with strings aliasing the source bytes, and the nil-tuple
// validation fails exactly where the owned decode fails.
func TestDecodeTupleView(t *testing.T) {
	s := sampleSchema()
	in := Tuple{IntDatum(7), FloatDatum(-1.5), StringDatum("view"), IntDatum(9)}
	enc, _ := EncodeTuple(nil, s, in)
	view := make(Tuple, len(s.Cols))
	n, err := DecodeTupleView(enc, s, view)
	if err != nil || n != len(enc) || !reflect.DeepEqual(view, in) {
		t.Fatalf("view decode: %v %d %v", view, n, err)
	}
	if p := unsafe.StringData(view[2].S); p != &enc[len(enc)-12] {
		t.Fatal("view string does not alias the source")
	}
	if n, err := DecodeTupleView(enc, s, nil); err != nil || n != len(enc) {
		t.Fatalf("validation: %d %v", n, err)
	}
	for cut := 0; cut < len(enc); cut++ {
		_, _, owned := DecodeTuple(enc[:cut], s)
		if _, err := DecodeTupleView(enc[:cut], s, nil); (err == nil) != (owned == nil) {
			t.Fatalf("cut %d: validation err %v, owned decode err %v", cut, err, owned)
		}
	}
}

// Property: encode/decode round-trips arbitrary values, including NaN-free
// floats and empty strings.
func TestCodecProperty(t *testing.T) {
	s := sampleSchema()
	f := func(id int64, price float64, name string, when int64) bool {
		if math.IsNaN(price) {
			price = 0
		}
		in := Tuple{IntDatum(id), FloatDatum(price), StringDatum(name), IntDatum(when)}
		enc, err := EncodeTuple(nil, s, in)
		if err != nil {
			return false
		}
		out, n, err := DecodeTuple(enc, s)
		if err != nil || n != len(enc) {
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCatalogTables(t *testing.T) {
	c := New()
	ti, err := c.AddTable("t", sampleSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddTable("t", sampleSchema()); err == nil {
		t.Fatal("duplicate table accepted")
	}
	got, err := c.Table("t")
	if err != nil || got.ID != ti.ID {
		t.Fatalf("lookup: %v %v", got, err)
	}
	if _, err := c.Table("nope"); err == nil {
		t.Fatal("unknown table found")
	}
	c.SetRows("t", 99)
	if c.MustTable("t").Rows != 99 {
		t.Fatal("SetRows lost")
	}
}

func TestCatalogIndexes(t *testing.T) {
	c := New()
	ti, _ := c.AddTable("t", sampleSchema())
	ix, err := c.AddIndex("t_id", "t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ix.TableID != ti.ID {
		t.Fatal("index not bound to table")
	}
	if _, err := c.AddIndex("bad", "nope", 0); err == nil {
		t.Fatal("index on unknown table accepted")
	}
	if _, err := c.AddIndex("bad", "t", 42); err == nil {
		t.Fatal("out-of-range key column accepted")
	}
	if _, err := c.AddIndex("t_id", "t", 0); err == nil {
		t.Fatal("duplicate index accepted")
	}
	found, ok := c.IndexFor(ti.ID, 0)
	if !ok || found.Name != "t_id" {
		t.Fatalf("IndexFor: %v %v", found, ok)
	}
	if _, ok := c.IndexFor(ti.ID, 1); ok {
		t.Fatal("phantom index found")
	}
}

func TestTempIDs(t *testing.T) {
	c := New()
	a, b := c.NewTempID(), c.NewTempID()
	if a == b {
		t.Fatal("temp IDs collide")
	}
	if !IsTemp(a) || !IsTemp(b) {
		t.Fatal("temp IDs not in temp range")
	}
	ti, _ := c.AddTable("t", sampleSchema())
	if IsTemp(ti.ID) {
		t.Fatal("table ID in temp range")
	}
	if c.NameOf(a) == "" || c.NameOf(ti.ID) != "t" {
		t.Fatalf("NameOf: %q %q", c.NameOf(a), c.NameOf(ti.ID))
	}
}

func TestListings(t *testing.T) {
	c := New()
	_, _ = c.AddTable("b", sampleSchema())
	_, _ = c.AddTable("a", sampleSchema())
	_, _ = c.AddIndex("ix", "a", 0)
	tables := c.Tables()
	if len(tables) != 2 || tables[0].Name != "a" {
		t.Fatalf("tables %v", tables)
	}
	if len(c.Indexes()) != 1 {
		t.Fatal("index listing wrong")
	}
}
