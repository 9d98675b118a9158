package heap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/pagestore"
)

// oracleDecode and oracleRewrite are the decode-all / re-encode-all page
// path that slot-directed access replaced. They stay here only as the
// reference that spliced pages and corruption errors are checked against.
func oracleDecode(data []byte, schema catalog.Schema) ([]catalog.Tuple, error) {
	if len(data) < pageHeader {
		return nil, fmt.Errorf("heap: short page")
	}
	n := binary.LittleEndian.Uint16(data[:2])
	out := make([]catalog.Tuple, 0, n)
	off := pageHeader
	for i := 0; i < int(n); i++ {
		if off+2 > len(data) {
			return nil, fmt.Errorf("heap: truncated tuple header at slot %d", i)
		}
		l := int(binary.LittleEndian.Uint16(data[off:]))
		off += 2
		if l == tombstone {
			out = append(out, nil)
			continue
		}
		if off+l > len(data) {
			return nil, fmt.Errorf("heap: truncated tuple at slot %d", i)
		}
		t, _, err := catalog.DecodeTuple(data[off:off+l], schema)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		off += l
	}
	return out, nil
}

func oracleRewrite(tuples []catalog.Tuple, schema catalog.Schema) ([]byte, error) {
	buf := make([]byte, pageHeader, pagestore.PageSize)
	binary.LittleEndian.PutUint16(buf[:2], uint16(len(tuples)))
	var l [2]byte
	for _, t := range tuples {
		if t == nil {
			binary.LittleEndian.PutUint16(l[:], tombstone)
			buf = append(buf, l[:]...)
			continue
		}
		enc, err := catalog.EncodeTuple(nil, schema, t)
		if err != nil {
			return nil, err
		}
		binary.LittleEndian.PutUint16(l[:], uint16(len(enc)))
		buf = append(buf, l[:]...)
		buf = append(buf, enc...)
	}
	if len(buf) > pagestore.PageSize {
		return nil, fmt.Errorf("heap: rewritten page overflows (%d bytes)", len(buf))
	}
	return buf, nil
}

var colTypes = []catalog.ColType{catalog.Int64, catalog.Float64, catalog.Date, catalog.String}

func randSchema(rng *rand.Rand) catalog.Schema {
	cols := make([]catalog.Column, 1+rng.Intn(7))
	for i := range cols {
		cols[i] = catalog.Column{Name: fmt.Sprintf("c%d", i), Type: colTypes[rng.Intn(len(colTypes))]}
	}
	return catalog.NewSchema(cols...)
}

// randTuple draws a tuple of s; a third of its strings are empty.
func randTuple(rng *rand.Rand, s catalog.Schema, maxStr int) catalog.Tuple {
	t := make(catalog.Tuple, len(s.Cols))
	for i, c := range s.Cols {
		switch c.Type {
		case catalog.Float64:
			t[i] = catalog.FloatDatum(rng.NormFloat64() * 1e6)
		case catalog.String:
			b := make([]byte, 0, maxStr)
			if rng.Intn(3) > 0 {
				for n := rng.Intn(maxStr + 1); n > 0; n-- {
					b = append(b, byte('a'+rng.Intn(26)))
				}
			}
			t[i] = catalog.StringDatum(string(b))
		default:
			t[i] = catalog.IntDatum(rng.Int63() - rng.Int63())
		}
	}
	return t
}

// randPage draws up to maxSlots tuples of s (about a quarter of them
// tombstones) that fit on one page.
func randPage(rng *rand.Rand, s catalog.Schema, maxSlots, maxStr int) []catalog.Tuple {
	var tuples []catalog.Tuple
	for n := 1 + rng.Intn(maxSlots); len(tuples) < n; {
		var t catalog.Tuple
		if rng.Intn(4) > 0 {
			t = randTuple(rng, s, maxStr)
		}
		if _, err := oracleRewrite(append(tuples, t), s); err != nil {
			break
		}
		tuples = append(tuples, t)
	}
	return tuples
}

var slotTag = policy.Tag{Object: 1, Content: policy.Table}

// install puts page bytes into the buffer pool as page 0 of object 1.
func (h *harness) install(t *testing.T, page []byte) {
	t.Helper()
	if err := h.pool.Put(&h.clk, slotTag, 0, page); err != nil {
		t.Fatal(err)
	}
}

func (h *harness) page0(t *testing.T) []byte {
	t.Helper()
	data, err := h.pool.Get(&h.clk, slotTag, 0)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSpliceMatchesRewrite: Update and Delete splice one slot into a copy
// of the page, and the result is byte-identical to decoding the whole
// page, changing the slot and re-encoding every tuple.
func TestSpliceMatchesRewrite(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := newHarness(t, 16)
	_ = h.store.Create(1)
	for trial := 0; trial < 300; trial++ {
		schema := randSchema(rng)
		f := NewFile(1, schema, policy.Table)
		tuples := randPage(rng, schema, 80, 60)
		if len(tuples) > 2 && trial%2 == 0 {
			tuples[1] = nil // a tombstone right after the first slot
		}
		page, err := oracleRewrite(tuples, schema)
		if err != nil {
			t.Fatal(err)
		}
		for _, slot := range []int{0, len(tuples) / 2, len(tuples) - 1} {
			rid := catalog.RID{Page: 0, Slot: uint16(slot)}

			// Update: oracle first, then the splice on the same input page.
			upd := randTuple(rng, schema, 60)
			want := append([]catalog.Tuple(nil), tuples...)
			want[slot] = upd
			wantPage, wantErr := oracleRewrite(want, schema)
			h.install(t, page)
			err := f.Update(&h.clk, h.pool, rid, upd, 0)
			switch {
			case tuples[slot] == nil:
				if err == nil {
					t.Fatalf("trial %d: update of tombstone slot %d accepted", trial, slot)
				}
			case (err != nil) != (wantErr != nil):
				t.Fatalf("trial %d slot %d: update err %v, oracle err %v", trial, slot, err, wantErr)
			case err == nil && !bytes.Equal(h.page0(t), wantPage):
				t.Fatalf("trial %d: update of slot %d differs from the oracle page", trial, slot)
			}

			// Delete.
			want[slot] = nil
			wantPage, err = oracleRewrite(want, schema)
			if err != nil {
				t.Fatal(err)
			}
			h.install(t, page)
			ok, err := f.Delete(&h.clk, h.pool, rid, 0)
			if err != nil {
				t.Fatal(err)
			}
			if ok != (tuples[slot] != nil) {
				t.Fatalf("trial %d: delete of slot %d reported %v", trial, slot, ok)
			}
			if ok && !bytes.Equal(h.page0(t), wantPage) {
				t.Fatalf("trial %d: delete of slot %d differs from the oracle page", trial, slot)
			}
		}
	}
}

// corruptPageOps runs every read and write path against the installed
// page and reports the first one that did not fail.
func corruptPageOps(h *harness, f *File, slots int) string {
	for s := 0; s < slots; s++ {
		rid := catalog.RID{Page: 0, Slot: uint16(s)}
		if _, err := f.Fetch(&h.clk, h.pool, rid, 0); err == nil {
			return fmt.Sprintf("Fetch of slot %d", s)
		}
	}
	if _, _, _, err := f.NewScanner(&h.clk, h.pool, 1).Next(); err == nil {
		return "Scanner.Next"
	}
	accept := func(catalog.Tuple, catalog.RID) bool { return true }
	if _, _, _, err := f.NewScanner(&h.clk, h.pool, 1).NextMatch(accept); err == nil {
		return "Scanner.NextMatch"
	}
	rid := catalog.RID{Page: 0, Slot: uint16(slots - 1)}
	if err := f.Update(&h.clk, h.pool, rid, make(catalog.Tuple, len(f.Schema.Cols)), 0); err == nil {
		return "Update"
	}
	if _, err := f.Delete(&h.clk, h.pool, rid, 0); err == nil {
		return "Delete"
	}
	return ""
}

// TestCorruptPageFailsEveryPath: a page cut at any byte of any slot, or a
// tuple whose encoding is cut inside a column, fails Fetch of every slot,
// both scan entry points, Update and Delete, wherever decoding the whole
// page used to fail.
func TestCorruptPageFailsEveryPath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := newHarness(t, 16)
	_ = h.store.Create(1)
	for trial := 0; trial < 6; trial++ {
		schema := randSchema(rng)
		f := NewFile(1, schema, policy.Table)
		tuples := randPage(rng, schema, 10, 12)
		page, err := oracleRewrite(tuples, schema)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(page); cut++ {
			if _, err := oracleDecode(page[:cut], schema); err == nil {
				t.Fatalf("trial %d: oracle accepts a page cut at %d", trial, cut)
			}
			h.install(t, page[:cut])
			if op := corruptPageOps(h, f, len(tuples)); op != "" {
				t.Fatalf("trial %d: %s accepted a page cut at byte %d of %d", trial, op, cut, len(page))
			}
		}
		for i, tup := range tuples {
			if tup == nil {
				continue
			}
			enc, _ := catalog.EncodeTuple(nil, schema, tup)
			for cut := 0; cut < len(enc); cut++ {
				// Slot i claims only cut bytes, so its columns run short
				// while the slot directory itself stays well formed.
				var bad []byte
				bad = binary.LittleEndian.AppendUint16(bad, uint16(len(tuples)))
				for j, u := range tuples {
					switch {
					case u == nil:
						bad = binary.LittleEndian.AppendUint16(bad, tombstone)
					case j == i:
						bad = binary.LittleEndian.AppendUint16(bad, uint16(cut))
						bad = append(bad, enc[:cut]...)
					default:
						e, _ := catalog.EncodeTuple(nil, schema, u)
						bad = binary.LittleEndian.AppendUint16(bad, uint16(len(e)))
						bad = append(bad, e...)
					}
				}
				if _, err := oracleDecode(bad, schema); err == nil {
					t.Fatalf("trial %d: oracle accepts slot %d cut at %d", trial, i, cut)
				}
				h.install(t, bad)
				if op := corruptPageOps(h, f, len(tuples)); op != "" {
					t.Fatalf("trial %d: %s accepted slot %d cut at column byte %d", trial, op, i, cut)
				}
			}
		}
	}
}

// TestScanPredicateRowsOwnTheirStrings: a row returned through a
// predicate scan is a materialized copy; none of its strings points into
// the page buffer the scanner decoded it from. The predicate sees every
// row with its RID, rejected rows are skipped, and accepted ones keep
// RIDs that fetch back the same row.
func TestScanPredicateRowsOwnTheirStrings(t *testing.T) {
	h := newHarness(t, 64)
	_ = h.store.Create(1)
	f := NewFile(1, testSchema(), policy.Table)
	app := f.NewAppender(&h.clk, h.pool, 0)
	for i := int64(0); i < 1500; i++ {
		if _, err := app.Append(row(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	sc := f.NewScanner(&h.clk, h.pool, h.store.Pages(1))
	match := func(v catalog.Tuple, rid catalog.RID) bool {
		if back, err := f.Fetch(&h.clk, h.pool, rid, 0); err != nil || back == nil || back[0].I != v[0].I {
			t.Errorf("match saw key %d at %v, which fetches %v (%v)", v[0].I, rid, back, err)
		}
		return v[0].I%3 == 0
	}
	seen := 0
	for {
		tup, rid, ok, err := sc.NextMatch(match)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if tup[0].I != int64(3*seen) || tup[1].S != fmt.Sprintf("val-%d", tup[0].I) {
			t.Fatalf("match %d is %v", seen, tup)
		}
		seen++
		page, err := h.pool.Get(&h.clk, slotTag, rid.Page)
		if err != nil {
			t.Fatal(err)
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(page)))
		if p := uintptr(unsafe.Pointer(unsafe.StringData(tup[1].S))); p >= lo && p < lo+uintptr(cap(page)) {
			t.Fatalf("row %v aliases its page buffer", tup)
		}
		back, err := f.Fetch(&h.clk, h.pool, rid, 0)
		if err != nil || back[0].I != tup[0].I {
			t.Fatalf("rid %v fetches %v (%v), scanned %v", rid, back, err, tup)
		}
	}
	if seen != 500 {
		t.Fatalf("predicate scan returned %d rows, want 500", seen)
	}
}

// TestScanLongTombstoneRun: a run of deleted slots far longer than a page
// (as RF2 leaves behind) is skipped in one pass.
func TestScanLongTombstoneRun(t *testing.T) {
	h := newHarness(t, 64)
	_ = h.store.Create(1)
	f := NewFile(1, testSchema(), policy.Table)
	app := f.NewAppender(&h.clk, h.pool, 0)
	var rids []catalog.RID
	for i := int64(0); i < 3000; i++ {
		rid, err := app.Append(row(i))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	const lo, hi = 200, 2800 // 2600 consecutive tombstones
	for _, rid := range rids[lo:hi] {
		if ok, err := f.Delete(&h.clk, h.pool, rid, 0); err != nil || !ok {
			t.Fatalf("delete %v: %v %v", rid, ok, err)
		}
	}
	for _, pred := range []func(catalog.Tuple, catalog.RID) bool{nil, func(catalog.Tuple, catalog.RID) bool { return true }} {
		sc := f.NewScanner(&h.clk, h.pool, h.store.Pages(1))
		var keys []int64
		for {
			tup, _, ok, err := sc.NextMatch(pred)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			keys = append(keys, tup[0].I)
		}
		if len(keys) != 3000-(hi-lo) {
			t.Fatalf("scan over the tombstone run returned %d rows, want %d", len(keys), 3000-(hi-lo))
		}
		if keys[lo-1] != lo-1 || keys[lo] != hi {
			t.Fatalf("rows around the tombstone run: %v, want [%d %d]", keys[lo-1:lo+1], lo-1, hi)
		}
	}
}
