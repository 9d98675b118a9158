package pagestore

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestCreateAndExists(t *testing.T) {
	s := NewStore()
	if s.Exists(1) {
		t.Fatal("object 1 exists in empty store")
	}
	if err := s.Create(1); err != nil {
		t.Fatal(err)
	}
	if !s.Exists(1) {
		t.Fatal("created object missing")
	}
	if err := s.Create(1); err == nil {
		t.Fatal("duplicate create accepted")
	}
}

func TestReadUnwrittenPageIsZero(t *testing.T) {
	s := NewStore()
	_ = s.Create(1)
	data, _, err := s.ReadPage(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != PageSize {
		t.Fatalf("page size %d", len(data))
	}
	for _, b := range data {
		if b != 0 {
			t.Fatal("unwritten page not zero")
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := NewStore()
	_ = s.Create(7)
	payload := []byte("hello page")
	if _, err := s.WritePage(7, 3, payload); err != nil {
		t.Fatal(err)
	}
	data, _, err := s.ReadPage(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data[:len(payload)], payload) {
		t.Fatal("payload mismatch")
	}
	if s.Pages(7) != 4 {
		t.Fatalf("pages = %d, want 4 (out-of-order growth)", s.Pages(7))
	}
}

func TestSequentialLayout(t *testing.T) {
	// Pages of one object inside an extent must map to consecutive LBAs:
	// the property Rule 1 depends on.
	s := NewStore()
	_ = s.Create(1)
	prev, err := s.LBA(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for p := int64(1); p < ExtentPages; p++ {
		lba, err := s.LBA(1, p)
		if err != nil {
			t.Fatal(err)
		}
		if lba != prev+1 {
			t.Fatalf("page %d at LBA %d, prev at %d", p, lba, prev)
		}
		prev = lba
	}
}

func TestDistinctObjectsDistinctLBAs(t *testing.T) {
	s := NewStore()
	_ = s.Create(1)
	_ = s.Create(2)
	a, _ := s.LBA(1, 0)
	b, _ := s.LBA(2, 0)
	if a == b {
		t.Fatal("objects share an LBA")
	}
}

func TestDeleteReturnsExtentsAndRecycles(t *testing.T) {
	s := NewStore()
	_ = s.Create(1)
	for p := int64(0); p < ExtentPages+10; p++ {
		if _, err := s.WritePage(1, p, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	exts, err := s.Delete(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) != 2 {
		t.Fatalf("extents = %d, want 2", len(exts))
	}
	var pages int64
	for _, e := range exts {
		pages += e.Pages
	}
	if pages != ExtentPages+10 {
		t.Fatalf("extent pages = %d, want %d", pages, ExtentPages+10)
	}
	if s.Exists(1) {
		t.Fatal("deleted object still exists")
	}
	// Freed extents are reused by new objects.
	_ = s.Create(2)
	lba, _ := s.LBA(2, 0)
	found := false
	for _, e := range exts {
		if lba >= e.Start && lba < e.Start+ExtentPages {
			found = true
		}
	}
	if !found {
		t.Fatal("freed extent not recycled")
	}
	// And the recycled pages read as zero.
	data, _, _ := s.ReadPage(2, 0)
	for _, b := range data {
		if b != 0 {
			t.Fatal("stale data visible after recycle")
		}
	}
}

// TestReadPageViewsKeepTheirContent: ReadPage hands out the stored page,
// not a copy, so the store must never write into an installed page. A view
// taken earlier keeps its content across a rewrite of the page, a
// Truncate, and the reuse of its LBA by another object, and pages that
// were never written (again) read as zeroes.
func TestReadPageViewsKeepTheirContent(t *testing.T) {
	s := NewStore()
	_ = s.Create(1)
	zero := make([]byte, PageSize)
	page := func(b byte) []byte { return bytes.Repeat([]byte{b}, PageSize) }
	read := func(id ObjectID, p int64) []byte {
		t.Helper()
		data, _, err := s.ReadPage(id, p)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	if !bytes.Equal(read(1, 3), zero) {
		t.Fatal("unwritten page not zero")
	}
	_, _ = s.WritePage(1, 0, page(1))
	v1 := read(1, 0)
	_, _ = s.WritePage(1, 0, page(2))
	v2 := read(1, 0)
	if !bytes.Equal(v1, page(1)) || !bytes.Equal(v2, page(2)) {
		t.Fatal("rewrite changed an earlier view")
	}
	lba, _ := s.LBA(1, 0)

	if _, err := s.Truncate(1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v2, page(2)) {
		t.Fatal("truncate changed an earlier view")
	}

	// Object 1's extent went back to the free list; object 2 reuses it.
	_ = s.Create(2)
	if got, _ := s.LBA(2, 0); got != lba {
		t.Fatalf("object 2 page 0 at LBA %d, want recycled %d", got, lba)
	}
	_, _ = s.WritePage(2, 0, page(3))
	if !bytes.Equal(v1, page(1)) || !bytes.Equal(v2, page(2)) {
		t.Fatal("LBA reuse changed an earlier view")
	}
	if !bytes.Equal(read(2, 0), page(3)) || !bytes.Equal(read(2, 1), zero) {
		t.Fatal("recycled extent reads wrong content")
	}
	if !bytes.Equal(read(1, 0), zero) {
		t.Fatal("truncated page not zero")
	}
}

func TestTruncateKeepsObject(t *testing.T) {
	s := NewStore()
	_ = s.Create(1)
	_, _ = s.WritePage(1, 0, []byte{9})
	exts, err := s.Truncate(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) != 1 {
		t.Fatalf("extents %d", len(exts))
	}
	if !s.Exists(1) || s.Pages(1) != 0 {
		t.Fatal("truncate broke the object")
	}
}

func TestErrors(t *testing.T) {
	s := NewStore()
	if _, err := s.LBA(9, 0); err == nil {
		t.Fatal("unknown object accepted")
	}
	if _, err := s.Delete(9); err == nil {
		t.Fatal("deleting unknown object accepted")
	}
	_ = s.Create(1)
	if _, err := s.LBA(1, -1); err == nil {
		t.Fatal("negative page accepted")
	}
	big := make([]byte, PageSize+1)
	if _, err := s.WritePage(1, 0, big); err == nil {
		t.Fatal("oversized page accepted")
	}
}

func TestTotalPagesAndObjects(t *testing.T) {
	s := NewStore()
	_ = s.Create(3)
	_ = s.Create(1)
	_, _ = s.WritePage(1, 0, []byte{1})
	_, _ = s.WritePage(3, 4, []byte{1})
	if got := s.TotalPages(); got != 6 {
		t.Fatalf("total pages %d, want 6", got)
	}
	ids := s.Objects()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Fatalf("objects %v", ids)
	}
}

// Property: LBAs never collide across live (object, page) pairs.
func TestNoLBACollisions(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewStore()
		seen := map[int64][2]int64{} // lba -> (obj, page)
		for _, op := range ops {
			obj := ObjectID(op%5) + 1
			page := int64(op % 300)
			if !s.Exists(obj) {
				if err := s.Create(obj); err != nil {
					return false
				}
			}
			lba, err := s.LBA(obj, page)
			if err != nil {
				return false
			}
			if prev, ok := seen[lba]; ok {
				if prev != [2]int64{int64(obj), page} {
					return false
				}
			}
			seen[lba] = [2]int64{int64(obj), page}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
