// Package heap implements slotted heap files: the on-disk representation
// of regular tables and of temporary files. Pages are fetched through the
// buffer pool with the semantic tag of the requesting operator, so a
// sequential scan produces Rule 1 traffic and an RID fetch from an index
// scan produces Rule 2 traffic.
//
// Page layout: [uint16 slotCount] then, per slot, [uint16 length]
// followed by that many bytes of tuple encoding (catalog.EncodeTuple). A
// deleted slot keeps its position with length 0xFFFF and no payload, so
// the RIDs of later slots stay valid. The bytes after the last slot are
// unused.
//
// Reads are slot-directed. Every access first parses the page into a slot
// directory (offset and length per slot), and that parse validates the
// whole page: a short page, a truncated slot header, a slot running past
// the page and a column truncated inside a tuple all fail the read, and
// nothing is allocated doing so. After that:
//   - Fetch decodes only the requested slot;
//   - Update and Delete copy the page with that one slot re-encoded or
//     tombstoned, leaving every other byte as it was;
//   - Scanner, given a predicate, decodes each live slot into a reused
//     scratch tuple whose strings alias the page, runs the predicate on
//     it, and materializes an owned tuple only for an accepted row.
//
// Page bytes handed out by the buffer pool are read-only views (see
// pagestore.Store.ReadPage); this package never writes into them, and
// every page it writes is a fresh buffer.
package heap

import (
	"encoding/binary"
	"fmt"

	"hstoragedb/internal/engine/bufferpool"
	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/pagestore"
	"hstoragedb/internal/simclock"
)

const pageHeader = 2

// tombstone marks a deleted slot: the slot keeps its position (so RIDs of
// later slots remain valid) but carries no payload.
const tombstone = 0xFFFF

// File is a heap file bound to an object ID and schema.
type File struct {
	Object pagestore.ObjectID
	Schema catalog.Schema
	// Content distinguishes regular tables from temporary data; it rides
	// on every page tag.
	Content policy.ContentType
}

// NewFile describes an existing (or about-to-be-created) heap file.
func NewFile(obj pagestore.ObjectID, schema catalog.Schema, content policy.ContentType) *File {
	return &File{Object: obj, Schema: schema, Content: content}
}

// Appender buffers tuples into pages and writes full pages through the
// buffer pool. Writes carry the file's content type, so appends to
// temporary files classify as temp requests and appends to tables as
// updates.
type Appender struct {
	f    *File
	pool *bufferpool.Pool
	clk  *simclock.Clock

	page    int64
	buf     []byte
	count   uint16
	started bool
	rows    int64
}

// NewAppender starts appending at page `startPage` (pass the table's
// current page count to extend it, or 0 for a fresh file).
func (f *File) NewAppender(clk *simclock.Clock, pool *bufferpool.Pool, startPage int64) *Appender {
	return &Appender{f: f, pool: pool, clk: clk, page: startPage}
}

func (a *Appender) reset() {
	a.buf = make([]byte, pageHeader, pagestore.PageSize)
	a.count = 0
	a.started = true
}

// Append adds one tuple and returns its RID.
func (a *Appender) Append(t catalog.Tuple) (catalog.RID, error) {
	if !a.started {
		a.reset()
	}
	enc, err := catalog.EncodeTuple(nil, a.f.Schema, t)
	if err != nil {
		return catalog.RID{}, err
	}
	need := 2 + len(enc)
	if need > pagestore.PageSize-pageHeader {
		return catalog.RID{}, fmt.Errorf("heap: tuple of %d bytes exceeds page", len(enc))
	}
	if len(a.buf)+need > pagestore.PageSize {
		if err := a.flushPage(); err != nil {
			return catalog.RID{}, err
		}
	}
	rid := catalog.RID{Page: a.page, Slot: a.count}
	var l [2]byte
	binary.LittleEndian.PutUint16(l[:], uint16(len(enc)))
	a.buf = append(a.buf, l[:]...)
	a.buf = append(a.buf, enc...)
	a.count++
	a.rows++
	return rid, nil
}

// flushPage writes the current page through the buffer pool and extends
// the file's logical size, so a later appender starts past this page even
// while it is still only pool-resident (otherwise two appends between
// write-backs would hand out the same RIDs twice).
func (a *Appender) flushPage() error {
	binary.LittleEndian.PutUint16(a.buf[:2], a.count)
	tag := policy.Tag{Object: a.f.Object, Content: a.f.Content}
	if err := a.pool.Put(a.clk, tag, a.page, a.buf); err != nil {
		return err
	}
	if err := a.pool.Manager().Store().Extend(a.f.Object, a.page+1); err != nil {
		return err
	}
	a.page++
	a.reset()
	return nil
}

// Close flushes the final partial page. Rows reports how many tuples were
// appended; Pages how many pages the file now spans.
func (a *Appender) Close() error {
	if a.started && a.count > 0 {
		return a.flushPage()
	}
	return nil
}

// Rows returns the number of tuples appended so far.
func (a *Appender) Rows() int64 { return a.rows }

// Pages returns the page count after Close.
func (a *Appender) Pages() int64 {
	if a.started && a.count > 0 {
		return a.page + 1
	}
	return a.page
}

// slot locates one tuple encoding on a page: data[off:off+n]. A deleted
// slot has off < 0.
type slot struct{ off, n int }

// dirOnStack sizes the stack-held slot directory of readSlot: pages with
// more slots grow it on the heap.
const dirOnStack = 256

// parseSlots reads a page's slot directory into dir (reusing its storage)
// and returns it with the end of the page's used bytes. It validates the
// whole page, every live tuple column by column, so a corrupt slot
// anywhere on the page fails every read of it; no tuple is allocated.
func parseSlots(dir []slot, data []byte, schema catalog.Schema) ([]slot, int, error) {
	if len(data) < pageHeader {
		return nil, 0, fmt.Errorf("heap: short page")
	}
	n := int(binary.LittleEndian.Uint16(data[:2]))
	dir = dir[:0]
	off := pageHeader
	for i := 0; i < n; i++ {
		if off+2 > len(data) {
			return nil, 0, fmt.Errorf("heap: truncated tuple header at slot %d", i)
		}
		l := int(binary.LittleEndian.Uint16(data[off:]))
		off += 2
		if l == tombstone {
			dir = append(dir, slot{off: -1}) // deleted slot keeps its position
			continue
		}
		if off+l > len(data) {
			return nil, 0, fmt.Errorf("heap: truncated tuple at slot %d", i)
		}
		if _, err := catalog.DecodeTupleView(data[off:off+l], schema, nil); err != nil {
			return nil, 0, err
		}
		dir = append(dir, slot{off: off, n: l})
		off += l
	}
	return dir, off, nil
}

// splice returns a new page equal to data[:end] with live slot s replaced
// by the encoding of t, or by a tombstone header when t is nil. The input
// page is left untouched (page views are read-only).
func splice(data []byte, end int, s slot, t catalog.Tuple, schema catalog.Schema) ([]byte, error) {
	buf := make([]byte, 0, pagestore.PageSize)
	buf = append(buf, data[:s.off-2]...)
	if t == nil {
		buf = binary.LittleEndian.AppendUint16(buf, tombstone)
	} else {
		hdr := len(buf)
		buf = append(buf, 0, 0)
		var err error
		if buf, err = catalog.EncodeTuple(buf, schema, t); err != nil {
			return nil, err
		}
		binary.LittleEndian.PutUint16(buf[hdr:], uint16(len(buf)-hdr-2))
	}
	buf = append(buf, data[s.off+s.n:end]...)
	if len(buf) > pagestore.PageSize {
		return nil, fmt.Errorf("heap: rewritten page overflows (%d bytes)", len(buf))
	}
	return buf, nil
}

// Scanner iterates a heap file page by page with a sequential tag.
type Scanner struct {
	f     *File
	pool  *bufferpool.Pool
	clk   *simclock.Clock
	pages int64

	page  int64 // next page to read
	data  []byte
	slots []slot
	idx   int
	view  catalog.Tuple // scratch tuple whose strings alias data
}

// NewScanner creates a full-file sequential scanner over `pages` pages.
func (f *File) NewScanner(clk *simclock.Clock, pool *bufferpool.Pool, pages int64) *Scanner {
	return &Scanner{f: f, pool: pool, clk: clk, pages: pages}
}

// Next returns the next tuple with its RID; ok=false at end of file.
func (s *Scanner) Next() (catalog.Tuple, catalog.RID, bool, error) {
	return s.NextMatch(nil)
}

// NextMatch returns the next tuple accepted by match, with its RID;
// ok=false at end of file. match (nil accepts everything) runs once per
// live tuple with its RID, in slot order and before the next page is
// read, on a scratch view whose strings alias the page bytes: it must not
// retain the tuple or its strings. Only an accepted tuple is
// materialized, as an owned copy, so a match that never accepts visits
// the whole file without allocating a row.
func (s *Scanner) NextMatch(match func(catalog.Tuple, catalog.RID) bool) (catalog.Tuple, catalog.RID, bool, error) {
	for {
		for s.idx >= len(s.slots) {
			if s.page >= s.pages {
				return nil, catalog.RID{}, false, nil
			}
			tag := policy.Tag{Object: s.f.Object, Content: s.f.Content, Pattern: policy.Sequential}
			data, err := s.pool.Get(s.clk, tag, s.page)
			if err != nil {
				return nil, catalog.RID{}, false, err
			}
			if s.slots, _, err = parseSlots(s.slots, data, s.f.Schema); err != nil {
				return nil, catalog.RID{}, false, err
			}
			s.data = data
			s.page++
			s.idx = 0
		}
		sl := s.slots[s.idx]
		rid := catalog.RID{Page: s.page - 1, Slot: uint16(s.idx)}
		s.idx++
		if sl.off < 0 {
			continue // deleted slot
		}
		enc := s.data[sl.off : sl.off+sl.n]
		if match != nil {
			if s.view == nil {
				s.view = make(catalog.Tuple, len(s.f.Schema.Cols))
			}
			if _, err := catalog.DecodeTupleView(enc, s.f.Schema, s.view); err != nil {
				return nil, catalog.RID{}, false, err
			}
			if !match(s.view, rid) {
				continue
			}
		}
		t, _, err := catalog.DecodeTuple(enc, s.f.Schema)
		if err != nil {
			return nil, catalog.RID{}, false, err
		}
		return t, rid, true, nil
	}
}

// readSlot reads rid's page through the pool with tag and parses it. It
// returns the page, the end of its used bytes, its slot count n and, when
// rid.Slot < n, rid's slot.
func (f *File) readSlot(clk *simclock.Clock, pool *bufferpool.Pool, tag policy.Tag, rid catalog.RID) (data []byte, end, n int, sl slot, err error) {
	if data, err = pool.Get(clk, tag, rid.Page); err != nil {
		return nil, 0, 0, slot{}, err
	}
	var buf [dirOnStack]slot
	slots, end, err := parseSlots(buf[:0], data, f.Schema)
	if err != nil {
		return nil, 0, 0, slot{}, err
	}
	if int(rid.Slot) < len(slots) {
		sl = slots[rid.Slot]
	}
	return data, end, len(slots), sl, nil
}

// Fetch retrieves the tuple at rid with a random-access tag carrying the
// issuing operator's plan level. Only that slot is decoded.
func (f *File) Fetch(clk *simclock.Clock, pool *bufferpool.Pool, rid catalog.RID, level int) (catalog.Tuple, error) {
	tag := policy.Tag{Object: f.Object, Content: f.Content, Pattern: policy.Random, Level: level}
	data, _, n, sl, err := f.readSlot(clk, pool, tag, rid)
	if err != nil {
		return nil, err
	}
	if int(rid.Slot) >= n {
		// Revalidation: an index entry can transiently point at a slot
		// that is not (or no longer) materialized on the page — e.g. a
		// probe racing an updater, or a post-crash scan over a file
		// extension whose content died with the buffer pool. The row is
		// simply not visible.
		return nil, nil
	}
	if sl.off < 0 {
		// A tombstone (row deleted, e.g. by a concurrent RF2); callers
		// treat nil as "no longer visible" and skip.
		return nil, nil
	}
	t, _, err := catalog.DecodeTuple(data[sl.off:sl.off+sl.n], f.Schema)
	return t, err
}

// Update rewrites the tuple at rid in place. The page write classifies as
// an update (Rule 4). The rewritten page must still fit; fixed-width
// updates (numeric columns) always do.
func (f *File) Update(clk *simclock.Clock, pool *bufferpool.Pool, rid catalog.RID, t catalog.Tuple, level int) error {
	tag := policy.Tag{Object: f.Object, Content: f.Content, Pattern: policy.Random, Level: level}
	data, end, n, sl, err := f.readSlot(clk, pool, tag, rid)
	if err != nil {
		return err
	}
	if int(rid.Slot) >= n {
		return fmt.Errorf("heap: rid %v slot out of range (%d tuples)", rid, n)
	}
	if sl.off < 0 {
		return fmt.Errorf("heap: rid %v updates a deleted tuple", rid)
	}
	page, err := splice(data, end, sl, t, f.Schema)
	if err != nil {
		return err
	}
	writeTag := tag
	writeTag.Update = true
	return pool.Put(clk, writeTag, rid.Page, page)
}

// Delete tombstones the tuple at rid. The page write classifies as an
// update (Rule 4). It returns false if the slot was already deleted.
func (f *File) Delete(clk *simclock.Clock, pool *bufferpool.Pool, rid catalog.RID, level int) (bool, error) {
	tag := policy.Tag{Object: f.Object, Content: f.Content, Pattern: policy.Random, Level: level}
	data, end, n, sl, err := f.readSlot(clk, pool, tag, rid)
	if err != nil {
		return false, err
	}
	if int(rid.Slot) >= n {
		return false, fmt.Errorf("heap: rid %v slot out of range (%d tuples)", rid, n)
	}
	if sl.off < 0 {
		return false, nil
	}
	page, err := splice(data, end, sl, nil, f.Schema)
	if err != nil {
		return false, err
	}
	writeTag := tag
	writeTag.Update = true
	return true, pool.Put(clk, writeTag, rid.Page, page)
}
