package catalog

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// EncodeTuple appends the binary encoding of t (per schema s) to dst and
// returns the extended slice. Layout: fixed 8-byte little-endian words for
// Int64/Date/Float64 columns; uvarint length + bytes for String columns.
func EncodeTuple(dst []byte, s Schema, t Tuple) ([]byte, error) {
	if len(t) != len(s.Cols) {
		return nil, fmt.Errorf("catalog: tuple arity %d != schema arity %d", len(t), len(s.Cols))
	}
	var w [8]byte
	for i, c := range s.Cols {
		switch c.Type {
		case Int64, Date:
			binary.LittleEndian.PutUint64(w[:], uint64(t[i].I))
			dst = append(dst, w[:]...)
		case Float64:
			binary.LittleEndian.PutUint64(w[:], math.Float64bits(t[i].F))
			dst = append(dst, w[:]...)
		case String:
			dst = binary.AppendUvarint(dst, uint64(len(t[i].S)))
			dst = append(dst, t[i].S...)
		default:
			return nil, fmt.Errorf("catalog: unknown column type %v", c.Type)
		}
	}
	return dst, nil
}

// DecodeTuple parses one tuple of schema s from src, returning the tuple
// and the number of bytes consumed. The tuple owns its values: string
// columns are copied out of src.
func DecodeTuple(src []byte, s Schema) (Tuple, int, error) {
	t := make(Tuple, len(s.Cols))
	n, err := decode(src, s, t, false)
	if err != nil {
		return nil, 0, err
	}
	return t, n, nil
}

// DecodeTupleView parses one tuple of schema s from src into t, which
// must have the schema's arity, and returns the number of bytes consumed.
// String columns alias src instead of copying it, so t is valid only
// while src is unchanged: callers decode into a reused scratch tuple,
// inspect it and drop it (DecodeTuple materializes an owned copy). A nil
// t only validates: every column is checked exactly as DecodeTuple checks
// it, and nothing is allocated.
func DecodeTupleView(src []byte, s Schema, t Tuple) (int, error) {
	return decode(src, s, t, true)
}

// decode is the one codec walker behind DecodeTuple and DecodeTupleView.
// It stores column values into t when t is non-nil; view selects whether
// string columns alias src or copy it.
func decode(src []byte, s Schema, t Tuple, view bool) (int, error) {
	off := 0
	for i := range s.Cols {
		switch c := &s.Cols[i]; c.Type {
		case Int64, Date:
			if off+8 > len(src) {
				return 0, fmt.Errorf("catalog: truncated int column %q", c.Name)
			}
			if t != nil {
				t[i] = Datum{I: int64(binary.LittleEndian.Uint64(src[off:]))}
			}
			off += 8
		case Float64:
			if off+8 > len(src) {
				return 0, fmt.Errorf("catalog: truncated float column %q", c.Name)
			}
			if t != nil {
				t[i] = Datum{F: math.Float64frombits(binary.LittleEndian.Uint64(src[off:]))}
			}
			off += 8
		case String:
			var n uint64
			var w int
			if off < len(src) && src[off] < 0x80 {
				n, w = uint64(src[off]), 1 // the common short string
			} else {
				n, w = binary.Uvarint(src[off:])
			}
			if w <= 0 || n > uint64(len(src)-off-w) {
				return 0, fmt.Errorf("catalog: truncated string column %q", c.Name)
			}
			off += w
			if t != nil {
				t[i] = Datum{S: bytesString(src[off:off+int(n)], view)}
			}
			off += int(n)
		default:
			return 0, fmt.Errorf("catalog: unknown column type %v", c.Type)
		}
	}
	return off, nil
}

// bytesString returns b as a string: aliasing b in view mode, copied
// otherwise.
func bytesString(b []byte, view bool) string {
	if view && len(b) > 0 {
		return unsafe.String(&b[0], len(b))
	}
	return string(b)
}
