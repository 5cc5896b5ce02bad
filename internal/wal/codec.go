// Record payload encoding. All integers are big-endian; strings are
// u32-length-prefixed; tuple values use value.AppendKey's self-delimiting
// encoding (the same bytes the in-memory index keys use).
//
//	payload := u8 kind | u64 epoch | body
//	batch body     := u32 nops | nops × (u8 opKind | str rel | u32 nvals | vals)
//	extension body := str rel | u32 nx | nx × str | u32 ny | ny × str | u64 N
package wal

import (
	"fmt"

	"bcq/internal/value"
)

func (rec Record) encode() []byte {
	buf := make([]byte, 0, 64)
	buf = append(buf, byte(rec.Kind))
	buf = appendBE64(buf, rec.Epoch)
	switch rec.Kind {
	case RecBatch:
		buf = appendBE32(buf, uint32(len(rec.Ops)))
		for _, op := range rec.Ops {
			buf = append(buf, byte(op.Kind))
			buf = appendStr(buf, op.Rel)
			buf = appendBE32(buf, uint32(len(op.Tuple)))
			for _, v := range op.Tuple {
				buf = v.AppendKey(buf)
			}
		}
	case RecExtension:
		buf = appendStr(buf, rec.Rel)
		buf = appendBE32(buf, uint32(len(rec.X)))
		for _, a := range rec.X {
			buf = appendStr(buf, a)
		}
		buf = appendBE32(buf, uint32(len(rec.Y)))
		for _, a := range rec.Y {
			buf = appendStr(buf, a)
		}
		buf = appendBE64(buf, uint64(rec.N))
	}
	return buf
}

func decodeRecord(b []byte) (Record, error) {
	var rec Record
	if len(b) < 9 {
		return rec, fmt.Errorf("wal: record too short (%d bytes)", len(b))
	}
	rec.Kind = RecordKind(b[0])
	rec.Epoch = be64(b[1:9])
	b = b[9:]
	var err error
	switch rec.Kind {
	case RecBatch:
		var nops uint32
		nops, b, err = takeU32(b)
		if err != nil {
			return rec, err
		}
		rec.Ops = make([]Op, 0, capFor(uint64(nops), b, minOpBytes))
		for i := uint32(0); i < nops; i++ {
			var op Op
			if len(b) < 1 {
				return rec, fmt.Errorf("wal: truncated op kind")
			}
			op.Kind = OpKind(b[0])
			if op.Kind != OpInsert && op.Kind != OpDelete {
				return rec, fmt.Errorf("wal: unknown op kind %d", op.Kind)
			}
			b = b[1:]
			op.Rel, b, err = takeStr(b)
			if err != nil {
				return rec, err
			}
			var nvals uint32
			nvals, b, err = takeU32(b)
			if err != nil {
				return rec, err
			}
			op.Tuple = make(value.Tuple, 0, capFor(uint64(nvals), b, minValueBytes))
			for j := uint32(0); j < nvals; j++ {
				var v value.Value
				v, b, err = value.DecodeValue(b)
				if err != nil {
					return rec, fmt.Errorf("wal: op tuple: %w", err)
				}
				op.Tuple = append(op.Tuple, v)
			}
			rec.Ops = append(rec.Ops, op)
		}
	case RecExtension:
		rec.Rel, b, err = takeStr(b)
		if err != nil {
			return rec, err
		}
		rec.X, b, err = takeStrs(b)
		if err != nil {
			return rec, err
		}
		rec.Y, b, err = takeStrs(b)
		if err != nil {
			return rec, err
		}
		if len(b) < 8 {
			return rec, fmt.Errorf("wal: truncated extension bound")
		}
		rec.N = int64(be64(b[:8]))
		b = b[8:]
	default:
		return rec, fmt.Errorf("wal: unknown record kind %d", rec.Kind)
	}
	if len(b) != 0 {
		return rec, fmt.Errorf("wal: %d trailing bytes after record", len(b))
	}
	return rec, nil
}

// Smallest encodings of one element of each counted list: an op is its
// kind byte plus two u32 length fields, a value at least its tag byte, a
// string at least its u32 length.
const (
	minOpBytes    = 1 + 4 + 4
	minValueBytes = 1
	minStrBytes   = 4
)

// capFor bounds a preallocation sized by a decoded count n. Every element
// occupies at least minBytes of the remaining input, so a count rest
// cannot hold comes from a corrupt record and must not drive the
// allocation; the decode loop then fails with its usual truncation error.
func capFor(n uint64, rest []byte, minBytes int) int {
	return int(min(n, uint64(len(rest)/minBytes)))
}

func appendBE64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func be64(b []byte) uint64 {
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

func appendStr(dst []byte, s string) []byte {
	dst = appendBE32(dst, uint32(len(s)))
	return append(dst, s...)
}

func takeU32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, fmt.Errorf("wal: truncated u32")
	}
	return be32(b[:4]), b[4:], nil
}

func takeStr(b []byte) (string, []byte, error) {
	n, rest, err := takeU32(b)
	if err != nil {
		return "", nil, err
	}
	if uint32(len(rest)) < n {
		return "", nil, fmt.Errorf("wal: truncated string (want %d, have %d)", n, len(rest))
	}
	return string(rest[:n]), rest[n:], nil
}

func takeStrs(b []byte) ([]string, []byte, error) {
	n, rest, err := takeU32(b)
	if err != nil {
		return nil, nil, err
	}
	out := make([]string, 0, capFor(uint64(n), rest, minStrBytes))
	for i := uint32(0); i < n; i++ {
		var s string
		s, rest, err = takeStr(rest)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, s)
	}
	return out, rest, nil
}
